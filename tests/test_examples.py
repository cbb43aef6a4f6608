"""Smoke tests: the fast example scripts run end to end.

(``fine_grained_landscape.py`` is left out: its sweeps take about 12 s
on a 2-vCPU machine, against under a second for each script here.)
"""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "nondeterminism_demo.py",
        "time_hierarchy_miniature.py",
        "search_problems_and_broadcast.py",
        "model_zoo.py",
        "cluster_routing.py",
    ],
)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_all_examples_present():
    found = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "fine_grained_landscape.py",
        "nondeterminism_demo.py",
        "cluster_routing.py",
        "time_hierarchy_miniature.py",
        "search_problems_and_broadcast.py",
        "model_zoo.py",
    } <= found
