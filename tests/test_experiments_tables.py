"""The fits quoted in EXPERIMENTS.md match the committed results.

``benchmarks/results/test_e{9,11,12}_*.txt`` are regenerated by the
matching ``benchmarks/test_e*.py`` (CI's paper-claims job fails when they
change); these tests fail when the hand-written EXPERIMENTS.md figures no
longer say what those files say, so the two can only move together.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
RESULTS = ROOT / "benchmarks" / "results"
E9_RESULTS = RESULTS / "test_e9_kds_upper.txt"
E11_RESULTS = RESULTS / "test_e11_subgraph_exponent.txt"
E12_RESULTS = RESULTS / "test_e12_matmul_apsp.txt"


def _cells(line: str) -> list[str]:
    return [c.strip().strip("*") for c in line.strip().strip("|").split("|")]


def _section(experiment: str) -> str:
    """The ``## <experiment> ...`` section of EXPERIMENTS.md."""
    text = EXPERIMENTS.read_text(encoding="utf-8")
    section = text[text.index(f"## {experiment} ") :]
    return section[: section.index("\n## ", 1)]


def _prose(experiment: str) -> str:
    """The section with its line wrapping undone."""
    return " ".join(_section(experiment).split())


def _table(path: Path, title: str) -> list[list[str]]:
    """Body rows of the results-file table headed ``title``."""
    text = path.read_text(encoding="utf-8")
    block = text[text.index(title) :].split("\n\n")[0]
    return [_cells(line) for line in block.splitlines()[3:]]


def _experiments_e9() -> dict[int, tuple[float, ...]]:
    """``k -> (slope, delta, paper bound, r^2)`` from the E9 section."""
    rows = {}
    for line in _section("E9").splitlines():
        cells = _cells(line)
        if line.startswith("|") and cells[0].isdigit():
            rows[int(cells[0])] = tuple(float(c) for c in cells[1:5])
    return rows


def _results_e9() -> dict[int, tuple[float, ...]]:
    """The same columns from the results file's fitted-exponent table."""
    return {
        int(cells[0]): tuple(float(c) for c in cells[1:5])
        for cells in _table(E9_RESULTS, "E9 - fitted exponents")
    }


def test_e9_table_matches_the_results_file():
    quoted = _experiments_e9()
    measured = _results_e9()
    assert sorted(quoted) == sorted(measured) == [2, 3]
    for k, row in measured.items():
        assert quoted[k] == row, f"k={k}: EXPERIMENTS.md {quoted[k]} vs {row}"


def test_e9_fits_are_the_recorded_values():
    # Parsed, not assumed: the slope is delta + 1 on both sides.
    measured = _results_e9()
    assert measured[2][:2] == (1.541, 0.541)
    assert measured[3][:2] == (1.68, 0.68)
    for slope, delta, _bound, _r2 in measured.values():
        assert abs(slope - 1 - delta) < 1e-9


def test_e11_triangle_delta_matches_the_results_file():
    quoted = re.search(
        r"triangle fitted δ = \*\*([0-9.]+)\*\* vs paper ([0-9.]+)", _prose("E11")
    )
    assert quoted is not None, "E11 no longer quotes the triangle fit"
    rows = {cells[0]: cells for cells in _table(E11_RESULTS, "E11 - fitted")}
    _, slope, delta, bound, _regime = rows["triangle (k=3)"]
    assert float(quoted[1]) == float(delta) == 0.347
    assert float(quoted[2]) == float(bound)
    assert abs(float(slope) - 1 - float(delta)) < 1e-9


def test_e12_ring_mm_fit_matches_the_results_file():
    quoted = re.search(
        r"ring MM fitted δ = \*\*([0-9.]+)\*\* vs 1/3 \(r² = ([0-9.]+)",
        _prose("E12"),
    )
    assert quoted is not None, "E12 no longer quotes the ring-MM fit"
    (row,) = _table(E12_RESULTS, "E12 - fitted MM exponent")
    slope, delta, bound, r2 = (float(c) for c in row)
    assert float(quoted[1]) == delta == 0.427
    assert float(quoted[2]) == r2 == 0.9997
    assert bound == round(1 / 3, 3)
    assert abs(slope - 1 - delta) < 1e-9
