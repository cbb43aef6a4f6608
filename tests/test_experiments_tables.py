"""The E9 table quoted in EXPERIMENTS.md matches the committed results.

``benchmarks/results/test_e9_kds_upper.txt`` is regenerated by
``benchmarks/test_e9_kds_upper.py`` (CI's paper-claims job fails when it
changes); this test fails when the hand-written EXPERIMENTS.md table no
longer says what that file says, so the two can only move together.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
E9_RESULTS = ROOT / "benchmarks" / "results" / "test_e9_kds_upper.txt"


def _cells(line: str) -> list[str]:
    return [c.strip().strip("*") for c in line.strip().strip("|").split("|")]


def _experiments_e9() -> dict[int, tuple[float, ...]]:
    """``k -> (slope, delta, paper bound, r^2)`` from the E9 section."""
    text = EXPERIMENTS.read_text(encoding="utf-8")
    section = text[text.index("## E9 ") :]
    section = section[: section.index("\n## ", 1)]
    rows = {}
    for line in section.splitlines():
        cells = _cells(line)
        if line.startswith("|") and cells[0].isdigit():
            rows[int(cells[0])] = tuple(float(c) for c in cells[1:5])
    return rows


def _results_e9() -> dict[int, tuple[float, ...]]:
    """The same columns from the results file's fitted-exponent table."""
    text = E9_RESULTS.read_text(encoding="utf-8")
    block = text[text.index("E9 - fitted exponents") :].split("\n\n")[0]
    rows = {}
    for line in block.splitlines()[3:]:
        cells = _cells(line)
        rows[int(cells[0])] = tuple(float(c) for c in cells[1:5])
    return rows


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
