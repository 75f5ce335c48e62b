"""The line count of the package source, tracked like a benchmark.

A change that needs more lines raises SRC_LINE_BUDGET and says why in
CHANGES.md; a change that frees lines may lower it.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "feforms"
SRC_LINE_BUDGET = 3242


def test_src_stays_within_its_line_budget():
    count = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in SRC.glob("*.py"))
    assert count <= SRC_LINE_BUDGET, (
        f"src/feforms has {count} lines, over the budget of {SRC_LINE_BUDGET}")
