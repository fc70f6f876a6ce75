"""DESIGN.md's cost-curve table, held: every row's command runs over its
input family at each size, and the log-log slope of the row's ``--stats``
counter against the size must lie inside the row's exponent band.

A fixed-size pin (``counter_pins.json``) cannot tell linear growth from
super-linear growth; a fitted slope over three sizes can.  The table is
read from DESIGN.md, so the document and the gate cannot disagree.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from repro.topology import uscarrier_like, wan_program
from tests.test_counter_pins import run

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"
SECTION = "## Cost curves"

#: Input family (the table's second column) -> the program of size ``n``.
FAMILIES = {
    "WAN": lambda n: wan_program(uscarrier_like(n, n * 8 // 5)),
}

ROW = re.compile(
    r"^\| `(?P<command>[^`]+)` \| (?P<family>\w+) \| n ∈ \{(?P<sizes>[\d, ]+)\} "
    r"\| `(?P<counter>[\w.]+)` \| (?P<exponent>[\d.]+) ± (?P<band>[\d.]+) "
    r"\| (?P<reason>[^|]+) \|$")


def rows() -> list[dict]:
    """The table's rows, in order."""
    text = DESIGN.read_text()
    start = text.index(SECTION)
    end = text.find("\n## ", start + 1)
    found = [m.groupdict() for line in text[start:end].splitlines()
             if (m := ROW.match(line))]
    assert found, f"no rows under {SECTION!r} in DESIGN.md"
    return found


def slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def test_slope_of_a_power_law():
    assert slope([(10, 30), (20, 120), (40, 480)]) == pytest.approx(2.0)
    assert slope([(30, 5), (60, 5), (120, 5)]) == pytest.approx(0.0)


@pytest.mark.parametrize("row", rows(), ids=lambda r: f"{r['command']} {r['family']}")
def test_cost_curve(row, tmp_path):
    points = []
    for n in (int(s) for s in row["sizes"].split(",")):
        (tmp_path / f"n{n}.nv").write_text(FAMILIES[row["family"]](n))
        got = run(f"{row['command']} n{n}.nv", tmp_path)
        assert got["exit"] in (0, 1), got["first_line"]
        points.append((n, got["counters"][row["counter"]]))
    fitted = slope(points)
    assert abs(fitted - float(row["exponent"])) <= float(row["band"]), (
        f"{row['counter']} grows as n^{fitted:.2f} over {points}, outside "
        f"{row['exponent']} ± {row['band']} ({row['reason'].strip()})")
