"""benchmarks/figures.py's row table, checked without running a row."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "benchmarks" / "figures.py"


def _figures():
    spec = importlib.util.spec_from_file_location("figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


figures = _figures()


def _indexed_figures() -> set[str]:
    """The figure ids DESIGN.md's experiment index sends to figures.py."""
    text = (REPO / "DESIGN.md").read_text()
    index = text.split("## Experiment index")[1].split("\n## ")[0]
    return set(re.findall(r"`figures\.py (\w+)`", index))


def test_every_indexed_figure_has_rows_and_every_row_is_indexed():
    indexed = _indexed_figures()
    assert indexed == set(figures.FIGURES)


def test_quick_keeps_a_row_of_every_figure():
    quick = figures.select(quick=True)
    assert {row.fig for row in quick} == set(figures.FIGURES)
    assert len(quick) < len(figures.ROWS)


def test_every_row_declares_the_facts_it_asserts():
    for row in figures.ROWS:
        assert row.expect, row.id
        assert callable(getattr(figures, f"_{row.kind}")), row.id
    assert len(figures.BY_ID) == len(figures.ROWS)
    for _, ids, _ in figures.CROSS:
        assert set(ids) <= set(figures.BY_ID), ids


def test_figure_ids_select_rows():
    rows = figures.select(quick=False, figures=["13c"])
    assert rows and {row.fig for row in rows} == {"13c"}


def test_import_loads_no_analysis_driver():
    code = ("import importlib.util, sys; "
            f"spec = importlib.util.spec_from_file_location('f', {str(SCRIPT)!r}); "
            "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.analysis')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_quick_is_the_only_flag():
    out = subprocess.run([sys.executable, str(SCRIPT), "--help"],
                         capture_output=True, text=True, check=True).stdout
    assert set(re.findall(r"--[\w-]+", out)) == {"--help", "--quick"}
