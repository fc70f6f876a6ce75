"""The `--stats` work counters of four runs over the simulate hot path
(`NVMap.get` / `set`, `VRecord` updates, the fault meta-protocol), pinned.

``hot_path_counters.json`` was recorded before ``NVMap.get`` memoised its
reads and ``VRecord.with_updates`` handed its shape index on; those are
meant to save time only, so every ``sim.*`` / ``bdd.*`` counter must repeat
exactly.  The ``bdd.apply_cache_*`` rows of ``fault --links 2 wan20`` were
re-recorded by hand (18,376 / 19,084 before) when closure memo keys started
to leave out what a body does not observe; every other row repeated.
Regenerate (only for an intended change of work) with
``PYTHONPATH=src python tests/eval/test_hot_path_counters.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.frontend.to_nv import translate
from repro.topology import all_prefixes_program, leaf_nodes, uscarrier_like, wan_program
from tests.lang.test_annotation_digests import fattree_configs

GOLDEN = Path(__file__).with_name("hot_path_counters.json")
ROW = re.compile(r"^\s+((?:sim|bdd)\.[a-z_.]+)\s+([\d,]+)$", re.M)


PROGRAMS = {
    "ap4": lambda: all_prefixes_program(4, "sp"),
    "cfg4": lambda: translate(fattree_configs(4),
                              assert_prefix=f"10.0.{leaf_nodes(4)[0]}.0/24").source,
    "wan20": lambda: wan_program(uscarrier_like(20, 30)),
}
RUNS = {"simulate ap4": ("simulate", "ap4"),
        "simulate --native ap4": ("simulate", "--native", "ap4"),
        "simulate --lower cfg4": ("simulate", "--lower", "cfg4"),
        "fault --links 2 wan20": ("fault", "--links", "2", "wan20")}


def counters(name: str, directory: Path) -> dict:
    argv = []
    for arg in RUNS[name]:
        if arg in PROGRAMS:
            path = directory / f"{arg}.nv"
            path.write_text(PROGRAMS[arg]())
            arg = str(path)
        argv.append(arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([*argv, "--stats"])
    return {"exit": rc, "counters": dict(ROW.findall(out.getvalue()))}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_work_counters_are_unchanged(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())[name]
    assert len(golden["counters"]) >= 14
    assert counters(name, tmp_path) == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        record = {name: counters(name, Path(d)) for name in sorted(RUNS)}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
