"""The one counter gate: every CLI run pinned in ``counter_pins.json``.

A row is a command line over generated inputs.  Its exit code, its first
stdout line (with every ``<float>s`` timing removed) and every integer
counter its ``--stats`` table prints must repeat exactly, in both
directions: a counter that appears or disappears fails as a changed value
does.  Timings, hit rates and gauges are not pinned; they are not
deterministic.  A row runs at ``NV_JOBS=1`` unless its command line starts
with ``NV_JOBS=N``, in the inputs' directory, so printed paths are the
row's own.

Inputs are generated, never checked in: small programs from
``repro.topology`` and, under ``sim_cfg/`` and ``verify_smt/``, the
full-size end-to-end benchmark inputs at the default seed, written by
``benchmarks/e2e/workloads.py`` (imported, not edited).

Re-record, only for an intended change of work (CHANGES.md says which rows
moved and why), with ``PYTHONPATH=src python -m tests.test_counter_pins``;
it prints what changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.frontend.to_nv import translate
from repro.topology import (all_prefixes_program, leaf_nodes, sp_program,
                            uscarrier_like, wan_program)
from tests.lang.test_annotation_digests import fattree_configs

PINS = Path(__file__).with_name("counter_pins.json")
E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
COUNTER = re.compile(r"^\s+(\S+)\s+([\d,]+)$", re.M)
TIMING = re.compile(r" ?\d+\.\d+s\b")

RIP_TRIANGLE = """
include rip
let nodes = 3
let edges = {0n=1n; 1n=2n; 0n=2n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) =
  match x with
  | None -> false
  | Some h -> h <= 1u8
"""

#: File name -> its source.
PROGRAMS = {
    "ap4.nv": lambda: all_prefixes_program(4, "sp"),
    "cfg4.nv": lambda: translate(
        fattree_configs(4), assert_prefix=f"10.0.{leaf_nodes(4)[0]}.0/24").source,
    "wan20.nv": lambda: wan_program(uscarrier_like(20, 30)),
    "wan30.nv": lambda: wan_program(uscarrier_like(30, 48)),
    "triangle.nv": lambda: RIP_TRIANGLE,
    "sp4.nv": lambda: sp_program(4),
    **{f"p{i}.nv": (lambda d=d: sp_program(2, dest=d, narrow=True))
       for i, d in enumerate([*leaf_nodes(2), 4])},
}


def _e2e_inputs(workload: str, directory: Path) -> None:
    sys.path.insert(0, str(E2E))
    try:
        import workloads
    finally:
        sys.path.remove(str(E2E))
    workloads.generate(workload, workloads.DEFAULT_SEED, directory)
    if workload == "sim_cfg":
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["translate", str(directory / "configs"),
                         "-o", str(directory / "cfg.nv")]) == 0


def write_inputs(directory: Path, commands) -> None:
    """Write every input ``commands`` name into ``directory``."""
    names = {word for command in commands for word in command.split()
             if word.endswith(".nv")}
    for name in sorted(names):
        if (directory / name).exists():
            continue
        if "/" in name:
            sub = directory / name.split("/")[0]
            sub.mkdir()
            _e2e_inputs(sub.name, sub)
        else:
            (directory / name).write_text(PROGRAMS[name]())


@contextlib.contextmanager
def _in(directory: Path, jobs: str):
    cwd, saved = os.getcwd(), os.environ.get("NV_JOBS")
    os.chdir(directory)
    os.environ["NV_JOBS"] = jobs
    try:
        yield
    finally:
        os.chdir(cwd)
        if saved is None:
            del os.environ["NV_JOBS"]
        else:
            os.environ["NV_JOBS"] = saved


def run(command: str, directory: Path) -> dict:
    """Run one row's command line with ``--stats`` and read off its pin."""
    words = command.split()
    jobs = words.pop(0).split("=")[1] if words[0].startswith("NV_JOBS=") else "1"
    out = io.StringIO()
    with _in(directory, jobs), contextlib.redirect_stdout(out):
        rc = main([*words, "--stats"])
    text = out.getvalue()
    return {"exit": rc,
            "first_line": TIMING.sub("", text.split("\n", 1)[0]),
            "counters": {name: int(value.replace(",", ""))
                         for name, value in COUNTER.findall(text)}}


def mismatches(pinned: dict, got: dict) -> list[str]:
    """Every difference between a row's pin and a run, one line each."""
    out = [f"{key}: pinned {pinned[key]!r}, got {got[key]!r}"
           for key in ("exit", "first_line") if pinned[key] != got[key]]
    want, have = pinned["counters"], got["counters"]
    for name in sorted(set(want) | set(have)):
        if want.get(name) != have.get(name):
            out.append(f"{name}: pinned {want.get(name, 'nothing')}, "
                       f"got {have.get(name, 'nothing')}")
    return out


def load_pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pins")
    write_inputs(directory, load_pins())
    return directory


@pytest.mark.parametrize("command", sorted(load_pins()))
def test_counters_are_pinned(command, inputs):
    assert mismatches(load_pins()[command], run(command, inputs)) == []


PIN = {"exit": 0, "first_line": "verified:",
       "counters": {"sat.conflicts": 4, "sat.checks": 1}}


def test_comparison_rejects_a_changed_count():
    assert mismatches(PIN, json.loads(json.dumps(PIN))) == []
    plus_one = {**PIN, "counters": {"sat.conflicts": 5, "sat.checks": 1}}
    assert mismatches(PIN, plus_one) == ["sat.conflicts: pinned 4, got 5"]
    assert mismatches(PIN, {**PIN, "exit": 1}) == ["exit: pinned 0, got 1"]


def test_comparison_rejects_a_new_counter():
    extra = {**PIN, "counters": {**PIN["counters"], "sat.decisions": 0}}
    assert mismatches(PIN, extra) == ["sat.decisions: pinned nothing, got 0"]


def test_comparison_rejects_a_vanished_counter():
    missing = {**PIN, "counters": {"sat.conflicts": 4}}
    assert mismatches(PIN, missing) == ["sat.checks: pinned 1, got nothing"]


if __name__ == "__main__":
    import tempfile

    pins = load_pins()
    with tempfile.TemporaryDirectory() as d:
        write_inputs(Path(d), pins)
        record = {command: run(command, Path(d)) for command in sorted(pins)}
    for command in sorted(pins):
        for line in mismatches(pins[command], record[command]):
            print(f"{command}: {line}")
    PINS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
