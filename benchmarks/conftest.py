"""Shared workload builders for the benchmark harness.

Every benchmark regenerates one table/figure of the paper's evaluation
(§6), scaled down so the pure-Python substrate finishes in minutes: the
paper's FatTree sizes k=8..32 become k=4..12 here, and the SMT benchmarks
use the int8 BGP model (see DESIGN.md's substitution table).  The *shape* of
each comparison — who wins, how curves grow — is the reproduction target,
not absolute times.

Run with::

    pytest benchmarks/ --benchmark-only

EXPERIMENTS.md records one full run and compares it against the paper.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import metrics, obs, perf
from repro.lang.parser import parse_program
from repro.protocols import resolve
from repro.srp.network import Network

#: Quick mode (``NV_BENCH_QUICK=1``) shrinks every benchmark's problem sizes
#: to the smallest instance — a CI smoke test that exercises the full
#: pipeline (parse, compile, simulate, diagrams) in seconds.
QUICK = os.environ.get("NV_BENCH_QUICK", "") not in ("", "0")

#: ``NV_BENCH_REPORT=dir`` traces the whole benchmark session (spans +
#: progress events into ``bench_trace.jsonl``, metrics snapshot into
#: ``bench_metrics.json``) and renders a self-contained HTML run report at
#: the end — CI uploads the report as an artifact.
REPORT_DIR = os.environ.get("NV_BENCH_REPORT") or None

#: ``NV_RUN_RECORD`` persists the session as an observatory RunRecord:
#: ``1`` writes to the default store (``.nv-runs/`` or ``$NV_RUNS_DIR``),
#: any other non-empty value names the store directory.  ``NV_RUN_LABEL``
#: overrides the record label (default ``bench``), so CI can record e.g.
#: ``fig14-smoke`` twice and later ``repro runs diff`` them.
RUN_RECORD = os.environ.get("NV_RUN_RECORD") or None
RUN_LABEL = os.environ.get("NV_RUN_LABEL") or "bench"

#: Per-test wall times collected by :func:`bench_wall`, keyed by test name —
#: they become the RunRecord's ``timings`` (lists of repeats, min-of-N
#: diffing downstream).
_WALL_TIMES: dict[str, list[float]] = {}


def sizes(full: list, quick_count: int = 1) -> list:
    """The benchmark's parameter list, truncated in quick mode."""
    return full[:quick_count] if QUICK else full


def load_network(source: str) -> Network:
    return Network.from_program(parse_program(source, resolve))


@pytest.fixture(scope="session", autouse=True)
def perf_counters():
    """Collect :mod:`repro.perf` counters across the whole benchmark session;
    the terminal summary prints them (cache hit rates, activations, SAT
    conflicts) next to pytest-benchmark's timing table."""
    perf.reset()
    perf.enable()
    yield
    perf.disable()


@pytest.fixture(scope="session", autouse=True)
def bench_report_session():
    """``NV_BENCH_REPORT``-gated session trace + metrics for the HTML run
    report (no-op otherwise, so plain benchmark timing stays unperturbed)."""
    if not REPORT_DIR:
        yield
        return
    out = Path(REPORT_DIR)
    out.mkdir(parents=True, exist_ok=True)
    obs.reset()
    obs.enable(jsonl=out / "bench_trace.jsonl")
    metrics.reset()
    metrics.enable()
    yield
    metrics.write_json(out / "bench_metrics.json")
    metrics.disable()
    obs.disable()


@pytest.fixture(scope="session", autouse=True)
def bench_run_record(perf_counters, bench_report_session):
    """``NV_RUN_RECORD``-gated: persist the whole benchmark session as one
    observatory RunRecord.  Depends on the registry fixtures so its teardown
    runs first — perf counters and live metrics are still enabled when the
    record is captured."""
    yield
    if not RUN_RECORD:
        return
    from repro import observatory

    trace = Path(REPORT_DIR) / "bench_trace.jsonl" if REPORT_DIR else None
    obs.flush()
    record = observatory.capture(
        RUN_LABEL, timings=_WALL_TIMES,
        trace_path=trace if trace and trace.exists() else None,
        meta={"harness": "benchmarks", "quick": QUICK})
    store = observatory.RunStore(None if RUN_RECORD == "1" else RUN_RECORD)
    _RECORD_PATHS.append(store.save(record))


#: Saved by :func:`bench_run_record`, printed by the terminal summary.
_RECORD_PATHS: list[Path] = []


@pytest.fixture(autouse=True)
def bench_span(request):
    """One span per benchmark test so the report's flame chart groups the
    session by figure/case."""
    if not REPORT_DIR:
        yield
        return
    with obs.span(f"bench.{request.node.name}"):
        yield


@pytest.fixture(autouse=True)
def bench_wall(request):
    """``NV_RUN_RECORD``-gated per-test wall clock for the session's
    RunRecord (pytest-benchmark's own stats stay the precision source; this
    coarse number is what the run differ min-of-Ns across sessions)."""
    if not RUN_RECORD:
        yield
        return
    from time import perf_counter
    t0 = perf_counter()
    yield
    _WALL_TIMES.setdefault(
        f"bench.{request.node.name}.wall_seconds", []).append(
            perf_counter() - t0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    snap = perf.snapshot()
    if snap:
        terminalreporter.write_line("")
        terminalreporter.write_line(perf.report(snap))
    # ``NV_PERF_JSON=path`` additionally dumps the session counter snapshot
    # as JSON — CI uploads this next to pytest-benchmark's timing JSON so a
    # run's work counters are archived alongside its wall-clock numbers.
    out = os.environ.get("NV_PERF_JSON")
    if out and snap:
        Path(out).write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n")
        terminalreporter.write_line(f"perf counter snapshot written to {out}")
    if REPORT_DIR:
        trace = Path(REPORT_DIR) / "bench_trace.jsonl"
        if trace.exists():
            from repro.report import generate

            mjson = Path(REPORT_DIR) / "bench_metrics.json"
            html = generate(trace,
                            metrics_path=mjson if mjson.exists() else None,
                            out_path=Path(REPORT_DIR) / "bench_report.html",
                            title="benchmark session")
            terminalreporter.write_line(f"HTML run report written to {html}")
    for path in _RECORD_PATHS:
        terminalreporter.write_line(f"RunRecord written to {path}")


@pytest.fixture(scope="session")
def networks_cache():
    """Parse/type-check cache shared across benchmarks in one session."""
    cache: dict[str, Network] = {}

    def get(source: str) -> Network:
        if source not in cache:
            cache[source] = load_network(source)
        return cache[source]

    return get
