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


@pytest.fixture(autouse=True)
def bench_span(request):
    """One span per benchmark test so the report's flame chart groups the
    session by figure/case."""
    if not REPORT_DIR:
        yield
        return
    with obs.span(f"bench.{request.node.name}"):
        yield


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


@pytest.fixture(scope="session")
def networks_cache():
    """Parse/type-check cache shared across benchmarks in one session."""
    cache: dict[str, Network] = {}

    def get(source: str) -> Network:
        if source not in cache:
            cache[source] = load_network(source)
        return cache[source]

    return get
