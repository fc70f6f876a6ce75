#!/usr/bin/env python
"""CI perf-regression gate over observatory RunRecords — the repo's one
counter gate.

Wall-clock benchmarks are too noisy for CI to gate on, but the *work
counters* of :mod:`repro.perf` — activations, messages, memo hits, BDD
op-cache misses, SAT conflicts — are deterministic for a fixed workload.
A semantic regression (a memo cache silently disabled, an extra re-merge,
a simplification pass dropped) moves them by orders of magnitude even when
wall-clock noise hides it.

Runs the deterministic quick-mode workloads below (``--repeats`` times
each, so the differ can min-of-N the wall clocks), assembles one
:class:`repro.observatory.RunRecord`, persists it to the ``.nv-runs/``
store, and diffs it against the committed baseline
``benchmarks/baselines/runrecord-object.json`` with the observatory's
noise-aware tolerances.  Counters regressing beyond tolerance fail the
gate (timings are printed but stay informational — CI runners are too
noisy to gate wall time).  ``--workload`` / ``--no-parallel-probe`` narrow
the comparison to what was measured.  Records are in the same schema every
benchmark session and ``--record`` CLI run writes, so one ``repro runs
diff`` works across all three producers.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py            # gate
    PYTHONPATH=src python benchmarks/check_regression.py --update   # rebase
    PYTHONPATH=src python benchmarks/check_regression.py \\
        --inject-counter-inflation 20                               # red-proof
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from time import perf_counter  # noqa: E402
from typing import Callable  # noqa: E402

from repro import observatory, perf  # noqa: E402

BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "runrecord-object.json"


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

_RIP_TRIANGLE = """
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


def _load(source: str):
    from repro.lang.parser import parse_program
    from repro.protocols import resolve
    from repro.srp.network import Network
    return Network.from_program(parse_program(source, resolve))


def _wl_simulate(source_fn: Callable[[], str], backend: str,
                 ablations: frozenset[str]) -> None:
    from repro.srp.network import functions_from_program
    from repro.srp.simulate import simulate

    net = _load(source_fn())
    if backend == "native":
        from repro.eval.compile_py import compile_network_functions
        funcs = compile_network_functions(net)
    else:
        funcs = functions_from_program(net)
    simulate(funcs, memoize="sim-memo" not in ablations)
    if funcs.ctx is not None:
        perf.merge(funcs.ctx.manager.stats(), prefix="bdd.")


def _wl_fault(source_fn: Callable[[], str], failures: int,
              ablations: frozenset[str]) -> None:
    from repro.analysis.fault import fault_tolerance_analysis

    fault_tolerance_analysis(_load(source_fn()), num_link_failures=failures)


def _wl_verify(source_fn: Callable[[], str],
               ablations: frozenset[str]) -> None:
    from repro.analysis.verify import verify

    verify(_load(source_fn()), simplify="no-simplify" not in ablations)


def _fig14_source() -> str:
    from repro.topology import all_prefixes_program
    return all_prefixes_program(4, "sp")


def _fattree_sp_source() -> str:
    from repro.topology import sp_program
    return sp_program(4)


#: name -> runnable(ablations).  Every workload is the smallest (quick-mode)
#: instance of one evaluation figure, so the whole suite runs in seconds.
#: The ablations ("sim-memo", "no-simplify") switch an optimisation off, so
#: a test can prove the gate trips.
WORKLOADS: dict[str, Callable[[frozenset[str]], None]] = {
    "rip_triangle_sim":
        lambda abl: _wl_simulate(lambda: _RIP_TRIANGLE, "interp", abl),
    "fig14_sim_interp_k4":
        lambda abl: _wl_simulate(_fig14_source, "interp", abl),
    "fig14_sim_native_k4":
        lambda abl: _wl_simulate(_fig14_source, "native", abl),
    "fig13b_fault_fattree4_1link":
        lambda abl: _wl_fault(_fattree_sp_source, 1, abl),
    "fig12_verify_triangle":
        lambda abl: _wl_verify(lambda: _RIP_TRIANGLE, abl),
}


def run_workload(name: str,
                 ablations: frozenset[str] = frozenset()) -> dict[str, int]:
    """Run one workload under an isolated perf registry; return its integer
    counters (timers are dropped — they are non-deterministic)."""
    fn = WORKLOADS[name]
    with perf.enabled():
        before = perf.snapshot()
        fn(ablations)
        after = perf.snapshot()
    return {k: int(v - before.get(k, 0)) for k, v in after.items()
            if isinstance(v, int) and v != before.get(k, 0)}


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------


def measure(workloads: list[str], repeats: int,
            label: str) -> observatory.RunRecord:
    """Run each workload ``repeats`` times; counters (deterministic) come
    from the last repeat, wall clocks from every repeat."""
    timings: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    for name in workloads:
        walls: list[float] = []
        last: dict[str, int] = {}
        for _ in range(repeats):
            t0 = perf_counter()
            last = run_workload(name)
            walls.append(perf_counter() - t0)
        timings[f"{name}.wall_seconds"] = walls
        counters.update({f"{name}.{c}": v for c, v in last.items()})
    created = time.time()
    return observatory.RunRecord(
        run_id=observatory.new_run_id(label, created),
        label=label, created=created,
        env=observatory.env_fingerprint(),
        timings=timings, counters=counters,
        meta={"harness": "check_regression",
              "workloads": workloads, "repeats": repeats})


def parallel_probe(record: observatory.RunRecord) -> None:
    """Run a small jobs=2 sharded per-prefix fault analysis (fig 13c) under
    the full observability stack and fold the parallel engine's accounting
    into ``record``:
    deterministic ``parallel.*`` counters (units through the pool, ledger
    coverage) join the gated set, and the work-ledger scheduling gauges
    (utilization, serialization bytes, LPT gap) ride along under the
    looser informational gauge tolerance."""
    import repro
    from repro import metrics
    from repro.analysis.fault import per_prefix_fault_tolerance
    from repro.topology import sp_program

    nets = [repro.load(sp_program(4, d)) for d in (0, 1, 2)]
    perf.reset()
    perf.enable()
    metrics.reset()
    metrics.enable()
    try:
        t0 = perf_counter()
        per_prefix_fault_tolerance(
            nets, jobs=2, unit_labels=[f"prefix{d}" for d in (0, 1, 2)])
        wall = perf_counter() - t0
        snap = perf.snapshot()
        gauges, _hists = metrics.sample()
    finally:
        perf.disable()
        perf.reset()
        metrics.disable()
        metrics.reset()
    record.timings["parallel_probe.wall_seconds"] = [wall]
    record.counters.update(
        {name: int(v) for name, v in snap.items()
         if name.startswith("parallel.") and isinstance(v, int)})
    record.gauges.update(
        {name: float(v) for name, v in gauges.items()
         if name.startswith("parallel.") and not name.endswith("_seconds")})
    record.meta["parallel_probe"] = {"nets": len(nets), "jobs": 2}


def measured_part(baseline: observatory.RunRecord, workloads: list[str],
                  probe: bool) -> observatory.RunRecord:
    """``baseline`` cut down to what this run measured: the metrics of
    ``workloads``, plus the parallel probe's when it ran.  A baseline
    workload the run left out is not ``gone``."""
    prefixes = tuple(f"{name}." for name in workloads)
    if probe:
        prefixes += ("parallel.", "parallel_probe.")
    for kind in ("timings", "counters", "gauges"):
        setattr(baseline, kind, {name: v for name, v
                                 in getattr(baseline, kind).items()
                                 if name.startswith(prefixes)})
    return baseline


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record the deterministic workloads as a RunRecord and "
                    "diff it against the committed baseline.")
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        metavar="FILE",
                        help="baseline RunRecord (default: benchmarks/"
                             "baselines/runrecord-object.json)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    parser.add_argument("--workload", action="append", default=None,
                        help="limit to named workloads (repeatable)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="wall-clock repeats per workload (default 3)")
    parser.add_argument("--label", default="regress",
                        help="RunRecord label (default: regress)")
    parser.add_argument("--runs-dir", default=None, metavar="DIR",
                        help="also persist the record to this run store "
                             "(default: $NV_RUNS_DIR, else .nv-runs/)")
    parser.add_argument("--no-store", action="store_true",
                        help="do not persist the record to the run store")
    parser.add_argument("--no-parallel-probe", action="store_true",
                        help="skip the jobs=2 sharded probe (its "
                             "parallel.* counters and ledger gauges)")
    parser.add_argument("--inject-counter-inflation", type=float, default=0.0,
                        metavar="PCT",
                        help="inflate every measured counter by PCT%% before "
                             "diffing — proves the gate goes red (CI runs "
                             "this expecting exit 1)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the comparison result as JSON")
    args = parser.parse_args(argv)

    workloads = args.workload or list(WORKLOADS)
    record = measure(workloads, max(1, args.repeats), args.label)
    if not args.no_parallel_probe:
        parallel_probe(record)

    if args.inject_counter_inflation:
        factor = 1.0 + args.inject_counter_inflation / 100.0
        record.counters = {name: int(round(v * factor))
                           for name, v in record.counters.items()}
        record.meta["injected_counter_inflation_pct"] = (
            args.inject_counter_inflation)

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(
            json.dumps(record.to_dict(), indent=2, sort_keys=True,
                       default=repr) + "\n")
        print(f"wrote baseline {args.baseline} "
              f"({len(record.counters)} counters, "
              f"{len(record.timings)} timings)")
        return 0

    if not args.no_store:
        store = observatory.RunStore(args.runs_dir)
        print(f"RunRecord written to {store.save(record)}")

    if not args.baseline.is_file():
        print(f"no baseline at {args.baseline}; bootstrap with --update",
              file=sys.stderr)
        return 2
    baseline = measured_part(observatory.RunStore().load(args.baseline),
                             workloads, probe=not args.no_parallel_probe)

    deltas = observatory.diff_records(baseline, record)
    gated = observatory.regressions(deltas)
    print(f"baseline: {baseline.run_id}")
    print(observatory.diff_table(deltas, only_interesting=True))
    if args.json:
        Path(args.json).write_text(json.dumps({
            "baseline": baseline.run_id,
            "run": record.run_id,
            "gated_regressions": len(gated),
            "deltas": [{"kind": d.kind, "name": d.name, "a": d.a,
                        "b": d.b, "status": d.status} for d in deltas
                       if d.status != "ok"],
        }, indent=2) + "\n")
    if gated:
        print(f"\nperf regression gate FAILED: {len(gated)} counters "
              "regressed beyond tolerance (see table above). If the change "
              "is intentional, rebase with --update.", file=sys.stderr)
        return 1
    n_counters = sum(1 for d in deltas if d.kind == "counter")
    print(f"\nperf regression gate passed "
          f"({n_counters} counters within tolerance).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
