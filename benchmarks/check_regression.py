#!/usr/bin/env python
"""CI perf-regression gate over observatory RunRecords.

Runs the deterministic quick-mode workloads of :mod:`repro.budgets`
(``--repeats`` times each, so the differ can min-of-N the wall clocks),
assembles one :class:`repro.observatory.RunRecord`, persists it to the
``.nv-runs/`` store, and diffs it against the committed baseline
``benchmarks/baselines/runrecord-object.json`` with the observatory's
noise-aware tolerances.  Counters regressing beyond tolerance fail the
gate (timings are printed but stay informational — CI runners are too
noisy to gate wall time).

This generalises ``benchmarks/check_budgets.py``: the same workloads and
the same counter-tolerance philosophy, but records are full RunRecords
(env fingerprint + timings + counters) in the same schema every benchmark
session and ``--record`` CLI run writes, so one ``repro runs diff`` works
across all three producers.

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

from repro import budgets, observatory  # noqa: E402

BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "runrecord-object.json"


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
            last = budgets.run_workload(name)
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
    """Run a small jobs=2 sharded simulation under the full observability
    stack and fold the parallel engine's accounting into ``record``:
    deterministic ``parallel.*`` counters (units through the pool, ledger
    coverage) join the gated set, and the work-ledger scheduling gauges
    (utilization, serialization bytes, LPT gap) ride along under the
    looser informational gauge tolerance."""
    import repro
    from repro import metrics, perf
    from repro.analysis.simulation import run_simulations
    from repro.topology import sp_program

    nets = [repro.load(sp_program(4, d)) for d in (0, 1, 2)]
    perf.reset()
    perf.enable()
    metrics.reset()
    metrics.enable()
    try:
        t0 = perf_counter()
        run_simulations(nets, jobs=2,
                        unit_labels=[f"prefix{d}" for d in (0, 1, 2)])
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

    workloads = args.workload or list(budgets.WORKLOADS)
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
    baseline = observatory.RunStore().load(args.baseline)

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
