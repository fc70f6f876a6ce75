#!/usr/bin/env python
"""PR 9 benchmark: modular (partitioned) vs monolithic SMT verification.

Measures, on the fig-12 shortest-path fat-tree family:

* monolithic ``verify`` vs ``verify_partitioned`` (pods cut, inferred
  interfaces) wall time per size, each cell the min over ``--runs``
  fresh-process runs;
* a budget row — the first size where the monolithic solver exceeds a
  10x multiple of the partitioned time (the monolithic run executes in a
  subprocess under ``timeout = 10 * partitioned_seconds`` and is recorded
  as DNF when it trips);
* shard scaling — the partitioned FAT(4) run at ``--jobs 1`` vs
  ``--jobs 2``, with the measured wall times, the worker-ledger
  utilization, and an LPT projection of the 2-worker speedup from the
  jobs=1 per-fragment spans (this container has 1 CPU, so the honest
  measured speedup is ~1x; the projection is what a 2-CPU host would
  see, following the PR 4 / PR 6 precedent).

Usage::

    python benchmarks/bench_partition.py --out BENCH_pr9.json \
        [--sizes 4,6] [--budget-size 8] [--runs 2] [--quick]

The script re-executes itself as a subprocess worker (``--worker``) so
every cell is a fresh process and the monolithic DNF row can be killed
by timeout without taking the harness down.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Any

from _timing import min_of as _min_of
from _timing import run_fresh


# ----------------------------------------------------------------------
# Subprocess worker: one measurement per process
# ----------------------------------------------------------------------

def _worker(mode: str, k: int, jobs: int, trace: str | None) -> None:
    import time

    from repro import obs
    from repro.analysis.partition import verify_partitioned
    from repro.analysis.verify import verify
    from repro.lang.parser import parse_program
    from repro.protocols import resolve
    from repro.srp.network import Network
    from repro.topology import fattree, sp_program

    net = Network.from_program(parse_program(sp_program(k, narrow=True),
                                             resolve))
    if trace:
        obs.enable(trace)
    t0 = time.perf_counter()
    if mode == "mono":
        result = verify(net)
        out = {"status": result.status,
               "clauses": result.smt.num_clauses}
    else:
        rep = verify_partitioned(net, method="pods", topo=fattree(k),
                                 jobs=jobs)
        out = {"status": rep.status,
               "fragments": len(rep.plan.fragments),
               "cut_edges": len(rep.plan.cut_edges),
               "escalated": rep.escalated}
    out["seconds"] = round(time.perf_counter() - t0, 3)
    if trace:
        obs.flush()
        obs.disable()
    print(json.dumps(out))


def _run_cell(mode: str, k: int, jobs: int = 1, timeout: float | None = None,
              trace: str | None = None) -> dict[str, Any] | None:
    """One fresh-process measurement; ``None`` on timeout (DNF).  The
    process/minimum protocol lives in :mod:`_timing`."""
    args = ["--worker", mode, "--k", str(k), "--jobs", str(jobs)]
    if trace:
        args += ["--trace", trace]
    return run_fresh(__file__, args, timeout=timeout)


# ----------------------------------------------------------------------
# Shard-scaling analysis from the jobs=1 trace
# ----------------------------------------------------------------------

def _scaling_row(runs: int) -> dict[str, Any]:
    from repro import critpath
    from repro.obs import load_trace

    row: dict[str, Any] = {}
    for jobs in (1, 2):
        cells = []
        trace_path = None
        for i in range(runs):
            with tempfile.NamedTemporaryFile(
                    suffix=f".j{jobs}.jsonl", delete=False) as fh:
                trace_path = fh.name
            cells.append(_run_cell("part", 4, jobs=jobs, trace=trace_path))
        cell = _min_of(cells)
        roots, _events = load_trace(trace_path)
        rep = critpath.analyze(roots)
        entry: dict[str, Any] = {
            "seconds": cell["seconds"], "runs": cell["runs"],
            "fragments": cell["fragments"],
        }
        if rep is not None:
            entry.update({
                "total_work_seconds": round(rep.total_work_seconds, 3),
                "efficiency_pct": round(rep.efficiency_pct, 1),
            })
            if rep.lpt_bound_seconds is not None:
                entry["lpt_bound_seconds"] = round(rep.lpt_bound_seconds, 3)
            if rep.lpt_gap_pct is not None:
                entry["lpt_gap_pct"] = round(rep.lpt_gap_pct, 1)
        # Per-unit spans drive the 2-lane LPT projection below.
        unit_durs: list[float] = []

        def walk(sp):
            if str(sp.name).endswith(".unit"):
                unit_durs.append(float(sp.dur))
            for c in sp.children:
                walk(c)

        for r in roots:
            walk(r)
        entry["unit_seconds"] = [round(d, 3) for d in sorted(unit_durs)]
        row[f"jobs{jobs}"] = entry
        os.unlink(trace_path)

    j1 = row["jobs1"]
    units = j1["unit_seconds"]
    if units:
        # LPT over 2 lanes on the measured jobs=1 fragment times.
        lanes = [0.0, 0.0]
        for d in sorted(units, reverse=True):
            lanes[lanes.index(min(lanes))] += d
        overhead = max(0.0, j1["seconds"] - sum(units))
        projected = max(lanes) + overhead
        row["projection_2cpu"] = {
            "method": "LPT-schedule the measured jobs=1 per-fragment unit "
                      "spans onto 2 lanes; non-unit overhead (encode/merge "
                      "in the parent) stays serial",
            "lpt_makespan_seconds": round(max(lanes), 3),
            "serial_overhead_seconds": round(overhead, 3),
            "projected_seconds": round(projected, 3),
            "projected_speedup": round(j1["seconds"] / projected, 2)
            if projected > 0 else None,
        }
    row["measured_speedup"] = (round(j1["seconds"] / row["jobs2"]["seconds"],
                                     2) if row["jobs2"]["seconds"] else None)
    return row


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write the BENCH json here")
    ap.add_argument("--sizes", default="4,6",
                    help="comma-separated SP(k) sizes for the mono-vs-part "
                         "table")
    ap.add_argument("--budget-size", type=int, default=8,
                    help="SP(k) size for the 10x-budget DNF row (0 skips)")
    ap.add_argument("--runs", type=int, default=2,
                    help="fresh-process runs per cell (min is reported)")
    ap.add_argument("--quick", action="store_true",
                    help="sizes=4, no budget row, 1 run (CI smoke)")
    ap.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    ap.add_argument("--k", type=int, default=4, help=argparse.SUPPRESS)
    ap.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    ap.add_argument("--trace", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        _worker(args.worker, args.k, args.jobs, args.trace)
        return 0

    if args.quick:
        sizes, runs, budget_size = [4], 1, 0
    else:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        runs, budget_size = args.runs, args.budget_size

    report: dict[str, Any] = {"rows": {}}
    print("modular-vs-monolithic benchmark (fig-12 SP(k), pods cut)")
    for k in sizes:
        part = _min_of([_run_cell("part", k, timeout=1800)
                        for _ in range(runs)])
        mono = _min_of([_run_cell("mono", k, timeout=1800)
                        for _ in range(runs)])
        assert part["status"] == mono["status"] == "verified", (part, mono)
        assert not part["escalated"]
        speedup = round(mono["seconds"] / part["seconds"], 2)
        report["rows"][f"SP{k}"] = {
            "monolithic_seconds": mono["seconds"],
            "monolithic_runs": mono["runs"],
            "monolithic_clauses": mono["clauses"],
            "partitioned_seconds": part["seconds"],
            "partitioned_runs": part["runs"],
            "fragments": part["fragments"],
            "cut_edges": part["cut_edges"],
            "speedup": speedup,
        }
        print(f"  SP({k}): mono {mono['seconds']}s  part {part['seconds']}s"
              f"  ({part['fragments']} fragments, {speedup}x)")

    if budget_size:
        k = budget_size
        part = _min_of([_run_cell("part", k, timeout=3600)
                        for _ in range(runs)])
        assert part["status"] == "verified" and not part["escalated"]
        budget = round(10 * part["seconds"], 1)
        mono = _run_cell("mono", k, timeout=budget)
        report["budget_row"] = {
            "size": f"SP{k}",
            "partitioned_seconds": part["seconds"],
            "partitioned_runs": part["runs"],
            "fragments": part["fragments"],
            "budget_seconds": budget,
            "monolithic": ("DNF" if mono is None
                           else {"seconds": mono["seconds"]}),
            "monolithic_within_budget": mono is not None,
        }
        print(f"  SP({k}): part {part['seconds']}s; mono "
              f"{'DNF at ' + str(budget) + 's budget' if mono is None else mono['seconds']}")

    print("  shard scaling (partitioned FAT/SP(4), jobs 1 vs 2)...")
    report["shard_scaling"] = _scaling_row(runs)
    sc = report["shard_scaling"]
    proj = sc.get("projection_2cpu", {})
    print(f"    jobs1 {sc['jobs1']['seconds']}s  jobs2 "
          f"{sc['jobs2']['seconds']}s  measured {sc['measured_speedup']}x  "
          f"projected-2cpu {proj.get('projected_speedup')}x")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
