#!/usr/bin/env python3
"""End-to-end benchmark: four paper workloads, timed from process start to
checked verdict, plus an outside-in layer trace.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one workload (the driver's contract); the last stdout line is
        {"correct", "attempted", "failed", "metrics"}: the end-to-end
        metrics with --trace 0, every per-layer metric with --trace 1.
    python3 benchmarks/e2e/run.py [--quick] [--seed N] [--seconds S] [--out F]
        all four workloads and their traced runs; prints every metric by
        name with its unit and writes the run JSON (raw samples included).
    python3 benchmarks/e2e/run.py compare A.json B.json
        per workload x end-to-end metric: medians, bound, verdict.

A *pass* is the workload's fixed list of ``python -m repro ...`` processes,
one at a time (closed loop, one client), tracing and every ``NV_*`` knob
off.  See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
WORK = HERE / ".work"

SCHEMA = "nv-bench-e2e/v1"
INVOCATION_TIMEOUT_S = 60.0
PROBE_REPEATS = 7

#: name, unit, better, bound (share of the parent's median), absolute slack
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, 0.2),
    ("pass_s", "s", "lower", 0.25, 0.0),
    ("cpu_s", "s", "lower", 0.25, 0.0),
    ("peak_rss_mb", "MB", "lower", 0.10, 0.0),
)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

def child_env(jobs: int) -> dict[str, str]:
    """The environment of every process under test: no ``NV_*`` knob
    survives from the caller; only ``NV_JOBS`` is set, per workload."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NV_")}
    env["NV_JOBS"] = str(jobs)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], cwd: Path, env: dict[str, str],
                capture: Path) -> dict:
    """Run one process to completion, its output going to ``capture``.out /
    .err.  Wall time is from spawn to reaped exit; CPU and peak RSS are the
    process's and its waited-for workers' (what ``wait4`` reports)."""
    out_path, err_path = capture.with_suffix(".out"), capture.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        # On a timeout the whole session goes, workers included.
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    rc = os.waitstatus_to_exitcode(status)
    proc.returncode = rc      # reaped here, not by Popen
    return {
        "rc": rc, "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "timed_out": rc == -signal.SIGKILL and wall >= INVOCATION_TIMEOUT_S,
        "stdout": out_path.read_text(), "stderr": err_path.read_text(),
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def generate_main(workload: str, seed: int, outdir: Path, quick: bool) -> int:
    """``--generate``: what one set-up does, in its own process — import
    the generators, draw from the seed, write the input files."""
    import workloads
    inputs = workloads.generate(workload, seed, outdir, quick)
    w = workloads.WORKLOADS[workload]
    with open(outdir / "inputs.json", "w") as fh:
        json.dump({
            "workload": workload, "seed": seed, "quick": quick,
            "jobs": w.jobs, "other_jobs": w.other_jobs,
            "family": w.family or w.name,
            "invocations": [{"id": i.id, "argv": list(i.argv),
                             "crosscheck": i.crosscheck}
                            for i in inputs.invocations],
            "facts": inputs.facts,
        }, fh)
    return 0


def set_up(workload: str, seed: int, outdir: Path, quick: bool) -> tuple[dict, float]:
    """One set-up: a fresh process generates the inputs into the fresh
    directory ``outdir``.  Returns what it wrote and its wall time."""
    outdir.mkdir()
    argv = [sys.executable, str(HERE / "run.py"), "--generate", workload,
            "--seed", str(seed), "--generate-out", str(outdir)]
    if quick:
        argv.append("--quick")
    r = run_process(argv, REPO, child_env(1), capture=outdir / "setup")
    if r["rc"] != 0:
        raise RuntimeError(f"input generation failed: {r['stderr'][-2000:]}")
    with open(outdir / "inputs.json") as fh:
        return json.load(fh), r["wall_s"]


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

@dataclass
class Loop:
    """What one closed loop measured."""

    inputs: dict                 # the last set-up's inputs.json
    indir: Path                  # ... and its directory
    setup_samples: list[float]
    passes: list[list[dict]]     # the last one may be cut short by the clock


def closed_loop(workload: str, seed: int, workdir: Path, quick: bool,
                seconds: float, jobs: int | None = None,
                max_passes: int | None = None) -> Loop:
    """One client, one process at a time.  Every pass starts from freshly
    generated inputs (so set-up is sampled across the whole window, not in
    one burst) and runs the workload's invocations in order; the loop
    stops before the first invocation that would not finish within
    ``seconds``, judged by its fastest run so far.  The first pass always
    completes.  ``jobs`` overrides the workload's ``NV_JOBS``."""
    loop = Loop({}, workdir, [], [])
    fastest: dict[str, float] = {}
    t0 = time.perf_counter()
    out_of_time = False
    while not out_of_time:
        n = len(loop.setup_samples)
        loop.indir = workdir / f"in{n}-j{jobs or 0}"
        loop.inputs, setup_s = set_up(workload, seed, loop.indir, quick)
        loop.setup_samples.append(setup_s)
        env = child_env(jobs or loop.inputs["jobs"])
        results: list[dict] = []
        for inv in loop.inputs["invocations"]:
            if loop.passes and (time.perf_counter() - t0
                                + fastest[inv["id"]]) > seconds:
                out_of_time = True
                break
            r = run_process([sys.executable, "-m", "repro", *inv["argv"]],
                            loop.indir, env,
                            capture=loop.indir / f"{inv['id']}.last")
            r["id"] = inv["id"]
            fastest[r["id"]] = min(r["wall_s"], fastest.get(r["id"], r["wall_s"]))
            results.append(r)
        if results:
            loop.passes.append(results)
        if max_passes is not None and len(loop.passes) >= max_passes:
            break
    return loop


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

def pass_totals(passes: list[list[dict]], key: str) -> list[float]:
    """Per complete pass, the sum of ``key`` over its invocations."""
    full = len(passes[0])
    return [sum(r[key] for r in p) for p in passes if len(p) == full]


def per_invocation(passes: list[list[dict]], key: str, pick=min) -> list[float]:
    return [pick(p[i][key] for p in passes if i < len(p))
            for i in range(len(passes[0]))]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def end_to_end(passes: list[list[dict]], setup_samples: list[float]) -> dict:
    """The end-to-end metrics of one run.

    Times are *fastest-of-N*: a pass' time is the sum over its invocations
    of that invocation's fastest run in the window, set-up is the fastest
    of its repeats.  On the shared 2-vCPU hosts this runs on, neighbours
    slow a CPU-bound process by up to 1.5x for seconds to minutes at a time
    (README, "Noise"); interference only ever adds time, so the minimum is
    the steadiest estimate of the program's own cost — over ten runs its
    spread is half the median's.  The median and inter-quartile range of
    the passes are kept as ``harness.pass_median_s`` / ``harness.pass_iqr_s``.
    Peak RSS is the largest of the invocations' median peaks."""
    return {
        "setup_s": min(setup_samples),
        "pass_s": sum(per_invocation(passes, "wall_s")),
        "cpu_s": sum(per_invocation(passes, "cpu_s")),
        "peak_rss_mb": max(per_invocation(passes, "rss_mb", statistics.median)),
    }


def check_passes(passes: list[list[dict]], inputs: dict, expected: dict,
                 default_seed: bool) -> list[str]:
    import checks
    failures = []
    for n, p in enumerate(passes):
        for r in p:
            for problem in checks.check_result(expected[r["id"]], r,
                                               inputs["facts"], default_seed):
                failures.append(f"pass {n} {r['id']}: {problem}")
    return failures


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

def traced_run(inputs: dict, indir: Path, workdir: Path, env: dict[str, str],
               expected: dict, default_seed: bool) -> tuple[list[dict], list[str]]:
    """Replay each input in-process in its own fresh traced child; returns
    the traces and the failures of the expected-file and reference checks."""
    import checks
    traces, failures = [], []
    for inv in inputs["invocations"]:
        out = workdir / f"trace-{inv['id']}.json"
        spec = {"argv": inv["argv"], "cwd": str(indir), "out": str(out),
                "crosscheck": inv["crosscheck"], "facts": inputs["facts"],
                "unsharded_fault": inputs["facts"].get("link_failures")}
        spec_path = workdir / f"trace-{inv['id']}.spec.json"
        spec_path.write_text(json.dumps(spec))
        r = run_process([sys.executable, str(HERE / "trace_child.py"),
                         str(spec_path)], indir, env,
                        capture=workdir / f"trace-{inv['id']}")
        if r["rc"] != 0 or not out.exists():
            raise RuntimeError(f"traced child for {inv['id']} failed: "
                               f"{r['stderr'][-2000:]}")
        with open(out) as fh:
            trace = json.load(fh)
        trace["id"] = inv["id"]
        traces.append(trace)
        for problem in checks.check_result(expected[inv["id"]], trace,
                                           inputs["facts"], default_seed):
            failures.append(f"traced {inv['id']}: {problem}")
        failures += [f"traced {inv['id']}: {p}"
                     for p in trace["crosscheck_failures"]]
    return traces, failures


def fresh_process_wall(code_or_args: list[str], workdir: Path,
                       repeats: int) -> tuple[float, str]:
    """Median wall of a fresh interpreter running the given arguments, and
    the last run's stdout."""
    walls, stdout = [], ""
    for _ in range(repeats):
        r = run_process([sys.executable, *code_or_args], REPO, child_env(1),
                        capture=workdir / "probe")
        if r["rc"] != 0:
            raise RuntimeError(f"probe {code_or_args} failed: {r['stderr'][-2000:]}")
        walls.append(r["wall_s"])
        stdout = r["stdout"]
    return statistics.median(walls), stdout


IMPORT_PROBE = ("import sys, repro.cli; "
                "print(sum(1 for m in sys.modules if m.split('.')[0] == 'repro'))")


def pool_roundtrip(repeats: int = 3) -> float:
    """``parallel.roundtrip_s``: a 2-worker pool doing nothing."""
    from repro import parallel
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        parallel.run_sharded("layers:noop_factory", None, [0, 1], jobs=2)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def layer_run(workload: str, seed: int, seconds: float, quick: bool,
              loop: Loop, e2e: dict, workdir: Path, expected: dict,
              default_seed: bool) -> tuple[dict, list[str], int]:
    """The traced half of a run: replay the inputs under the layer trace,
    probe the fixed costs, and (fault workloads) time the same file at the
    other job count.  Returns the record's trace fields, the failures and
    the number of invocations it added."""
    import layers

    inputs = loop.inputs
    traces, failures = traced_run(inputs, loop.indir, workdir,
                                  child_env(inputs["jobs"]), expected,
                                  default_seed)
    attempted = len(traces)
    per_layer = layers.from_traces(traces)
    probes = 3 if quick else PROBE_REPEATS
    import_s, modules = fresh_process_wall(["-c", IMPORT_PROBE], workdir, probes)
    # What every CLI process pays around its command: interpreter start,
    # the eager imports, the argument parser, exit.
    startup_s, _ = fresh_process_wall(["-m", "repro", "--help"], workdir, probes)
    overhead_s = startup_s * len(inputs["invocations"])
    totals = pass_totals(loop.passes, "wall_s")
    per_layer.update({
        "cli.import_s": import_s,
        "cli.import_modules": int(modules),
        "cli.overhead_s": overhead_s,
        # One traced sample against the typical (median) pass.
        "harness.trace_overhead_s":
            per_layer["harness.traced_pass_s"] + overhead_s
            - statistics.median(totals),
        "parallel.roundtrip_s": pool_roundtrip(),
        "parallel.speedup": 0.0,
        "parallel.cpu_inflation": 0.0,
        "harness.passes": len(loop.passes),
        "harness.pass_median_s": statistics.median(totals),
        "harness.pass_iqr_s": iqr(totals),
    })
    if inputs["other_jobs"]:
        other = closed_loop(workload, seed, workdir, quick, seconds / 3,
                            jobs=inputs["other_jobs"],
                            max_passes=1 if quick else None)
        failures += check_passes(other.passes, inputs, expected, default_seed)
        attempted += sum(len(p) for p in other.passes)
        o = end_to_end(other.passes, other.setup_samples)
        j1, j2 = (e2e, o) if inputs["jobs"] == 1 else (o, e2e)
        per_layer["parallel.speedup"] = j1["pass_s"] / j2["pass_s"]
        per_layer["parallel.cpu_inflation"] = j2["cpu_s"] / j1["cpu_s"]
    fields = {
        "per_layer": per_layer,
        "layer_self_s": layers.layer_self_times(traces),
        "inputs": [{"id": t["id"], "engine_hint": t["engine_hint"],
                    "spans": t["spans"], "per_layer": layers.from_traces([t])}
                   for t in traces],
    }
    return fields, failures, attempted


def measure(workload: str, seed: int, seconds: float, quick: bool,
            trace: bool) -> dict:
    """Run the closed loop, check every verdict and (``trace``) replay the
    inputs under the layer trace.  Returns the run record."""
    import checks
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        loop = closed_loop(workload, seed, workdir, quick, seconds,
                           max_passes=1 if quick else None)
        inputs, passes = loop.inputs, loop.passes
        expected = checks.load_expected(quick)[inputs["family"]]
        default_seed = seed == workloads.DEFAULT_SEED
        failures = check_passes(passes, inputs, expected, default_seed)
        attempted = sum(len(p) for p in passes)
        e2e = end_to_end(passes, loop.setup_samples)
        record = {
            "workload": workload, "seed": seed, "quick": quick,
            "seconds": seconds, "jobs": inputs["jobs"],
            "end_to_end": e2e, "setup_samples": loop.setup_samples,
            "passes": [[{k: r[k] for k in ("id", "rc", "wall_s", "cpu_s",
                                           "rss_mb", "timed_out")}
                        for r in p] for p in passes],
        }
        if trace:
            fields, trace_failures, replayed = layer_run(
                workload, seed, seconds, quick, loop, e2e, workdir, expected,
                default_seed)
            record.update(fields)
            failures += trace_failures
            attempted += replayed
        record.update(attempted=attempted, failed=len(failures),
                      failures=failures)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def metric_units() -> dict[str, str]:
    import layers
    units = {name: unit for name, unit, *_ in END_TO_END}
    units.update({m.name: m.unit for m in layers.LAYER_METRICS})
    units["fail_share"] = "ratio"
    return units


def print_record(record: dict) -> None:
    units = metric_units()
    w = record["workload"]
    rows = dict(record["end_to_end"])
    rows["fail_share"] = record["failed"] / record["attempted"]
    rows.update(record.get("per_layer", {}))
    for name, value in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{w:14s} {name:32s} {shown:>14s} {units[name]}")
    for failure in record["failures"]:
        print(f"{w:14s} FAILED {failure}")


def result_line(record: dict, trace: bool) -> str:
    units = metric_units()
    values = record["per_layer"] if trace else record["end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    })


def fingerprint(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    from repro import bdd
    bdd.make_manager()
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "engine_hint": bdd.engine_hint(),
            "seed": seed, "platform": platform.platform()}


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: the median over each file's runs
    (A the parent, B the change; ``--repeat N`` puts N runs in a file), the
    bound, and ``ok / worse / better / unresolved``.  ``unresolved``: a
    side's inter-quartile range over its runs exceeds the bound, and B is
    not better than A on every run.  Exit 1 unless every row is ok or
    better and every exact count repeats."""
    import layers
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    bad = 0
    print(f"{'workload':14s} {'metric':12s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict  [unit]  runs A/B")
    workloads_ = sorted({r["workload"] for r in a["runs"]}
                        & {r["workload"] for r in b["runs"]})
    for w in workloads_:
        for name, unit, better, bound, slack in END_TO_END:
            va, vb = ([r["end_to_end"][name] for r in x["runs"]
                       if r["workload"] == w] for x in (a, b))
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1.0 if better == "lower" else -1.0
            change = sign * (mb - ma) / ma
            noisy = max(iqr(va) / ma, iqr(vb) / mb) > bound
            all_better = (max(vb) < min(va)) if better == "lower" \
                else (min(vb) > max(va))
            if noisy and not all_better:
                verdict = "unresolved"
            elif change > bound and sign * (mb - ma) > slack:
                verdict = "worse"
            elif change < -bound or (noisy and all_better):
                verdict = "better"
            else:
                verdict = "ok"
            bad += verdict in ("worse", "unresolved")
            print(f"{w:14s} {name:12s} {ma:12.4f} {mb:12.4f} "
                  f"{change:+8.1%} {bound:6.0%}  {verdict}  [{unit}]  "
                  f"{len(va)}/{len(vb)}")
        layer_a = [r["per_layer"] for r in a["runs"]
                   if r["workload"] == w and "per_layer" in r]
        layer_b = [r["per_layer"] for r in b["runs"]
                   if r["workload"] == w and "per_layer" in r]
        for m in layers.LAYER_METRICS:
            if not m.exact or not layer_a or not layer_b:
                continue
            seen = {x[m.name] for x in layer_a + layer_b}
            if len(seen) > 1:
                bad += 1
                print(f"{w:14s} {m.name:32s} count does not repeat: "
                      f"{sorted(seen)}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=20200615)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="k=4 / WAN-20 inputs, one pass per workload")
    ap.add_argument("--repeat", type=int, default=1,
                    help="all-workloads mode: run the whole set this many times")
    ap.add_argument("--out", default="bench-e2e.json",
                    help="all-workloads mode: where to write the run JSON")
    ap.add_argument("--generate", metavar="WORKLOAD", help=argparse.SUPPRESS)
    ap.add_argument("--generate-out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.generate:
        return generate_main(args.generate, args.seed,
                             Path(args.generate_out), args.quick)

    import workloads
    if args.seconds is None:
        with open(REPO / "BENCHMARK.json") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    # Build step: byte-compile once so no timed process pays for it.
    compileall.compile_dir(str(SRC / "repro"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)

    if args.workload:
        if args.workload not in workloads.WORKLOADS:
            print(f"run.py: unknown workload {args.workload!r}; one of "
                  f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        record = measure(args.workload, args.seed, args.seconds, args.quick,
                         bool(args.trace))
        print_record(record)
        print(result_line(record, bool(args.trace)))
        return 0

    runs = []
    for _ in range(args.repeat):
        for name in workloads.WORKLOADS:
            record = measure(name, args.seed, args.seconds, args.quick, True)
            print_record(record)
            runs.append(record)
    with open(args.out, "w") as fh:
        json.dump({"schema": SCHEMA, "fingerprint": fingerprint(args.seed),
                   "runs": runs}, fh)
    print(f"wrote {args.out}")
    return 1 if any(r["failed"] for r in runs) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
