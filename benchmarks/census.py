"""Function-level reachability census over ``src/repro``.

Runs what this repository runs — the end-to-end benchmark's eight
invocations, a sweep over every CLI sub-command and flag, the contract-error
paths, fig 13c's sharded mode, ``python -m repro._struct --check`` and the
``examples/`` scripts — with a trace hook that records every function
entered, in this process and in every pool worker it forks.  Prints one
table: each top-level function or method under ``src/repro`` (the generated
``_records.py`` files excepted) and the first scenario that reached it.

    python benchmarks/census.py                  # the table and a summary
    python benchmarks/census.py --check          # exit 1 on an unreached
                                                 # function not kept

``benchmarks/census_keep.txt`` lists the functions no scenario reaches that
stay anyway, each with its reason: ``<prefix>  <reason>`` per line, where a
prefix is ``path:Qual.name``, a class ``path:Class``, a module ``path`` or a
package directory, with ``path`` relative to ``src/`` (shell wildcards
allowed).  ``--check`` fails
on an unreached function that no entry covers, and on an entry that covers
nothing unreached.

Inputs are the quick-mode sizes; a function reached only at full size
needs a keep-list entry that says so.  Workers are traced from here: the
trace hook survives ``fork``, and a ``multiprocessing`` after-fork hook
makes each worker write what it reached when it exits or is terminated.
A signal handler is invisible: Python usually runs it inside the trace hook,
where nothing is traced.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import multiprocessing
import os
import runpy
import signal
import sys
import tempfile
import threading
import time
from fnmatch import fnmatchcase
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
KEEP = Path(__file__).resolve().parent / "census_keep.txt"
SEED = 20200615


# ----------------------------------------------------------------------
# The universe: every top-level function and method under src/repro
# ----------------------------------------------------------------------

def functions(root: Path = SRC) -> dict[str, int]:
    """``"repro/mod.py:Qual.name"`` -> its line count, for every function
    or method not nested in another function."""
    out: dict[str, int] = {}

    def walk(node: ast.AST, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{rel}:{prefix}{child.name}"
                out[key] = out.get(key, 0) + child.end_lineno - child.lineno + 1
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, f"{prefix}{child.name}.")
            elif not isinstance(child, ast.Lambda):
                walk(child, rel, prefix)

    for path in sorted((root / "repro").rglob("*.py")):
        if path.name == "_records.py":
            continue
        rel = path.relative_to(root).as_posix()
        walk(ast.parse(path.read_text(), str(path)), rel, "")
    return out


# ----------------------------------------------------------------------
# The hook: code objects entered, here and in forked workers
# ----------------------------------------------------------------------

class Recorder:
    """Collects the code objects of every Python frame entered while
    installed.  A forked worker inherits the hook and writes its own set to
    ``dump_dir`` at exit; :meth:`take` folds those files in."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = dump_dir
        self.seen: set = set()
        self.prefix = str(SRC / "repro") + os.sep
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _hook(self, frame, event, arg):
        self.seen.add(frame.f_code)

    def install(self) -> None:
        threading.settrace(self._hook)
        sys.settrace(self._hook)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def _keys(self) -> set[str]:
        """The keys entered so far; threads still running (a worker's
        flusher, a queue feeder) may add to ``seen`` meanwhile, and
        ``list`` copies it without letting them in."""
        codes, self.seen = list(self.seen), set()
        return {f"{Path(c.co_filename).relative_to(SRC).as_posix()}:{c.co_qualname}"
                for c in codes if c.co_filename.startswith(self.prefix)}

    def _after_fork(self) -> None:
        self.seen = set()
        mp_util.Finalize(None, self._dump, exitpriority=0)
        # A terminated worker (a race loser, a pool torn down after an
        # error) dumps too.
        signal.signal(signal.SIGTERM, self._terminated)

    def _terminated(self, signum, frame) -> None:
        self._dump()
        os._exit(1)

    def _dump(self) -> None:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)   # one dump a worker
        sys.settrace(None)
        path = self.dump_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(sorted(self._keys())))
        os.replace(tmp, path)

    def take(self) -> set[str]:
        """Keys reached since the previous call, workers included (after
        every worker still running has exited)."""
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        keys = self._keys()
        for dump in self.dump_dir.glob("worker-*.json"):
            keys.update(json.loads(dump.read_text()))
            dump.unlink()
        return keys


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

#: A scenario: a label and what to run.  What it returns (scenarios or
#: None) runs next.
Scenario = Callable[[], "list[Scenario] | None"]


def call(label: str, fn: Scenario) -> Scenario:
    def run():
        return fn()
    run.label = label
    return run


def fast_heartbeat(scenario: Scenario) -> Scenario:
    """``scenario`` with the ``--progress`` heartbeat sampling every 10 ms,
    so a sample surely lands inside a solve: ``SatSolver.live_gauges`` is a
    metrics provider only while a solve runs, and at the default period of
    one second whether a sample lands there depends on the host's speed."""
    def run() -> None:
        from repro import heartbeat
        period, heartbeat.PERIOD_SECONDS = heartbeat.PERIOD_SECONDS, 0.01
        try:
            scenario()
        finally:
            heartbeat.PERIOD_SECONDS = period
    return call(scenario.label + "  [heartbeat every 0.01 s]", run)


def cli(argv: list[str], jobs: int | str = 1, cwd: str = ".",
        label: str | None = None) -> Scenario:
    def run() -> None:
        from repro import cli as repro_cli
        os.environ["NV_JOBS"] = str(jobs)
        os.chdir(cwd)
        with contextlib.suppress(SystemExit):
            repro_cli.main(list(argv))
    jobs_note = f"  [NV_JOBS={jobs}]" if jobs != 1 else ""
    return call(label or "repro " + " ".join(argv) + jobs_note, run)


def e2e_scenarios(work: Path) -> list[Scenario]:
    """The generation of the benchmark's inputs (quick sizes), each followed
    by its invocations at every workload's job count: eight invocations,
    one of them at two job counts."""
    sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
    import workloads

    def generate(family: str) -> list[Scenario]:
        (work / family).mkdir()
        inputs = workloads.generate(family, SEED, work / family, quick=True)
        return [cli(inv.argv, w.jobs, family, f"e2e {w.name}: {inv.id}")
                for w in workloads.WORKLOADS.values()
                if (w.family or w.name) == family
                for inv in inputs.invocations]

    return [call(f"e2e inputs: workloads.generate({name!r})",
                 lambda name=name: generate(name))
            for name, w in workloads.WORKLOADS.items()
            if (w.family or name) == name]


def sweep_inputs(work: Path) -> None:
    """Small programs the sweep reads, next to the e2e inputs."""
    from repro.topology import (fat_program, leaf_nodes, sp_program,
                                uscarrier_like, wan_program)

    files = {
        "fat4.nv": fat_program(4, narrow=True),
        "wan8.nv": wan_program(uscarrier_like(8, 10)),
        **{f"p{i}.nv": sp_program(2, dest=d, narrow=True)
           for i, d in enumerate([*leaf_nodes(2), 4])},
        "sym.nv": SYMBOLIC_PROGRAM,
        "int.nv": INT_PROGRAM,
        "mapite.nv": MAPITE_PROGRAM,
        "badedge.nv": NOT_AN_EDGE_PROGRAM,
        "symkey.nv": SYMBOLIC_KEY_WRITE_PROGRAM,
        "bad.nv": "let x = )\n",
        "latin1.nv": "",
    }
    files.update((f"ill{i}.nv", text) for i, text in enumerate(ILL_TYPED))
    for name, text in files.items():
        (work / name).write_text(text)
    (work / "latin1.nv").write_bytes(b"let nodes = 2 // \xe9\n")
    (work / "empty").mkdir(exist_ok=True)
    (work / "ospf").mkdir(exist_ok=True)
    for router, text in OSPF_CONFIGS.items():
        (work / "ospf" / f"{router}.cfg").write_text(text)
    (work / "cuts.json").write_text(json.dumps(
        {"fragments": [[0, 1], [2, 3]],
         "interfaces": {"1->2": "infer", "2->1": {"pred": "fun r -> true"}}}))
    (work / "links.json").write_text(json.dumps(
        {"cut_links": [[1, 2]], "interfaces": {"1->2": {"route": "Some 1u8"}}}))
    (work / "symkey.json").write_text(json.dumps(
        {"fragments": [[0], [1]],
         "interfaces": {"0->1": {"pred": "fun r -> true"},
                        "1->0": {"pred": "fun r -> true"}}}))


#: RIP with a symbolic origin: ``--symbolic``, counterexamples, routes.
SYMBOLIC_PROGRAM = """
include rip
let nodes = 4
let edges = {0n=1n; 1n=2n; 2n=3n}
symbolic start : option[int8]
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then start else None
let assert (u : node) (x : option[int8]) =
  match x with
  | None -> false
  | Some n -> 16u8 - n <= 16u8
"""

#: Two OSPF routers: wildcard network statements.
OSPF_CONFIGS = {
    "a": """
interface E0
 ip address 10.0.0.1/30
interface Loop0
 ip address 192.168.10.0/24
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 network 192.168.10.0 0.0.0.255 area 0
""",
    "b": """
interface E0
 ip address 10.0.0.2/30
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
""",
}

#: Shortest paths without an option attribute: ``fault`` needs ``--drop``.
INT_PROGRAM = """
let nodes = 3
let edges = {0n=1n; 1n=2n; 0n=2n}
let trans e x = x + 1
let merge u x y = if x < y then x else y
let init (u : node) = if u = 0n then 0 else 99
let assert (u : node) (x : int) = x < 99
"""


#: Key predicates over arithmetic, tuples, options, records and edges read
#: through their endpoints: the symbolic evaluator's leaf algebra.  Comments
#: exercise the lexer.
MAPITE_PROGRAM = """
(* a block comment (* nested *) *)
type flag = {id : int3; on : bool}
let nodes = 2
let edges = {0n=1n}
let limit = 6u4
let lower k = k - 1u4
let pick k = if k < 2u4 then k + 3u4 else lower k
let big k = (if k < 8u4 then 1u4 else 2u4) = 1u4
let pred = fun k -> match (k, pick k) with
  | (0u4, _) -> false
  | (a, b) -> b <= limit && !(a = 9u4)
let pair = fun k -> let (a, b) = k in b && a < 3u4
let opt = fun k -> k = Some 1u3 || (match k with | None -> false | Some v -> v < 2u3)
let rec = fun (k : flag) -> match k with
  | {id = 0u3; on = _} -> false
  | {id = i; on = true} -> i > 1u3
  | _ -> false
let ends = fun (k : edge) -> let (a, b) = k in a = 0n && b = 1n
let init (u : node) =
  let m = mapIte pred (fun v -> v + 1u8) (fun v -> v) (createDict 0u8) in
  let q = mapIte ends (fun v -> v + 1u8) (fun v -> v) (createDict 0u8) in
  let n = mapIte pair (fun v -> v + 2u8) (fun v -> v) (createDict 0u8) in
  let o = mapIte opt (fun v -> v + 4u8) (fun v -> v) (createDict 0u8) in
  let r = mapIte rec (fun v -> v + 8u8) (fun v -> v) (createDict 0u8) in
  let s = mapIte big (fun v -> v) (fun v -> v + 1u8) (createDict 0u8) in
  let t = (u, 0u8) in
  match (u, true) with
  | (1n, false) -> 0u8
  | _ -> m[1u4] + n[(2u4, true)] + o[Some 1u3] + r[{id = 2u3; on = true}]
         + s[9u4] + t.1 + q[(0n, 1n)]
let trans e x = let (a, b) = e in if a = b then 0u8 else x
let merge u x y = if x < y then y else x
let assert (u : node) (x : int8) = x < 32u8
"""

#: One type error each: the checker's messages print the types involved.
#: Then programs that type-check but cannot run: map keys with no bit
#: layout, a map operation inside a key predicate.
ILL_TYPED = [
    "let nodes = 2\nlet edges = {0n=1n}\nlet f (e : edge) = e = 0n\n",
    "let f x = x\nlet g = f + 1\n",
    "let t = (1, true) + 1\n",
    *[f"""
let nodes = 1
let edges = {{}}
let init (u : node) = {init}
let trans e x = x
let merge u x y = x
""" for init in (
        "let m : dict[dict[int2, bool], bool] = createDict false in m[createDict true]",
        "let m : dict[int2 -> int2, bool] = createDict false in 0",
        "let m = mapIte (fun k -> (createDict true)[k]) (fun v -> v) (fun v -> v) "
        "(createDict 0u8) in m[1u2]")],
]

#: Indexes an edge-keyed map by a pair that is not an edge.
NOT_AN_EDGE_PROGRAM = """
type attribute = dict[edge, option[int8]]
let nodes = 3
let edges = {0n=1n; 1n=2n}
let init (u : node) =
  let m : attribute = createDict None in
  if u = 0n then m[(0n, 2n) := Some 0u8] else m
let trans (e : edge) (x : attribute) = x
let merge (u : node) (x y : attribute) = x
"""

#: Parses and type-checks; fails only where node 1 is encoded for SMT: in a
#: pool worker, at two workers, under ``symkey.json``'s annotated cut.
SYMBOLIC_KEY_WRITE_PROGRAM = """
symbolic k : int8
let nodes = 2
let edges = {0n=1n}
let init (u : node) =
  if u = 0n then 0u8 else ((createDict 0u8)[k := 9u8])[2u8]
let trans (e : edge) (x : int8) = x
let merge (u : node) (x y : int8) = if x < y then x else y
"""


def sweep_scenarios(work: Path) -> list[Scenario]:
    """Every sub-command and flag, the pool at two workers, and the
    contract errors."""
    trace, ptrace = "t.jsonl", "pt.jsonl"
    sim, par = "fault_wan/wan.nv", ["p0.nv", "p1.nv", "p2.nv"]
    return [
        call("census inputs", lambda: sweep_inputs(work)),
        cli(["--help"]),
        cli([]),
        # simulate
        cli(["simulate", "fat4.nv", "--show-routes", "--max-nodes", "3"]),
        cli(["simulate", "sym.nv", "--symbolic", "start=Some 3u8", "--native",
             "--show-routes"]),
        cli(["simulate", "sym.nv", "--symbolic", "start=None"]),
        cli(["simulate", "--lower", "--trace", "fat4.nv"]),
        *[cli(["simulate", *mode, "mapite.nv"])
          for mode in ([], ["--native", "--trace-json", "mn.jsonl"],
                       ["--lower"])],
        cli(["simulate", *par, "--stats"], jobs=2),
        cli(["simulate", sim, "--stats", "--trace", "--trace-json", trace,
             "--progress"]),
        # explain
        cli(["explain", "fat4.nv", "3", "--stats"]),
        cli(["explain", "sym.nv", "2", "--native", "--symbolic",
             "start=Some 1u8"]),
        # verify
        cli(["verify", "sym.nv", "--show-routes", "--stats"]),
        cli(["verify", "sym.nv", "--max-conflicts", "0"]),
        fast_heartbeat(cli(["verify", "verify_smt/wan_unsat.nv",
                            "--progress"])),
        cli(["verify", *par, "--stats"]),
        cli(["verify", "verify_smt/wan_unsat.nv", "verify_smt/wan_sat.nv"]),
        cli(["verify", "fat4.nv", "--partition", "4", "--stats"]),
        cli(["verify", "fat4.nv", "--partition", "4", "--trace-json", ptrace,
             "--stats"], jobs=2),
        cli(["verify", "fat4.nv", "--partition", "4", "--progress"], jobs=2),
        *[cli(["verify", "fat4.nv", "--partition", "2", "--partition-method",
               m]) for m in ("auto", "pods", "bfs", "spectral")],
        *[cli(["verify", "sym.nv", "--cuts", cuts, "--symbolic",
               "start=Some 1u8"]) for cuts in ("cuts.json", "links.json")],
        cli(["verify", "sym.nv", "--partition", "2", "--symbolic",
             "start=Some 1u8", "--show-routes"]),
        # fault
        cli(["fault", sim, "--links", "2", "--witnesses", "--stats"]),
        cli(["fault", "wan8.nv", "--links", "1", "--nodes"]),
        cli(["fault", "wan8.nv", "--links", "0", "--nodes", "--symbolic",
             "x=1"]),
        cli(["fault", "int.nv", "--links", "1", "--drop", "99"]),
        cli(["fault", "sym.nv", "--smt", "--links", "1", "--stats",
             "--symbolic", "start=None"]),
        # translate, report
        cli(["translate", "sim_cfg/configs", "--assert-prefix", "10.0.0.0/24"]),
        cli(["translate", "ospf", "-o", "ospf.nv"]),
        cli(["simulate", "ospf.nv"]),
        cli(["report", trace, "-o", "r.html", "--title", "census"]),
        cli(["report", ptrace, "--critical-path"]),
        # contract errors
        cli(["simulate", "--no-such-flag", "fat4.nv"]),
        cli(["simulate", "missing.nv"]),
        cli(["simulate", "empty"]),
        cli(["simulate", "latin1.nv"]),
        cli(["simulate", "bad.nv"]),
        *[cli(["simulate", f"ill{i}.nv"]) for i in range(len(ILL_TYPED))],
        cli(["simulate", "fat4.nv", "--trace-json", "nodir/t.jsonl"]),
        cli(["simulate", "sym.nv", "--symbolic", "start"]),
        cli(["explain", "fat4.nv", "99"]),
        cli(["verify", "--partition", "2", "fat4.nv", "sym.nv"]),
        cli(["verify", "fat4.nv", "--cuts", "missing.json"]),
        cli(["fault", "int.nv", "--links", "1"]),
        cli(["fault", "wan8.nv", "--links", "0"]),
        cli(["translate", "empty"]),
        cli(["translate", "missing"]),
        cli(["translate", "sim_cfg/configs", "-o", "nodir/x.nv"]),
        cli(["report", "missing.jsonl"]),
        cli(["simulate", "badedge.nv"]),
        cli(["verify", "symkey.nv", "--cuts", "symkey.json",
             "--trace-json", ptrace], jobs=2),
        cli(["verify", "p0.nv", "p1.nv"], jobs="abc"),
        call("python -m repro --help", lambda: _run_module("repro", "--help")),
        call("python -m repro._struct --check",
             lambda: _run_module("repro._struct", "--check")),
        call("fig 13c sharded prefixes (figures.py 13c/sharded-j2)",
             _fig13c),
    ]


def _run_module(name: str, *argv: str) -> None:
    saved = sys.argv
    sys.argv = [name, *argv]
    try:
        with contextlib.suppress(SystemExit):
            runpy.run_module(name, run_name="__main__", alter_sys=True)
    finally:
        sys.argv = saved


def _fig13c() -> None:
    from repro.analysis.fault import per_prefix_fault_tolerance
    from repro.api import load

    nets = [load(Path(f"p{i}.nv").read_text()) for i in range(3)]
    per_prefix_fault_tolerance(nets, with_witnesses=True, jobs=2)


def example_scenarios() -> list[Scenario]:
    def run(path: Path) -> None:
        runpy.run_path(str(path), run_name="__main__")

    return [call(f"examples/{path.name}", lambda p=path: run(p))
            for path in sorted((REPO / "examples").glob("*.py"))]


# ----------------------------------------------------------------------
# Census
# ----------------------------------------------------------------------

def census() -> tuple[dict[str, int], dict[str, str]]:
    """Every function's line count, and the first scenario reaching each
    reached one."""
    universe = functions()
    first: dict[str, str] = {}
    cwd, env = os.getcwd(), dict(os.environ)
    with tempfile.TemporaryDirectory(prefix="nv-census-") as tmp:
        work, dumps = Path(tmp) / "work", Path(tmp) / "dumps"
        work.mkdir()
        dumps.mkdir()
        sys.path.insert(0, str(SRC))
        recorder = Recorder(dumps)
        scenarios = [*e2e_scenarios(work), *sweep_scenarios(work),
                     *example_scenarios()]
        sink = io.StringIO()
        try:
            while scenarios:
                scenario = scenarios.pop(0)
                os.chdir(work)
                os.environ.clear()
                os.environ.update(env, NV_JOBS="1")
                recorder.install()
                try:
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        scenarios[:0] = scenario() or []
                finally:
                    recorder.uninstall()
                sink.seek(0)
                sink.truncate()
                for key in recorder.take():
                    if key in universe:
                        first.setdefault(key, scenario.label)
        finally:
            os.chdir(cwd)
            os.environ.clear()
            os.environ.update(env)
    return universe, first


def load_keep(path: Path = KEEP) -> list[tuple[str, str]]:
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        prefix, _, reason = line.partition(" ")
        if not reason.strip():
            raise SystemExit(f"{path.name}: {prefix} has no reason")
        entries.append((prefix, reason.strip()))
    return entries


def covers(prefix: str, key: str) -> bool:
    return fnmatchcase(key, prefix) or (key.startswith(prefix)
                                         and key[len(prefix)] in ":./")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreached function not on the "
                             "keep-list, or a keep-list entry covering "
                             "nothing unreached")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    universe, first = census()
    keep = load_keep()
    kept: dict[str, str] = {}
    bad: list[str] = []
    for key in sorted(universe):
        if key in first:
            continue
        entries = [p for p, _ in keep if covers(p, key)]
        if entries:
            kept[key] = entries[0]
        else:
            bad.append(key)
    stale = [p for p, _ in keep if not any(covers(p, k) for k in kept)]

    if not args.check:
        width = max(map(len, universe))
        for key in sorted(universe):
            where = first.get(key) or (f"kept: {dict(keep)[kept[key]]}"
                                       if key in kept else "UNREACHED")
            print(f"{key:<{width}} {universe[key]:>5}  {where}")
    lines = sum(universe.values())
    unreached = [k for k in universe if k not in first]
    print(f"{len(universe)} functions ({lines} lines) under src/repro; "
          f"{len(unreached)} unreached "
          f"({sum(universe[k] for k in unreached)} lines), "
          f"{len(kept)} of them kept by {len(keep)} entries; "
          f"census took {time.perf_counter() - t0:.0f} s")
    for key in bad:
        print(f"unreached and not on the keep-list: {key}", file=sys.stderr)
    for prefix in stale:
        print(f"keep-list entry covers nothing unreached: {prefix}",
              file=sys.stderr)
    return 1 if args.check and (bad or stale) else 0


if __name__ == "__main__":
    raise SystemExit(main())
