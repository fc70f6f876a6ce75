"""Command-line interface: ``python -m repro <command> ...``.

Mirrors the original artifact's ``nv`` binary: point it at an NV source file
(or a directory of router configurations) and pick an analysis.

    python -m repro simulate network.nv [--native] [--symbolic name=value ...]
    python -m repro verify network.nv [--portfolio K]
    python -m repro fault network.nv [--links N] [--nodes] [--witnesses]

The three analysis commands take ``--jobs N`` (default ``$NV_JOBS``, else
the CPU count capped at 8).  ``simulate`` / ``verify`` shard several input
files (one per destination prefix) over that many worker processes, and
``--jobs 1`` runs the same units serially, in-process; ``--jobs`` also
bounds the racing processes of ``--portfolio`` (``verify``, ``fault
--smt``).  Plain ``fault`` ignores it: the meta-protocol is one simulation,
in-process, at any worker count.
    python -m repro explain network.nv NODE
    python -m repro translate configs_dir/ [--assert-prefix A.B.C.D/L] [-o out.nv]

Symbolic values on the command line use NV literal syntax
(``--symbolic route=None``, ``--symbolic x=5u8``).

Observability flags shared by the analysis commands (see README
"Observability"):

* ``--stats`` collects and prints the flat :mod:`repro.perf` counters;
* ``--trace`` prints a hierarchical span tree (pipeline passes, simulation,
  SMT phases) with inclusive/exclusive times and per-span counter deltas;
* ``--trace-json FILE`` streams span + timeline-event records as JSONL;
* ``--progress`` renders a live stderr status line (heartbeat sampler);
* ``--heartbeat SECONDS`` sets the sampling period (implies a heartbeat);
* ``--metrics-json FILE`` / ``--prometheus FILE`` export the final
  counter/gauge/histogram snapshot;
* ``--mem`` adds tracemalloc memory accounting (per-span high-water marks);
* ``--time-budget SECONDS`` warns when the run exceeds its wall-time budget.

``python -m repro report trace.jsonl`` turns a trace (plus an optional
metrics snapshot) into a self-contained HTML run report.

Exit status: 0 the property holds (or the command did its job), 1 it is
violated, 2 ``verify`` could not decide, 130 interrupted, and 3 for every
contract error — an ill-formed program or flag, a failed worker, a program
nested past the recursion limit, or a reader that closed stdout (``| head``)
— each without a traceback.  An input or output path that cannot be read or
written (missing, a directory, not UTF-8) is one of them: one
``error: <path>: <reason>`` line.
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter
from typing import TYPE_CHECKING, Any

from . import metrics, obs, parallel, perf
from .lang.errors import NvError

if TYPE_CHECKING:
    from .srp.network import Network

# Each command imports the layers it runs (parser, evaluator, BDD manager,
# SMT stack) when it runs them: `translate`, `report` and `runs` load no
# evaluator, and no command pays for another's back end.


def _path_error(path: str, exc: Exception) -> NvError:
    """An unreadable or unwritable path is a contract error, not a traceback."""
    return NvError(f"{path}: {getattr(exc, 'strerror', None) or exc}")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _path_error(path, exc) from None


def _load_network(path: str) -> Network:
    from .lang.parser import parse_program
    from .protocols import resolve
    from .srp.network import Network

    with obs.span("frontend.parse", file=path):
        program = parse_program(_read_text(path), resolve)
    with obs.span("frontend.typecheck"):
        return Network.from_program(program)


def _parse_symbolics(pairs: list[str], net: Network) -> dict[str, Any]:
    """Evaluate `name=<nv literal>` bindings in the network's context."""
    from .eval.interp import Interpreter
    from .eval.maps import MapContext
    from .lang import ast as A
    from .lang.parser import parse_expr
    from .lang.typecheck import check_program

    out: dict[str, Any] = {}
    interp = Interpreter(MapContext(net.num_nodes, net.edges))
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--symbolic expects name=value, got {pair!r}")
        name, text = pair.split("=", 1)
        expr = parse_expr(text)
        program = A.Program([A.DLet("__cli", expr)])
        check_program(program)
        out[name] = interp.eval(expr)
    return out


def _maybe_enable_stats(args: argparse.Namespace) -> None:
    """``--stats`` turns on the :mod:`repro.perf` registry for this run."""
    if getattr(args, "stats", False):
        perf.reset()
        perf.enable()


def _tracing(args: argparse.Namespace) -> bool:
    """Span recording: ``--trace`` / ``--trace-json``, and every flag that
    starts a heartbeat — spans are the phases its samples are labelled
    with (no sink unless ``--trace-json`` names one)."""
    return bool(getattr(args, "trace", False)
                or getattr(args, "trace_json", None)
                or _heartbeat_on(args))


def _metrics_on(args: argparse.Namespace) -> bool:
    """Any live-metrics flag turns the gauge/histogram registry on, and
    with it kernel telemetry.  ``--record`` counts: the RunRecord's gauges
    and histogram digests only exist while the registry is live."""
    return bool(getattr(args, "progress", False)
                or getattr(args, "heartbeat", None) is not None
                or getattr(args, "metrics_json", None)
                or getattr(args, "prometheus", None)
                or getattr(args, "mem", False)
                or getattr(args, "time_budget", None) is not None
                or getattr(args, "record", None) is not None)


def _heartbeat_on(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "progress", False)
                or getattr(args, "heartbeat", None) is not None
                or getattr(args, "time_budget", None) is not None)


def cmd_simulate(args: argparse.Namespace) -> int:
    from .analysis.simulation import run_simulation, run_simulations

    _maybe_enable_stats(args)
    nets = [_load_network(f) for f in args.file]
    symbolics = _parse_symbolics(args.symbolic, nets[0])
    backend = "native" if args.native else "interp"
    if len(nets) == 1:
        # Single network: run in-process (live labels, exact legacy output).
        reports = [run_simulation(nets[0], symbolics, backend, lower=args.lower)]
    else:
        # Several networks (e.g. one file per destination prefix): shard
        # over the worker pool.  Labels come back frozen (picklable
        # snapshots) but summaries/violations are unaffected.
        reports = run_simulations(nets, symbolics, backend, lower=args.lower,
                                  jobs=parallel.resolve_jobs(args.jobs),
                                  unit_labels=[str(f) for f in args.file])
    rc = 0
    for path, report in zip(args.file, reports):
        if len(nets) > 1:
            print(f"== {path}")
        print(report.summary())
        if args.show_routes:
            print(report.solution.pretty(max_nodes=args.max_nodes))
        if report.violations:
            print(f"assertion violated at nodes: {report.violations}")
            rc = 1
    return rc


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain network.nv NODE``: simulate to convergence, then print
    the provenance chain of NODE's stable route (which neighbour's trans
    output the label came from, back to an init origin)."""
    from .eval.compile_py import compile_network_functions
    from .srp.network import functions_from_program
    from .srp.provenance import explain
    from .srp.simulate import simulate

    _maybe_enable_stats(args)
    net = _load_network(args.file)
    if not 0 <= args.node < net.num_nodes:
        raise SystemExit(f"node {args.node} out of range "
                         f"(network has {net.num_nodes} nodes)")
    symbolics = _parse_symbolics(args.symbolic, net)
    with obs.span("sim.setup", backend="native" if args.native else "interp"):
        if args.native:
            funcs = compile_network_functions(net, symbolics)
        else:
            funcs = functions_from_program(net, symbolics)
    with obs.span("sim.simulate", nodes=net.num_nodes, edges=len(net.edges)):
        solution = simulate(funcs)
    with obs.span("sim.provenance", node=args.node):
        text = explain(funcs, solution.labels, args.node)
    print(text)
    if args.stats:
        print(perf.report())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .analysis.verify import verify as smt_verify
    from .analysis.verify import verify_many
    from .eval.values import value_repr

    _maybe_enable_stats(args)
    nets = [_load_network(f) for f in args.file]
    if (args.partition is not None or args.cuts is not None
            or args.partition_method is not None):
        return _cmd_verify_partitioned(args, nets)
    if len(nets) == 1:
        results = [smt_verify(nets[0], max_conflicts=args.max_conflicts,
                              portfolio=args.portfolio, jobs=args.jobs)]
    elif args.incremental:
        # Shared-encoding batch: one persistent solver, one assumption
        # selector per file; learnt clauses and preprocessing amortise
        # across queries (verdicts identical to fresh mode).
        results = verify_many(nets, max_conflicts=args.max_conflicts,
                              incremental=True, portfolio=args.portfolio,
                              jobs=args.jobs)
    else:
        # One independent SMT query per file (e.g. per destination prefix),
        # sharded over the worker pool.  --portfolio targets a single hard
        # query; with several files the parallelism axis is across queries.
        if args.portfolio > 1:
            print("note: --portfolio ignored with multiple files "
                  "(queries shard across workers instead)", file=sys.stderr)
        results = verify_many(nets, max_conflicts=args.max_conflicts,
                              jobs=parallel.resolve_jobs(args.jobs),
                              unit_labels=[str(f) for f in args.file])
    rc = 0
    for path, result in zip(args.file, results):
        if len(nets) > 1:
            print(f"== {path}")
        print(result.summary())
        if result.status == "counterexample":
            for name, value in result.counterexample.items():
                print(f"  symbolic {name} = {value_repr(value)}")
            if args.show_routes:
                for node, attr in sorted(result.node_attrs.items()):
                    print(f"  node {node}: {value_repr(attr)}")
            rc = max(rc, 1)
        elif not result.verified:
            rc = max(rc, 2)
    if args.stats:
        print(perf.report())
    return rc


def _cmd_verify_partitioned(args: argparse.Namespace,
                            nets: list[Network]) -> int:
    """``repro verify --partition K`` / ``--cuts FILE``: modular
    (Kirigami-style) verification of one network — cut, verify fragments in
    parallel across ``--jobs`` workers, discharge interfaces."""
    from .analysis.partition import verify_partitioned
    from .eval.values import value_repr
    from .partition import load_cut_file

    if len(nets) > 1:
        raise SystemExit("--partition/--cuts verify a single network "
                         "(the parallel axis is across fragments, not files)")
    net = nets[0]
    symbolics = _parse_symbolics(args.symbolic, net) or None
    try:
        cuts = load_cut_file(args.cuts) if args.cuts else None
    except (OSError, UnicodeDecodeError) as exc:
        raise _path_error(args.cuts, exc) from None
    report = verify_partitioned(
        net, partition=args.partition, cuts=cuts,
        method=args.partition_method or "auto",
        max_conflicts=args.max_conflicts,
        jobs=parallel.resolve_jobs(args.jobs), symbolics=symbolics)
    print(report.summary())
    if report.status == "counterexample":
        for name, value in (report.counterexample or {}).items():
            print(f"  symbolic {name} = {value_repr(value)}")
        if args.show_routes and report.node_attrs:
            scope = ("stitched whole-network state" if report.stitched
                     else "failing fragment(s) only")
            print(f"  counterexample routes ({scope}):")
            for node, attr in sorted(report.node_attrs.items()):
                print(f"  node {node}: {value_repr(attr)}")
    for fr in report.fragments:
        for g in fr.guarantees:
            if g.status == "refuted" and g.witness and args.show_routes:
                print(f"  interface {g.edge[0]}->{g.edge[1]} violated by "
                      f"fragment {fr.index} stable state:")
                for node, attr in sorted(g.witness.items()):
                    print(f"    node {node}: {value_repr(attr)}")
    if args.stats:
        print(perf.report())
    if report.verified:
        return 0
    return 1 if report.status == "counterexample" else 2


def cmd_fault(args: argparse.Namespace) -> int:
    from .analysis.fault import fault_tolerance_sharded
    from .lang import types as T
    from .lang.parser import parse_expr

    _maybe_enable_stats(args)
    net = _load_network(args.file)
    symbolics = _parse_symbolics(args.symbolic, net)
    if args.smt:
        from .analysis.fault import fault_tolerance_smt

        if symbolics:
            print("note: --symbolic ignored with --smt (failure bits are "
                  "the symbolics)", file=sys.stderr)
        smt_report = fault_tolerance_smt(
            net, num_link_failures=args.links,
            incremental=args.incremental, portfolio=args.portfolio,
            jobs=args.jobs)
        print(smt_report.summary())
        for s in smt_report.scenarios:
            if s.status != "verified":
                print(f"  scenario failed={list(s.failed_links)}: {s.status}")
        if args.stats:
            print(perf.report())
        return 0 if smt_report.fault_tolerant else 1
    if args.links < 0 or (args.links == 0 and not args.nodes):
        raise NvError("at least one link or node failure is required")
    drop_body = parse_expr(args.drop) if args.drop else None
    if drop_body is None and not isinstance(net.attr_ty, T.TOption):
        raise NvError(f"attribute type {net.attr_ty} is not an option; pass "
                      "--drop EXPR to define what a dropped route looks like")
    # The meta-protocol runs in-process at any --jobs, but a malformed
    # NV_JOBS stays a usage error.
    parallel.resolve_jobs(args.jobs)
    report = fault_tolerance_sharded(
        net, symbolics, num_link_failures=args.links,
        node_failures=args.nodes, with_witnesses=args.witnesses,
        drop_body=drop_body)
    print(report.summary())
    for node, witness in sorted(report.witnesses.items()):
        print(f"  node {node} violates under failure scenario {witness}")
    if args.stats:
        print(perf.report())
    return 0 if report.fault_tolerant else 1


def cmd_translate(args: argparse.Namespace) -> int:
    from .frontend.configs import parse_config
    from .frontend.to_nv import translate

    directory = args.configs
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise _path_error(directory, exc) from None
    files = [(n[:-len(suffix)], os.path.join(directory, n))
             for suffix in (".cfg", ".conf") for n in names if n.endswith(suffix)]
    if not files:
        raise SystemExit(f"no .cfg/.conf files in {directory}")
    configs = [parse_config(router, _read_text(path)) for router, path in files]
    translation = translate(configs, assert_prefix=args.assert_prefix)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(translation.source)
        except OSError as exc:
            raise _path_error(args.output, exc) from None
        print(f"wrote {args.output}")
    else:
        print(translation.source)
    print(f"// routers: {translation.node_of}", file=sys.stderr)
    print(f"// links:   {translation.links}", file=sys.stderr)
    print(f"// prefixes: {len(translation.prefix_ids)} interned",
          file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report trace.jsonl``: render a self-contained HTML run
    report from a ``--trace-json`` file and an optional ``--metrics-json``
    snapshot.  ``--critical-path`` additionally prints the trace's
    critical-path analysis (longest dependency chain vs total work,
    parallel efficiency, LPT-bound gap) as text."""
    from .report import generate

    trace = args.trace_file
    if not os.path.exists(trace):
        raise SystemExit(f"no such trace file: {trace}")
    out = generate(trace, metrics_path=args.metrics,
                   out_path=args.output, title=args.title)
    print(f"wrote {out}")
    if getattr(args, "critical_path", False):
        from . import critpath

        roots, _events = obs.load_trace(trace)
        rep = critpath.analyze(roots)
        if rep is None:
            print("critical path: trace contains no spans")
        else:
            print(critpath.render_text(rep))
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """``repro runs list|show|diff``: the perf-observatory surface over the
    ``.nv-runs/`` RunRecord store (see :mod:`repro.observatory`)."""
    from . import observatory

    store = observatory.RunStore(args.runs_dir)
    if args.runs_command == "list":
        records = store.list()
        if not records:
            print(f"no runs recorded in {store.root}/")
            return 0
        for r in records:
            print(f"{r.run_id:<44} {r.label:<24} "
                  f"{len(r.timings)} timings, {len(r.counters)} counters")
        return 0
    try:
        if args.runs_command == "show":
            print(observatory.describe(store.resolve(args.ref)))
            return 0
        # diff
        rec_a = store.resolve(args.ref_a)
        rec_b = store.resolve(args.ref_b)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")
    deltas = observatory.diff_records(rec_a, rec_b)
    print(f"A: {rec_a.run_id}  ({rec_a.label})")
    print(f"B: {rec_b.run_id}  ({rec_b.label})")
    mismatched = [k for k in sorted(set(rec_a.env) | set(rec_b.env))
                  if rec_a.env.get(k) != rec_b.env.get(k)]
    if mismatched:
        print("note: environment differs on " + ", ".join(
            f"{k} ({rec_a.env.get(k)} vs {rec_b.env.get(k)})"
            for k in mismatched))
    print(observatory.diff_table(deltas, only_interesting=not args.all))
    if args.html:
        from .report import generate_diff
        out = generate_diff(rec_a, rec_b, args.html)
        print(f"wrote {out}")
    if args.gate:
        gated = observatory.regressions(deltas)
        if gated:
            print(f"GATE: {len(gated)} counter metrics regressed beyond "
                  "tolerance", file=sys.stderr)
            return 1
        print("gate: no counter regressions beyond tolerance")
    return 0


def _save_run_record(args: argparse.Namespace, wall_seconds: float) -> None:
    """Persist a RunRecord of this CLI run (``--record [LABEL]``).  Called
    while the perf/metrics registries are still live.  When the run also
    wrote a ``--trace-json`` file, its critical-path analysis lands in the
    record as ``parallel.*`` gauges, so ``repro runs diff`` tracks parallel
    efficiency across runs."""
    from . import observatory

    record = observatory.capture(
        args.record or args.command,
        timings={f"{args.command}.wall_seconds": [wall_seconds]},
        trace_path=getattr(args, "trace_json", None),
        meta={"command": args.command,
              "file": getattr(args, "file", None)})
    trace_json = getattr(args, "trace_json", None)
    if trace_json:
        try:
            from . import critpath

            roots, _events = obs.load_trace(trace_json)
            rep = critpath.analyze(roots)
            if rep is not None:
                record.gauges.update(rep.gauges())
        except OSError:  # pragma: no cover - unreadable trace
            pass
    path = observatory.RunStore(getattr(args, "runs_dir", None)).save(record)
    print(f"recorded {record.run_id} -> {path}", file=sys.stderr)


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """The shared observability flags of every analysis subcommand."""
    p.add_argument("--stats", action="store_true",
                   help="collect and print repro.perf counters "
                        "(cache hit rates, work done)")
    p.add_argument("--trace", action="store_true",
                   help="print a hierarchical span tree of the run "
                        "(pipeline passes, simulation, SMT phases) with "
                        "per-span counter deltas")
    p.add_argument("--trace-json", metavar="FILE", default=None,
                   help="stream structured span/event records (JSONL) "
                        "to FILE; implies tracing")
    p.add_argument("--progress", action="store_true",
                   help="render a live one-line status to stderr while the "
                        "analysis runs (heartbeat sampler)")
    p.add_argument("--heartbeat", type=float, metavar="SECONDS", default=None,
                   help="heartbeat sampling period in seconds "
                        "(default 1.0 when --progress is set); progress "
                        "events land in the --trace-json timeline")
    p.add_argument("--metrics-json", metavar="FILE", default=None,
                   help="write the final counters/gauges/histograms "
                        "snapshot as JSON to FILE")
    p.add_argument("--prometheus", metavar="FILE", default=None,
                   help="write the final snapshot in Prometheus text "
                        "exposition format to FILE")
    p.add_argument("--mem", action="store_true",
                   help="account memory with tracemalloc: per-span "
                        "high-water marks plus traced-bytes gauges")
    p.add_argument("--time-budget", type=float, metavar="SECONDS",
                   default=None,
                   help="warn (once) when the run exceeds this wall-time "
                        "budget")
    p.add_argument("--record", nargs="?", const="", default=None,
                   metavar="LABEL",
                   help="persist a RunRecord of this run (env fingerprint, "
                        "timings, counters, gauges) to the .nv-runs/ store "
                        "for later `repro runs diff`; LABEL defaults to the "
                        "command name")
    p.add_argument("--runs-dir", default=None, metavar="DIR",
                   help="RunRecord store directory (default: $NV_RUNS_DIR, "
                        "else .nv-runs/)")


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for sharded analyses "
                        "(default: $NV_JOBS, else CPU count capped at "
                        f"{parallel.MAX_DEFAULT_JOBS}; 1 = serial)")


def _simulate_args(simulate: argparse.ArgumentParser) -> None:
    simulate.add_argument("file", nargs="+",
                          help="NV source file(s); several files (e.g. one "
                               "per destination prefix) shard across "
                               "--jobs worker processes")
    simulate.add_argument("--native", action="store_true",
                          help="compile NV to Python first (§5.1)")
    simulate.add_argument("--symbolic", action="append", default=[],
                          metavar="NAME=VALUE")
    simulate.add_argument("--show-routes", action="store_true")
    simulate.add_argument("--max-nodes", type=int, default=50)
    simulate.add_argument("--lower", action=argparse.BooleanOptionalAction,
                          default=False,
                          help="run the value-preserving §5.2 passes "
                               "(inline + partial-eval) before simulating; "
                               "with --trace, shows the per-pass spans")
    _add_obs_args(simulate)
    _add_jobs_arg(simulate)
    simulate.set_defaults(fn=cmd_simulate)


def _verify_args(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("file", nargs="+",
                        help="NV source file(s); several files run as "
                             "independent queries sharded across --jobs "
                             "worker processes")
    verify.add_argument("--max-conflicts", type=int, default=None)
    verify.add_argument("--show-routes", action="store_true")
    verify.add_argument("--portfolio", type=int, default=1, metavar="K",
                        help="race K diversified CDCL strategies on a "
                             "query; first answer wins, losers are "
                             "cancelled")
    verify.add_argument("--incremental",
                        action=argparse.BooleanOptionalAction, default=True,
                        help="with several files: decide them as one "
                             "shared-encoding batch on a persistent "
                             "assumption-based solver (default); "
                             "--no-incremental falls back to one fresh "
                             "solver per query, sharded across --jobs")
    verify.add_argument("--partition", type=int, default=None, metavar="K",
                        help="modular verification: cut the network into K "
                             "fragments, verify them in parallel across "
                             "--jobs workers and discharge the interface "
                             "annotations (inferred from simulation unless "
                             "--cuts provides them)")
    verify.add_argument("--cuts", default=None, metavar="FILE",
                        help="modular verification from a JSON cut file "
                             "(fragments or cut_links + per-edge interface "
                             "annotations; see README 'Modular "
                             "verification')")
    verify.add_argument("--partition-method", default=None,
                        choices=["auto", "pods", "bfs", "spectral"],
                        help="automatic cut heuristic for --partition "
                             "(default auto: fat-tree pods when role "
                             "metadata exists, else spectral bisection); "
                             "giving a method implies modular verification "
                             "even without --partition")
    verify.add_argument("--symbolic", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="concrete symbolic values for partition "
                             "interface inference (the simulation pass "
                             "needs them; fragment SMT still explores all "
                             "assignments)")
    _add_obs_args(verify)
    _add_jobs_arg(verify)
    verify.set_defaults(fn=cmd_verify)


def _fault_args(fault: argparse.ArgumentParser) -> None:
    fault.add_argument("file")
    fault.add_argument("--links", type=int, default=1,
                       help="simultaneous link failures (default 1)")
    fault.add_argument("--nodes", action="store_true",
                       help="also fail one node per scenario")
    fault.add_argument("--witnesses", action="store_true")
    fault.add_argument("--symbolic", action="append", default=[],
                       metavar="NAME=VALUE")
    fault.add_argument("--drop", default=None,
                       help="NV expression for the dropped route (default None)")
    fault.add_argument("--smt", action="store_true",
                       help="check each failure scenario by SMT (fig 13a "
                            "encoding) instead of the MTBDD meta-protocol; "
                            "scenarios flip fail-bit assumptions on a "
                            "persistent solver")
    fault.add_argument("--incremental",
                       action=argparse.BooleanOptionalAction, default=True,
                       help="with --smt: reuse one persistent solver across "
                            "scenarios (default); --no-incremental re-solves "
                            "each scenario from scratch")
    fault.add_argument("--portfolio", type=int, default=1, metavar="K",
                       help="with --smt: race K CDCL strategies per scenario")
    _add_obs_args(fault)
    _add_jobs_arg(fault)
    fault.set_defaults(fn=cmd_fault)


def _explain_args(explain: argparse.ArgumentParser) -> None:
    explain.add_argument("file")
    explain.add_argument("node", type=int,
                         help="node whose stable route to explain")
    explain.add_argument("--native", action="store_true",
                         help="compile NV to Python first (§5.1)")
    explain.add_argument("--symbolic", action="append", default=[],
                         metavar="NAME=VALUE")
    _add_obs_args(explain)
    explain.set_defaults(fn=cmd_explain)


def _translate_args(translate: argparse.ArgumentParser) -> None:
    translate.add_argument("configs", help="directory of .cfg/.conf files")
    translate.add_argument("--assert-prefix", default=None,
                           metavar="A.B.C.D/LEN")
    translate.add_argument("-o", "--output", default=None)
    translate.set_defaults(fn=cmd_translate)


def _report_args(report: argparse.ArgumentParser) -> None:
    report.add_argument("trace_file", metavar="trace",
                        help="trace JSONL file (--trace-json output)")
    report.add_argument("--metrics", metavar="FILE", default=None,
                        help="metrics snapshot JSON (--metrics-json output)")
    report.add_argument("-o", "--output", default=None,
                        help="output HTML path (default: trace with .html)")
    report.add_argument("--title", default=None,
                        help="report title (default: trace file name)")
    report.add_argument("--critical-path", action="store_true",
                        help="also print the critical-path analysis "
                             "(longest dependency chain, parallel "
                             "efficiency, LPT-bound gap) as text")
    report.set_defaults(fn=cmd_report)


def _runs_args(runs: argparse.ArgumentParser) -> None:
    runs.add_argument("--runs-dir", default=None, metavar="DIR",
                      help="RunRecord store directory (default: "
                           "$NV_RUNS_DIR, else .nv-runs/)")
    rsub = runs.add_subparsers(dest="runs_command", required=True)
    rlist = rsub.add_parser("list", help="all recorded runs, oldest first")
    rlist.set_defaults(fn=cmd_runs)
    rshow = rsub.add_parser("show", help="one run in full")
    rshow.add_argument("ref", help="run id, unique id prefix, or label "
                                   "(latest run with that label)")
    rshow.set_defaults(fn=cmd_runs)
    rdiff = rsub.add_parser(
        "diff", help="noise-aware comparison of two runs")
    rdiff.add_argument("ref_a", metavar="A", help="baseline run ref")
    rdiff.add_argument("ref_b", metavar="B", help="candidate run ref")
    rdiff.add_argument("--all", action="store_true",
                       help="include within-tolerance rows in the table")
    rdiff.add_argument("--html", metavar="FILE", default=None,
                       help="also write a side-by-side HTML report "
                            "(flame charts + delta tables)")
    rdiff.add_argument("--gate", action="store_true",
                       help="exit 1 if any counter regresses beyond "
                            "tolerance (the check_regression.py semantics)")
    rdiff.set_defaults(fn=cmd_runs)


#: Sub-command -> (its one-line help, the function adding its arguments).
COMMANDS = {
    "simulate": ("compute the stable state", _simulate_args),
    "verify": ("SMT verification over all stable states and symbolic "
               "values", _verify_args),
    "fault": ("fault-tolerance meta-protocol (fig 5)", _fault_args),
    "explain": ("provenance: why did NODE's stable route win?", _explain_args),
    "translate": ("router configs -> NV program (§4)", _translate_args),
    "report": ("render a trace JSONL (+ metrics snapshot) as a "
               "self-contained HTML run report", _report_args),
    "runs": ("perf observatory: list, inspect and diff recorded "
             "RunRecords (.nv-runs/)", _runs_args),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The CLI's parser for ``argv``: only the sub-command ``argv`` names
    gets its arguments (the others are bare, so every usage line and error
    text is the full tree's).  No command, an unknown one or ``--help``
    builds them all."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NV control-plane analyses (PLDI 2020 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = argv[0] if argv and argv[0] in COMMANDS else None
    for name, (summary, add_args) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        if wanted is None or wanted == name:
            add_args(command)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        rc = _run(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return rc
    except BrokenPipeError:
        # The reader went away (`repro simulate f.nv | head -1`).  Point
        # stdout at /dev/null so the exit-time flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


def _run(argv: list[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    tracing = _tracing(args)
    metrics_on = _metrics_on(args)
    recording = getattr(args, "record", None) is not None
    if recording and not tracing and not getattr(args, "stats", False):
        # A RunRecord without counters is an empty record; --record implies
        # the perf registry even when no other flag turned it on.
        perf.reset()
        perf.enable()
    if tracing:
        # Spans carry perf-counter deltas, so tracing turns the counter
        # registry on as well (a later --stats reset is harmless: nothing
        # has accumulated yet).
        obs.reset()
        try:
            obs.enable(jsonl=args.trace_json)
        except OSError as exc:
            print(f"error: {_path_error(args.trace_json, exc)}", file=sys.stderr)
            return 3
        perf.reset()
        perf.enable()
    if metrics_on:
        # Live gauges/histograms need the counter registry too (rates are
        # derived from perf deltas).
        if not tracing and not getattr(args, "stats", False):
            perf.reset()
            perf.enable()
        metrics.reset()
        metrics.enable(memory=getattr(args, "mem", False))
        if getattr(args, "mem", False):
            obs.track_memory(True)

    heartbeat = None
    if _heartbeat_on(args):
        from .heartbeat import Heartbeat
        period = args.heartbeat if args.heartbeat is not None else 1.0
        heartbeat = Heartbeat(
            period, progress=getattr(args, "progress", False),
            label=args.command, budget=getattr(args, "time_budget", None),
            metrics_json=getattr(args, "metrics_json", None),
            install_sigint=True)
        heartbeat.start()

    file_attr = getattr(args, "file", None)
    if isinstance(file_attr, list):
        file_attr = file_attr[0] if len(file_attr) == 1 else ",".join(file_attr)
    try:
        t_run0 = perf_counter()
        with obs.span(args.command, file=file_attr):
            rc = args.fn(args)
        wall_seconds = perf_counter() - t_run0
        if heartbeat is not None:
            heartbeat.stop()
            heartbeat = None
        if metrics_on:
            _write_metrics_outputs(args)
        if recording:
            # After the metrics exports (same final snapshot) but before
            # the registries are disabled in the finally block.
            obs.flush()
            _save_run_record(args, wall_seconds)
        return rc
    except KeyboardInterrupt:
        # The heartbeat's SIGINT handler already dumped partial state (or
        # there was no heartbeat and there is nothing to dump beyond the
        # trace flush in the finally block below).
        if heartbeat is not None:
            heartbeat.dump_partial()
        print("interrupted", file=sys.stderr)
        return 130
    except (NvError, parallel.ParallelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # The parser, checker and evaluators recurse on the AST, so a long
        # enough `else if` / `let` chain exhausts the interpreter's stack.
        print("error: program exceeds the nesting limit: an expression (e.g. "
              "a long `else if` chain) nests deeper than the recursion limit "
              f"of {sys.getrecursionlimit()} frames allows", file=sys.stderr)
        return 3
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if metrics_on:
            metrics.disable()
            obs.track_memory(False)
        if tracing:
            obs.disable()
            if getattr(args, "trace", False):
                print(obs.render_tree())


def _write_metrics_outputs(args: argparse.Namespace) -> None:
    """Export the final snapshot to the requested files (one snapshot, both
    formats)."""
    mjson = getattr(args, "metrics_json", None)
    prom = getattr(args, "prometheus", None)
    if not mjson and not prom:
        return
    snap = metrics.snapshot()
    try:
        if mjson:
            metrics.write_json(mjson, snap)
        if prom:
            metrics.write_prometheus(prom, snap)
    except OSError as exc:
        raise _path_error(exc.filename, exc) from None


if __name__ == "__main__":
    raise SystemExit(main())
