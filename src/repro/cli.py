"""Command-line interface: ``python -m repro <command> ...``.

Mirrors the original artifact's ``nv`` binary: point it at an NV source file
(or a directory of router configurations) and pick an analysis.

    python -m repro simulate network.nv [--native] [--symbolic name=value ...]
    python -m repro verify network.nv [--partition K] [--max-conflicts N]
    python -m repro fault network.nv [--links N] [--nodes] [--witnesses]
    python -m repro explain network.nv NODE
    python -m repro translate configs_dir/ [--assert-prefix A.B.C.D/L] [-o out.nv]

Symbolic values on the command line use NV literal syntax
(``--symbolic route=None``, ``--symbolic x=5u8``).

The three analysis commands take ``--jobs N`` (default ``$NV_JOBS``, else
the CPU count capped at 8), resolved once before the command runs: a value
that is not an integer is a usage error for each of them.  Only ``verify``
uses it: ``--partition`` fragments and several files under
``--no-incremental`` shard over that many worker processes, and ``--jobs
1`` runs the same units serially, in-process.  ``simulate`` runs several
files one after another in-process, each printed as its single-file run
prints it, and ``fault`` is one simulation (or, with ``--smt``, one
persistent solver), in-process, at any worker count.

The four observability flags of the analysis commands (see README
"Observability"):

* ``--stats`` collects and prints the flat :mod:`repro.perf` counters;
* ``--trace`` prints a hierarchical span tree (pipeline passes, simulation,
  SMT phases) with inclusive/exclusive times and per-span counter deltas;
* ``--trace-json FILE`` streams span + timeline-event records as JSONL and
  ends the stream with the run's counter/gauge/histogram snapshot;
* ``--progress`` renders a live stderr status line (heartbeat sampler).

``--stats`` turns on the counters alone; each of the other three turns on
spans, counters and the metrics registry (kernel telemetry included).
``python -m repro report trace.jsonl`` turns a trace into a self-contained
HTML run report.

Exit status: 0 the property holds (or the command did its job), 1 it is
violated, 2 ``verify`` could not decide, 4 ``verify`` found that no stable
state exists (``vacuous``), 130 interrupted, and 3 for every
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
from typing import TYPE_CHECKING, Any

from . import metrics, obs, parallel, perf
from .lang.errors import NvError

if TYPE_CHECKING:
    from .srp.network import Network

# Each command imports the layers it runs (parser, evaluator, BDD manager,
# SMT stack) when it runs them: `translate` and `report` load no
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
            raise NvError(f"--symbolic expects name=value, got {pair!r}")
        name, text = pair.split("=", 1)
        expr = parse_expr(text)
        program = A.Program([A.DLet("__cli", expr)])
        check_program(program)
        out[name] = interp.eval(expr)
    return out


def _observing(args: argparse.Namespace) -> bool:
    """``--trace``, ``--trace-json`` and ``--progress`` each turn on spans
    (the phases the heartbeat labels its samples with), counters and the
    metrics registry; ``--stats`` alone turns on the counters only."""
    return bool(getattr(args, "trace", False)
                or getattr(args, "trace_json", None)
                or getattr(args, "progress", False))


def cmd_simulate(args: argparse.Namespace) -> int:
    from .analysis.simulation import run_simulation

    nets = [_load_network(f) for f in args.file]
    symbolics = [_parse_symbolics(args.symbolic, net) for net in nets]
    backend = "native" if args.native else "interp"
    rc = 0
    for path, net, syms in zip(args.file, nets, symbolics):
        if len(nets) > 1:
            print(f"== {path}")
        # Each file prints what its single-file run prints, --stats table
        # included; the registry still ends with the whole run's counts.
        total = perf.snapshot()
        perf.reset()
        report = run_simulation(net, syms, backend, lower=args.lower)
        print(report.summary())
        perf.merge(total)
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

    net = _load_network(args.file)
    if not 0 <= args.node < net.num_nodes:
        raise NvError(f"node {args.node} out of range "
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

    if args.max_conflicts is not None and args.max_conflicts < 0:
        raise NvError(f"--max-conflicts must be >= 0, got {args.max_conflicts}")
    nets = [_load_network(f) for f in args.file]
    if (args.partition is not None or args.cuts is not None
            or args.partition_method is not None):
        return _cmd_verify_partitioned(args, nets)
    symbolics = [_parse_symbolics(args.symbolic, net) for net in nets]
    if len(nets) == 1:
        results = [smt_verify(nets[0], max_conflicts=args.max_conflicts,
                              symbolics=symbolics[0])]
    elif args.incremental:
        # Shared-encoding batch: one persistent solver, one assumption
        # selector per file; learnt clauses and preprocessing amortise
        # across queries (verdicts identical to fresh mode).
        results = verify_many(nets, max_conflicts=args.max_conflicts,
                              incremental=True, symbolics=symbolics)
    else:
        # One independent SMT query per file (e.g. per destination prefix),
        # sharded over the worker pool.
        results = verify_many(nets, max_conflicts=args.max_conflicts,
                              jobs=args.jobs,
                              unit_labels=[str(f) for f in args.file],
                              symbolics=symbolics)
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
        elif result.status == "vacuous":
            rc = max(rc, 4)
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
        raise NvError("--partition/--cuts verify a single network "
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
        jobs=args.jobs, symbolics=symbolics)
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

    if args.links < 0 or (args.links == 0 and not args.nodes):
        raise NvError("at least one link or node failure is required")
    if args.smt:
        unchecked = [flag for flag, given in (
            ("--nodes", args.nodes), ("--witnesses", args.witnesses),
            ("--drop", args.drop is not None)) if given]
        if unchecked:
            raise NvError(f"--smt checks link failures only; it does not "
                          f"take {', '.join(unchecked)}")
    net = _load_network(args.file)
    symbolics = _parse_symbolics(args.symbolic, net)
    if args.smt:
        from .analysis.fault import fault_tolerance_smt

        if symbolics:
            print("note: --symbolic ignored with --smt (failure bits are "
                  "the symbolics)", file=sys.stderr)
        smt_report = fault_tolerance_smt(
            net, num_link_failures=args.links, incremental=args.incremental)
        print(smt_report.summary())
        for s in smt_report.scenarios:
            if s.status != "verified":
                print(f"  scenario failed={list(s.failed_links)}: {s.status}")
        if args.stats:
            print(perf.report())
        return 0 if smt_report.fault_tolerant else 1
    drop_body = parse_expr(args.drop) if args.drop else None
    if drop_body is None and not isinstance(net.attr_ty, T.TOption):
        raise NvError(f"attribute type {net.attr_ty} is not an option; pass "
                      "--drop EXPR to define what a dropped route looks like")
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
        raise NvError(f"no .cfg/.conf files in {directory}")
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
    report from a ``--trace-json`` file, its snapshot record included.
    ``--critical-path`` additionally prints the trace's
    critical-path analysis (longest dependency chain vs total work,
    parallel efficiency, LPT-bound gap) as text."""
    from .report import generate

    trace = args.trace_file
    try:
        out = generate(trace, out_path=args.output, title=args.title)
    except OSError as exc:
        raise _path_error(exc.filename or trace, exc) from None
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
                        "to FILE, ended by the run's counters/gauges/"
                        "histograms snapshot; implies tracing")
    p.add_argument("--progress", action="store_true",
                   help="render a live one-line status to stderr while the "
                        "analysis runs (heartbeat sampler); progress "
                        "events land in the --trace-json timeline")


_JOBS_DEFAULT = ("default: $NV_JOBS, else CPU count capped at "
                 f"{parallel.MAX_DEFAULT_JOBS}")
_JOBS_UNUSED = (f"validated ({_JOBS_DEFAULT}) but without effect: this "
                "command runs in-process at any worker count")


def _add_jobs_arg(p: argparse.ArgumentParser, text: str = _JOBS_UNUSED) -> None:
    p.add_argument("--jobs", type=int, default=None, metavar="N", help=text)


def _simulate_args(simulate: argparse.ArgumentParser) -> None:
    simulate.add_argument("file", nargs="+",
                          help="NV source file(s); several files (e.g. one "
                               "per destination prefix) run one after "
                               "another, each under an '== FILE' header")
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
                        help="NV source file(s); several files run as one "
                             "incremental batch, or with --no-incremental as "
                             "independent queries sharded across --jobs "
                             "worker processes")
    verify.add_argument("--max-conflicts", type=int, default=None,
                        metavar="N",
                        help="give up (exit 2, unknown) after N conflicts "
                             "per query; N >= 0")
    verify.add_argument("--show-routes", action="store_true")
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
                        help="bind a symbolic to a concrete value in the "
                             "encoding (and in --partition's interface "
                             "inference); unbound symbolics range over "
                             "every value")
    _add_obs_args(verify)
    _add_jobs_arg(verify, "worker processes for --partition fragments and "
                          f"--no-incremental queries ({_JOBS_DEFAULT}; "
                          "1 = serial)")
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
    report.add_argument("-o", "--output", default=None,
                        help="output HTML path (default: trace with .html)")
    report.add_argument("--title", default=None,
                        help="report title (default: trace file name)")
    report.add_argument("--critical-path", action="store_true",
                        help="also print the critical-path analysis "
                             "(longest dependency chain, parallel "
                             "efficiency, LPT-bound gap) as text")
    report.set_defaults(fn=cmd_report)


#: Sub-command -> (its one-line help, the function adding its arguments).
COMMANDS = {
    "simulate": ("compute the stable state", _simulate_args),
    "verify": ("SMT verification over all stable states and symbolic "
               "values", _verify_args),
    "fault": ("fault-tolerance meta-protocol (fig 5)", _fault_args),
    "explain": ("provenance: why did NODE's stable route win?", _explain_args),
    "translate": ("router configs -> NV program (§4)", _translate_args),
    "report": ("render a trace JSONL as a self-contained HTML run report",
               _report_args),
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
    if hasattr(args, "jobs"):
        # simulate / verify / fault: a malformed NV_JOBS is a usage error
        # in every mode, also where the worker count has no effect.
        try:
            args.jobs = parallel.resolve_jobs(args.jobs)
        except parallel.ParallelError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    observing = _observing(args)
    if observing:
        obs.reset()
        try:
            obs.enable(jsonl=args.trace_json)
        except OSError as exc:
            print(f"error: {_path_error(args.trace_json, exc)}", file=sys.stderr)
            return 3
        metrics.reset()
        metrics.enable()
    if observing or getattr(args, "stats", False):
        # Spans carry perf-counter deltas and the heartbeat derives its
        # rates from them, so every observability flag needs the counters.
        perf.reset()
        perf.enable()

    heartbeat = None
    if getattr(args, "progress", False):
        from .heartbeat import Heartbeat
        heartbeat = Heartbeat(progress=True, label=args.command,
                              install_sigint=True)
        heartbeat.start()

    file_attr = getattr(args, "file", None)
    if isinstance(file_attr, list):
        file_attr = file_attr[0] if len(file_attr) == 1 else ",".join(file_attr)
    interrupted = False
    try:
        with obs.span(args.command, file=file_attr):
            return args.fn(args)
    except KeyboardInterrupt:
        # With --progress the heartbeat's SIGINT handler has flushed the
        # open spans; the snapshot below is marked partial.
        interrupted = True
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
        if observing:
            if args.trace_json:
                metrics.write_snapshot(partial=interrupted)
            metrics.disable()
            obs.disable()
            if args.trace:
                print(obs.render_tree())


if __name__ == "__main__":
    raise SystemExit(main())
