"""Traced replay of one CLI invocation, in a fresh process.

``python trace_child.py SPEC.json`` runs ``repro.cli.main(argv)`` in-process
with the harness' spans around each layer's public entry points (see
:mod:`tracer`), the public ``repro.perf`` / ``repro.metrics`` registries
switched on, and writes spans, counters and reference-check verdicts to the
``out`` file named by the spec.  One child per input keeps every cache as
cold as the CLI sees it.  The runner starts it with ``src`` on
``PYTHONPATH``; this directory is on ``sys.path`` as the script's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

#: BDD manager entry points (both engines share the API): everything the
#: map layer and the analyses call to build or read a diagram.
BDD_OPS = ("apply1", "apply2", "apply1_many", "apply2_many", "map_ite",
           "map_ite_many", "band", "bor", "bnot", "bxor", "bite", "set_path",
           "get_path", "leaves", "leaf_groups", "node_count", "sat_count",
           "any_sat", "snapshot")


def install(tracer, captured: dict, counts: dict) -> None:
    """Wrap each layer's public entry points.  Imports every module the CLI
    would import lazily, so the wrappers see them."""
    from importlib import import_module

    import repro.cli  # noqa: F401  (binds the aliases patch_function rewrites)

    def mod(name):
        # Not `from package import name`: several packages re-export a
        # function under its module's name.
        return import_module(f"repro.{name}")

    bdd, ledger, parallel = mod("bdd"), mod("ledger"), mod("parallel")
    fault, partition = mod("analysis.fault"), mod("analysis.partition")
    simulation, verify = mod("analysis.simulation"), mod("analysis.verify")
    compile_py = mod("eval.compile_py")
    configs, to_nv = mod("frontend.configs"), mod("frontend.to_nv")
    lexer, parser = mod("lang.lexer"), mod("lang.parser")
    bitblast, cnf = mod("smt.bitblast"), mod("smt.cnf")
    preprocess, sat, solver = mod("smt.preprocess"), mod("smt.sat"), mod("smt.solver")
    network, simulate = mod("srp.network"), mod("srp.simulate")
    inline, partial_eval = mod("transform.inline"), mod("transform.partial_eval")
    pipeline = mod("transform.pipeline")

    def bump(key, amount):
        counts[key] = counts.get(key, 0) + amount

    def keep(key, first=False):
        def hook(args, result):
            if not (first and key in captured):
                captured[key] = result
        return hook

    def on_parse(args, result):
        bump("lang.source_bytes", len(args[0]))
        bump("lang.ast_nodes", pipeline.ast_size(result))

    def on_translate(args, result):
        bump("frontend.routers", len(args[0]))
        bump("frontend.nv_bytes", len(result.source))

    def on_check(args, result):
        bump("smt.vars", result.num_vars)

    def on_preprocess(args, result):
        bump("smt.clauses_after_pre", len(result) if result is not None else 0)

    def on_fault(args, result):
        counts["analysis.classes_max"] = max(
            counts.get("analysis.classes_max", 0), result.max_classes)

    def on_ledger(args, result):
        captured.setdefault("ledgers", []).append(result)

    f, m = tracer.patch_function, tracer.patch_method
    f(repro.cli, "build_parser", "cli.build_parser")
    f(lexer, "tokenize", "lang.tokenize")
    f(parser, "parse_program", "lang.parse", hook=on_parse)
    m(network.Network, "from_program", "lang.typecheck",
      hook=keep("network", first=True))
    f(configs, "parse_config", "frontend.parse_config")
    f(to_nv, "translate", "frontend.translate", hook=on_translate)
    f(pipeline, "lower_program", "transform.lower")
    f(inline, "inline_program", "transform.inline")
    f(partial_eval, "partial_eval_program", "transform.partial_eval")
    f(network, "functions_from_program", "eval.interp_setup")
    f(compile_py, "compile_network_functions", "eval.compile")
    f(simulate, "simulate", "srp.simulate")
    f(simulation, "run_simulation", "analysis.simulate",
      hook=keep("analysis.simulate"))
    f(fault, "fault_tolerance_sharded", "analysis.fault", hook=on_fault)
    f(fault, "fault_tolerance_analysis", "analysis.fault_unit")
    f(fault, "merge_fault_reports", "analysis.fault_merge")
    f(verify, "verify", "analysis.verify", hook=keep("analysis.verify"))
    f(verify, "encode_network", "smt.encode")
    f(verify, "decode_tval", "smt.decode", agg=True)
    m(solver.Solver, "check", "smt.check", hook=on_check)
    m(bitblast.BitBlaster, "blast_bool", "smt.bitblast_cnf", agg=True)
    m(cnf.Tseitin, "assert_term", "smt.bitblast_cnf", agg=True)
    m(preprocess.Preprocessor, "__init__", "smt.preprocess")
    m(preprocess.Preprocessor, "run", "smt.preprocess", hook=on_preprocess)
    m(sat.SatSolver, "__init__", "smt.sat")
    m(sat.SatSolver, "solve", "smt.sat")
    f(partition, "resolve_plan", "partition.plan")
    f(partition, "verify_partitioned", "partition.verify")
    f(parallel, "run_sharded", "parallel.run_sharded")
    m(ledger.Ledger, "flush", "parallel.ledger", hook=on_ledger)

    def on_snapshot(args, result):
        bump("bdd.snapshot_bytes", len(result[0]))

    manager_cls = type(bdd.make_manager())
    for op in BDD_OPS:
        if op in vars(manager_cls):
            m(manager_cls, op, "bdd.op", agg=True,
              hook=on_snapshot if op == "snapshot" else None)


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    os.chdir(spec["cwd"])

    from tracer import Tracer
    tracer = Tracer()
    captured: dict = {}
    counts: dict = {}
    install(tracer, captured, counts)

    from repro import bdd, cli, metrics, perf
    perf.reset()
    perf.enable()
    metrics.reset()
    metrics.enable()

    def cli_main():
        try:
            return cli.main(list(spec["argv"]))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tracer.wrap(cli_main, "cli.main")()
    counters = perf.snapshot()
    spans = tracer.take()

    extra: dict = {}
    if spec.get("unsharded_fault"):
        # analysis.fault_batch_inflation: the same analysis as one unit,
        # under the same wrappers but outside the input's span tree.
        from repro.analysis.fault import fault_tolerance_analysis
        tracer.wrap(fault_tolerance_analysis, "analysis.fault_unsharded")(
            captured["network"], {}, num_link_failures=spec["unsharded_fault"])
        extra["fault_unsharded_s"] = tracer.take()[0]["busy"]
    tracer.enabled = False

    failures: list[str] = []
    if spec.get("crosscheck"):
        import checks
        try:
            failures = checks.crosscheck(spec["crosscheck"], captured,
                                         spec["facts"])
        except Exception as exc:  # a crashed reference check is a failure
            failures = [f"{spec['crosscheck']} raised {type(exc).__name__}: {exc}"]

    with open(spec["out"], "w") as fh:
        json.dump({
            "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "spans": spans, "counters": counters, "counts": counts,
            "ledgers": captured.get("ledgers", []), "extra": extra,
            "crosscheck_failures": failures,
            "engine_hint": bdd.engine_hint(),
        }, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
