"""The per-layer metric table and how each value is read off a traced run.

``LAYER_METRICS`` is the single list: ``BENCHMARK.json``'s ``per_layer``
block is generated from it (name, unit, better) and the test checks they
agree.  Each entry also says which end-to-end metric it should move and on
which workloads — everywhere else the prediction is *no change*.

A metric reads 0 on a workload that never reaches its layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import busy_by_name, self_by_layer, self_times

ALL = ("verify_smt", "fault_wan", "fault_wan_j2", "sim_cfg")
FAULT = ("fault_wan", "fault_wan_j2")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str                  # "lower" | "higher"
    moves: str                   # the end-to-end metric(s) it should move
    on: tuple[str, ...]          # ... on these workloads
    exact: bool = False          # a work count that must repeat exactly


def _m(name, unit, better, moves, on, exact=False):
    return LayerMetric(name, unit, better, moves, tuple(on), exact)


LAYER_METRICS: tuple[LayerMetric, ...] = (
    # cli: interpreter start, imports, argument parsing, exit
    _m("cli.import_s", "s", "lower", "pass_s", ALL),
    _m("cli.import_modules", "count", "lower", "pass_s", ALL, exact=True),
    _m("cli.overhead_s", "s", "lower", "pass_s", ALL),
    # lang: lexer, parser, type checker
    _m("lang.tokenize_s", "s", "lower", "pass_s", ("sim_cfg",)),
    _m("lang.parse_s", "s", "lower", "pass_s", ("sim_cfg",)),
    _m("lang.typecheck_s", "s", "lower", "pass_s", ("sim_cfg",)),
    _m("lang.source_bytes", "B", "lower", "pass_s", ("sim_cfg",), exact=True),
    _m("lang.ast_nodes", "count", "lower", "pass_s", ("sim_cfg",), exact=True),
    # frontend: router configs -> NV
    _m("frontend.parse_config_s", "s", "lower", "pass_s", ("sim_cfg",)),
    _m("frontend.translate_s", "s", "lower", "pass_s", ("sim_cfg",)),
    _m("frontend.routers", "count", "lower", "pass_s", ("sim_cfg",), exact=True),
    _m("frontend.nv_bytes", "B", "lower", "pass_s", ("sim_cfg",), exact=True),
    # transform: the section 5.2 pipeline
    _m("transform.lower_s", "s", "lower", "pass_s", ("sim_cfg",)),
    _m("transform.inline_s", "s", "lower", "pass_s", ("sim_cfg",)),
    _m("transform.partial_eval_s", "s", "lower", "pass_s", ("sim_cfg",)),
    _m("transform.ast_nodes_in", "count", "lower", "pass_s", ("sim_cfg",), exact=True),
    _m("transform.ast_nodes_out", "count", "lower", "pass_s", ("sim_cfg",), exact=True),
    # eval: interpreter set-up and the NV -> Python compiler
    _m("eval.interp_setup_s", "s", "lower", "pass_s", ("sim_cfg",)),
    _m("eval.compile_s", "s", "lower", "pass_s", ("sim_cfg",)),
    # srp: the simulator's worklist
    _m("srp.simulate_s", "s", "lower", "pass_s cpu_s", ("sim_cfg",) + FAULT),
    _m("srp.activations", "count", "lower", "pass_s cpu_s", ("sim_cfg",) + FAULT, exact=True),
    _m("srp.messages", "count", "lower", "pass_s cpu_s", ("sim_cfg",) + FAULT, exact=True),
    _m("srp.merge_memo_hit_ratio", "ratio", "higher", "pass_s cpu_s", ("sim_cfg",)),
    # bdd: the diagram engine
    _m("bdd.op_s", "s", "lower", "pass_s cpu_s peak_rss_mb", FAULT + ("sim_cfg",)),
    _m("bdd.ops", "count", "lower", "pass_s cpu_s", FAULT + ("sim_cfg",), exact=True),
    _m("bdd.nodes", "count", "lower", "pass_s cpu_s peak_rss_mb", FAULT + ("sim_cfg",), exact=True),
    _m("bdd.apply_hit_ratio", "ratio", "higher", "pass_s cpu_s", FAULT),
    _m("bdd.op_cache_hit_ratio", "ratio", "higher", "pass_s cpu_s", FAULT),
    _m("bdd.frontier_passes", "count", "higher", "pass_s cpu_s", FAULT, exact=True),
    _m("bdd.snapshot_bytes", "B", "lower", "pass_s peak_rss_mb", ("fault_wan",), exact=True),
    # analysis: the drivers
    _m("analysis.fault_s", "s", "lower", "pass_s cpu_s", FAULT),
    _m("analysis.fault_unsharded_s", "s", "lower", "pass_s cpu_s", ("fault_wan",)),
    _m("analysis.fault_batch_inflation", "ratio", "lower", "pass_s cpu_s", ("fault_wan",)),
    _m("analysis.fault_units", "count", "lower", "pass_s cpu_s", FAULT, exact=True),
    _m("analysis.fault_unit_max_s", "s", "lower", "pass_s", ("fault_wan_j2",)),
    _m("analysis.fault_merge_s", "s", "lower", "pass_s", FAULT),
    _m("analysis.classes_max", "count", "lower", "pass_s cpu_s", FAULT),
    _m("analysis.verify_s", "s", "lower", "pass_s cpu_s", ("verify_smt",)),
    # smt: encoder, bit-blaster, CNF, preprocessor, CDCL
    _m("smt.encode_s", "s", "lower", "pass_s cpu_s", ("verify_smt",)),
    _m("smt.bitblast_cnf_s", "s", "lower", "pass_s cpu_s", ("verify_smt",)),
    _m("smt.preprocess_s", "s", "lower", "pass_s cpu_s", ("verify_smt",)),
    _m("smt.sat_s", "s", "lower", "pass_s cpu_s", ("verify_smt",)),
    _m("smt.decode_s", "s", "lower", "pass_s cpu_s", ("verify_smt",)),
    _m("smt.vars", "count", "lower", "pass_s cpu_s", ("verify_smt",), exact=True),
    _m("smt.clauses", "count", "lower", "pass_s cpu_s", ("verify_smt",), exact=True),
    _m("smt.clauses_after_pre", "count", "lower", "pass_s cpu_s", ("verify_smt",), exact=True),
    _m("smt.conflicts", "count", "lower", "pass_s cpu_s", ("verify_smt",), exact=True),
    _m("smt.propagations", "count", "lower", "pass_s cpu_s", ("verify_smt",), exact=True),
    _m("smt.props_per_s", "1/s", "higher", "pass_s cpu_s", ("verify_smt",)),
    # partition: cutter and modular verification
    _m("partition.plan_s", "s", "lower", "pass_s", ("verify_smt",)),
    _m("partition.verify_s", "s", "lower", "pass_s", ("verify_smt",)),
    _m("partition.fragments", "count", "lower", "pass_s", ("verify_smt",), exact=True),
    _m("partition.cut_edges", "count", "lower", "pass_s", ("verify_smt",), exact=True),
    _m("partition.escalations", "count", "lower", "pass_s", ("verify_smt",), exact=True),
    # parallel: the process pool
    _m("parallel.roundtrip_s", "s", "lower", "pass_s", ("fault_wan_j2",)),
    _m("parallel.task_bytes", "B", "lower", "pass_s", ("fault_wan_j2",)),
    _m("parallel.result_bytes", "B", "lower", "pass_s", ("fault_wan_j2",)),
    _m("parallel.units", "count", "lower", "pass_s", ("fault_wan_j2",), exact=True),
    _m("parallel.utilization", "ratio", "higher", "pass_s", ("fault_wan_j2",)),
    _m("parallel.speedup", "ratio", "higher", "pass_s", ("fault_wan_j2",)),
    _m("parallel.cpu_inflation", "ratio", "lower", "cpu_s", ("fault_wan_j2",)),
    # harness: noise floor and tracing-overhead bookkeeping (moves nothing)
    _m("harness.passes", "count", "higher", "none", ()),
    _m("harness.pass_median_s", "s", "lower", "none", ()),
    _m("harness.pass_iqr_s", "s", "lower", "none", ()),
    _m("harness.traced_pass_s", "s", "lower", "none", ()),
    _m("harness.trace_overhead_s", "s", "lower", "none", ()),
    _m("harness.trace_coverage", "ratio", "higher", "none", ()),
)


def noop_factory(payload):
    """Worker factory for ``parallel.roundtrip_s``: the pool's fixed cost
    (spawn, one task and one result through the queues, join)."""
    return lambda unit: unit


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def root_of(spans: list[dict]) -> dict:
    return next(s for s in spans if s["parent"] is None)


def coverage(spans: list[dict]) -> float:
    """Share of the traced wall (the ``cli.main`` span) that lies inside
    some layer's span, i.e. is not ``cli.main``'s own self time."""
    root = root_of(spans)
    if root["busy"] <= 0:
        return 0.0
    return 1.0 - self_times(spans)[root["id"]] / root["busy"]


def from_traces(traces: list[dict]) -> dict[str, float]:
    """Layer metrics that come from the traced children, summed over a
    workload's inputs (the runner adds cli.*, parallel.roundtrip/speedup
    and harness.* itself)."""
    busy: dict[str, float] = {}
    counters: dict[str, float] = {}
    counts: dict[str, float] = {}
    for t in traces:
        for k, v in busy_by_name(t["spans"]).items():
            busy[k] = busy.get(k, 0.0) + v
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in t["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k.endswith("_max") \
                else counts.get(k, 0) + v
    ops = sum(s["count"] for t in traces for s in t["spans"]
              if s["name"] == "bdd.op")
    ledgers = [l for t in traces for l in t["ledgers"]]
    fault_ledgers = [l for l in ledgers if l["label"] == "fault"]
    unsharded = sum(t["extra"].get("fault_unsharded_s", 0.0) for t in traces)
    fault_s = busy.get("analysis.fault", 0.0)
    sat_s = busy.get("smt.sat", 0.0)
    c = counters.get
    return {
        "lang.tokenize_s": busy.get("lang.tokenize", 0.0),
        "lang.parse_s": busy.get("lang.parse", 0.0) - busy.get("lang.tokenize", 0.0),
        "lang.typecheck_s": busy.get("lang.typecheck", 0.0),
        "lang.source_bytes": counts.get("lang.source_bytes", 0),
        "lang.ast_nodes": counts.get("lang.ast_nodes", 0),
        "frontend.parse_config_s": busy.get("frontend.parse_config", 0.0),
        "frontend.translate_s": busy.get("frontend.translate", 0.0),
        "frontend.routers": counts.get("frontend.routers", 0),
        "frontend.nv_bytes": counts.get("frontend.nv_bytes", 0),
        "transform.lower_s": busy.get("transform.lower", 0.0),
        "transform.inline_s": busy.get("transform.inline", 0.0),
        "transform.partial_eval_s": busy.get("transform.partial_eval", 0.0),
        "transform.ast_nodes_in": c("transform.inline_nodes_in", 0),
        "transform.ast_nodes_out": c("transform.partial_eval_nodes_out", 0),
        "eval.interp_setup_s": busy.get("eval.interp_setup", 0.0),
        "eval.compile_s": busy.get("eval.compile", 0.0),
        "srp.simulate_s": busy.get("srp.simulate", 0.0),
        "srp.activations": c("sim.activations", 0),
        "srp.messages": c("sim.messages", 0),
        "srp.merge_memo_hit_ratio": _ratio(c("sim.merge_cache_hits", 0),
                                           c("sim.merge_cache_misses", 0)),
        "bdd.op_s": busy.get("bdd.op", 0.0),
        "bdd.ops": ops,
        "bdd.nodes": c("bdd.nodes", 0),
        "bdd.apply_hit_ratio": _ratio(c("bdd.apply_cache_hits", 0),
                                      c("bdd.apply_cache_misses", 0)),
        "bdd.op_cache_hit_ratio": _ratio(c("bdd.op_cache_hits", 0),
                                         c("bdd.op_cache_misses", 0)),
        "bdd.frontier_passes": c("bdd.frontier.passes", 0),
        "bdd.snapshot_bytes": counts.get("bdd.snapshot_bytes", 0),
        "analysis.fault_s": fault_s,
        "analysis.fault_unsharded_s": unsharded,
        "analysis.fault_batch_inflation": fault_s / unsharded if unsharded else 0.0,
        "analysis.fault_units": c("fault.batches", 0),
        "analysis.fault_unit_max_s": max(
            (l["longest_unit_seconds"] for l in fault_ledgers), default=0.0),
        "analysis.fault_merge_s": busy.get("analysis.fault_merge", 0.0),
        "analysis.classes_max": counts.get("analysis.classes_max", 0),
        "analysis.verify_s": busy.get("analysis.verify", 0.0),
        "smt.encode_s": busy.get("smt.encode", 0.0),
        "smt.bitblast_cnf_s": busy.get("smt.bitblast_cnf", 0.0),
        "smt.preprocess_s": busy.get("smt.preprocess", 0.0),
        "smt.sat_s": sat_s,
        "smt.decode_s": busy.get("smt.decode", 0.0),
        "smt.vars": counts.get("smt.vars", 0),
        "smt.clauses": c("sat.clauses", 0),
        "smt.clauses_after_pre": counts.get("smt.clauses_after_pre", 0),
        "smt.conflicts": c("sat.conflicts", 0),
        "smt.propagations": c("sat.propagations", 0),
        "smt.props_per_s": c("sat.propagations", 0) / sat_s if sat_s else 0.0,
        "partition.plan_s": busy.get("partition.plan", 0.0),
        "partition.verify_s": busy.get("partition.verify", 0.0),
        "partition.fragments": c("partition.fragments", 0),
        "partition.cut_edges": c("partition.cut_edges", 0),
        "partition.escalations": c("partition.escalations", 0),
        "parallel.task_bytes": sum(l["task_bytes"] for l in ledgers),
        "parallel.result_bytes": sum(l["result_bytes"] for l in ledgers),
        "parallel.units": sum(l["units_done"] for l in ledgers),
        "parallel.utilization": (
            sum(l["busy_seconds"] for l in ledgers)
            / sum(l["workers"] * l["window_seconds"] for l in ledgers)
            if any(l["window_seconds"] for l in ledgers) else 0.0),
        "harness.traced_pass_s": sum(root_of(t["spans"])["busy"] for t in traces),
        "harness.trace_coverage": min(coverage(t["spans"]) for t in traces),
    }


def layer_self_times(traces: list[dict]) -> dict[str, float]:
    """Per-layer self time summed over a workload's traced inputs; with
    ``cli.overhead_s`` these add up to ``pass_s`` (the reconciliation the
    README describes)."""
    out: dict[str, float] = {}
    for t in traces:
        for layer, value in self_by_layer(t["spans"]).items():
            out[layer] = out.get(layer, 0.0) + value
    return out
