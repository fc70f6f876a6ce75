"""Fault-tolerance analysis driver (paper §2.7, §6.3).

Runs the fig 5 meta-protocol: transform the network program so attributes are
maps from failure scenarios to routes, simulate once, then read the converged
MTBDDs.  Each distinct leaf of a node's map is one *failure-equivalence
class* — the classes the paper says its analysis discovers dynamically — and
the key-count per leaf is the class size.

The driver also checks the base program's assertion on every class and can
produce a concrete witness scenario per violating class.

The meta-protocol is simulated once, in-process, at any worker count: its
scenarios share their per-link sub-diagrams, so any split of the scenario
space rebuilds them in every part (DESIGN.md "Why the meta-protocol is not
sharded by scenario").  Two analyses whose units share nothing fan out over
:mod:`repro.parallel` worker processes instead:

* :func:`per_prefix_fault_tolerance` runs one full analysis per
  destination-prefix program (fig 13c);
* :func:`naive_fault_tolerance` runs the §2.7 baseline's
  one-simulation-per-scenario loop.

Hash-consed MTBDD state never crosses the process boundary: workers are
seeded with the (picklable) base program and rebuild their own
:class:`MapContext`; only the plain-value class reports travel back.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Sequence

from .. import metrics, obs, parallel, perf
from .._struct import field, struct
from ..eval.encoding import edge_order_key
from ..eval.interp import Interpreter, program_env
from ..eval.maps import FrozenMap, MapContext, NVMap, freeze_value
from ..eval.values import VRecord, VSome
from ..lang import types as T
from ..srp.network import Network, functions_from_program
from ..srp.simulate import simulate
from ..transform.fault_tolerance import fault_tolerance_transform, scenario_key_type


@struct
class NodeFaultReport:
    node: int
    # Each entry: (route value, number of scenarios with that route, ok?).
    classes: list[tuple[Any, int, bool]]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def violating_scenarios(self) -> int:
        return sum(count for _, count, ok in self.classes if not ok)


@struct
class FaultReport:
    num_link_failures: int
    node_failures: bool
    nodes: list[NodeFaultReport]
    simulate_seconds: float
    transform_seconds: float
    witnesses: dict[int, Any] = field(default_factory=dict)

    @property
    def total_violations(self) -> int:
        return sum(n.violating_scenarios for n in self.nodes)

    @property
    def fault_tolerant(self) -> bool:
        return self.total_violations == 0

    @property
    def max_classes(self) -> int:
        return max((n.num_classes for n in self.nodes), default=0)

    def summary(self) -> str:
        status = "FAULT TOLERANT" if self.fault_tolerant else (
            f"{self.total_violations} violating scenario keys")
        return (f"{self.num_link_failures}-link"
                f"{'+node' if self.node_failures else ''} failures: {status}; "
                f"max classes/node = {self.max_classes}; "
                f"simulate {self.simulate_seconds:.3f}s")


def fault_tolerance_analysis(net: Network,
                             symbolics: dict[str, Any] | None = None,
                             num_link_failures: int = 1,
                             node_failures: bool = False,
                             with_witnesses: bool = False,
                             functions_factory=None,
                             drop_body=None) -> FaultReport:
    """Simulate all failure scenarios of ``net`` at once and check its
    assertion under every one of them.

    ``functions_factory`` optionally overrides how the transformed program is
    turned into executable functions (the compiled backend passes its own).

    Each node's classes are listed in ascending :func:`route_order_key`
    order and its witness is the smallest violating scenario key in encoder
    bit order (``any_sat`` walks lo-first).
    """
    t0 = perf_counter()
    with obs.span("fault.transform", link_failures=num_link_failures,
                  node_failures=node_failures):
        ft_net = fault_tolerance_transform(net, num_link_failures,
                                           node_failures, drop_body=drop_body)
    transform_seconds = perf_counter() - t0

    with obs.span("fault.setup"):
        ctx = MapContext(ft_net.num_nodes, ft_net.edges)
        interp = Interpreter(ctx)
        if functions_factory is None:
            funcs = functions_from_program(ft_net, symbolics, ctx=ctx,
                                           interp=interp)
        else:
            funcs = functions_factory(ft_net, symbolics, ctx, interp)

    t0 = perf_counter()
    with obs.span("sim.simulate", nodes=ft_net.num_nodes,
                  edges=len(ft_net.edges)) as sp:
        solution = simulate(funcs)
        if sp is not None:
            sp.attrs.update(activations=solution.iterations,
                            messages=solution.messages)
    simulate_seconds = perf_counter() - t0

    # Flush the diagram-engine work counters for this run (fig 13b reports
    # BDD op-cache hit rates alongside the scaling curve).
    perf.merge(ctx.manager.stats(), prefix="bdd.")
    metrics.flush_kernel(ctx.manager)
    perf.merge({"transform_seconds": transform_seconds,
                "simulate_seconds": simulate_seconds}, prefix="fault.")

    # The base assertion lives on as `assertBase` in the transformed program.
    env = program_env(ft_net.program, interp, symbolics)
    assert_base = env.get("assertBase")

    def check(u: int, attr: Any) -> bool:
        if assert_base is None:
            return True
        return bool(interp.apply(interp.apply(assert_base, u), attr))

    reports: list[NodeFaultReport] = []
    witnesses: dict[int, Any] = {}
    key_ty = scenario_key_type(num_link_failures, node_failures)
    # Classes are counted over the valid scenario keys only.
    restrict = ctx.domain(key_ty)
    with obs.span("fault.classes", witnesses=with_witnesses) as sp:
        width = ctx.encoder.width(key_ty)
        violating: list[tuple[int, NVMap]] = []
        for u in range(ft_net.num_nodes):
            label = solution.labels[u]
            assert isinstance(label, NVMap)
            groups = ctx.manager.leaf_groups(label.root, width, restrict)
            classes = sorted(((value, count, check(u, value))
                              for value, count in groups.items()),
                             key=_class_order_key)
            reports.append(NodeFaultReport(u, classes))
            if with_witnesses and any(not ok for _, _, ok in classes):
                violating.append((u, label))
        if violating:
            witnesses.update(
                _violation_witnesses(violating, key_ty, check, restrict))
        if sp is not None:
            sp.attrs["max_classes"] = max(
                (n.num_classes for n in reports), default=0)

    return FaultReport(num_link_failures, node_failures, reports,
                       simulate_seconds, transform_seconds, witnesses)


def route_order_key(value: Any) -> Any:
    """Sort key putting route values in one total order, the same for a
    live value and its frozen snapshot: ``None`` before ``Some``, integers
    (booleans, nodes) numerically, tuples, edges and records field by field,
    maps by their canonical snapshot blob and then their leaves.  Class
    lists are sorted by it, so a report and its frozen snapshot list their
    classes in the same order."""
    if value is None:
        return (0,)
    if isinstance(value, VSome):
        return (1, route_order_key(value.value))
    if isinstance(value, tuple):
        return tuple(route_order_key(v) for v in value)
    if isinstance(value, VRecord):
        return tuple(route_order_key(v) for _, v in value.fields)
    if isinstance(value, NVMap):
        value = freeze_value(value)
    if isinstance(value, FrozenMap):
        return (value.nodes, tuple(route_order_key(v) for v in value.leaves))
    return value


def _class_order_key(cls: tuple[Any, int, bool]) -> Any:
    return route_order_key(cls[0])


def _violation_witnesses(items: Sequence[tuple[int, NVMap]], key_ty: T.Type,
                         check, restrict: int) -> dict[int, Any]:
    """Witness scenarios for ``(node, label)`` pairs: each node's ``bad``
    indicator map, then one sat path through it inside ``restrict`` (the
    valid-key domain) per node."""
    ctx = items[0][1].ctx
    mgr = ctx.manager
    bads = [mgr.apply1(lambda value, _u=u: not check(_u, value), label.root)
            for u, label in items]
    width = ctx.encoder.width(key_ty)
    out: dict[int, Any] = {}
    for (u, _label), bad in zip(items, bads):
        assignment = mgr.any_sat(mgr.band(bad, restrict), width)
        if assignment is not None:
            bits = [assignment[i] for i in range(width)]
            out[u] = ctx.encoder.decode(key_ty, bits)
    return out


# ----------------------------------------------------------------------
# Sharded execution (repro.parallel fan-out)
# ----------------------------------------------------------------------

def freeze_fault_report(report: FaultReport) -> FaultReport:
    """Make a fault report transportable: every route value (class
    representatives, witnesses) has its live :class:`NVMap`s replaced by
    picklable :class:`~repro.eval.maps.FrozenMap` snapshots.  Reports with
    map-free routes come back with the same values."""
    nodes = [NodeFaultReport(
        n.node, [(freeze_value(v), count, ok) for v, count, ok in n.classes])
        for n in report.nodes]
    witnesses = {u: freeze_value(w) for u, w in report.witnesses.items()}
    return FaultReport(report.num_link_failures, report.node_failures, nodes,
                       report.simulate_seconds, report.transform_seconds,
                       witnesses)


def _scenario_order_key(key_ty: T.Type, key: Any) -> Any:
    """Sort key putting decoded scenario keys in encoder bit order: components
    most significant first, a node by its id, an edge by its index among the
    network's edges (not by its endpoint pair)."""
    if isinstance(key_ty, T.TEdge):
        return edge_order_key(key)
    if isinstance(key_ty, T.TTuple):
        return tuple(_scenario_order_key(t, k) for t, k in zip(key_ty.elts, key))
    return key


def merge_fault_reports(reports: Sequence[FaultReport]) -> FaultReport:
    """Combine reports over disjoint slices of one scenario space into the
    report of the whole space.

    Per node, class counts for equal route values are summed and the
    classes are listed in ascending :func:`route_order_key` order — the
    order :func:`fault_tolerance_analysis` emits.  A node's witness is the
    smallest violating scenario key over all reports in encoder bit order
    (:func:`_scenario_order_key`), which is the key ``any_sat`` finds on
    the whole space.  Timings accumulate — they are total work, not wall
    clock.

    Nothing splits the meta-protocol any more; the function stays, with
    its witness-order test, because the benchmark harness
    (``benchmarks/e2e/trace_child.py``) hooks it by name until the
    re-baseline of ROADMAP item 2.
    """
    if not reports:
        raise ValueError("no fault reports to merge")
    first = reports[0]
    merged_nodes: list[NodeFaultReport] = []
    for u in range(len(first.nodes)):
        combined: dict[Any, list[Any]] = {}
        for report in reports:
            for value, count, ok in report.nodes[u].classes:
                entry = combined.get(value)
                if entry is None:
                    combined[value] = [count, ok]
                else:
                    entry[0] += count
        merged_nodes.append(NodeFaultReport(u, sorted(
            ((value, count, ok) for value, (count, ok) in combined.items()),
            key=_class_order_key)))
    key_ty = scenario_key_type(first.num_link_failures, first.node_failures)
    witnesses: dict[int, Any] = {}
    for report in reports:
        for u, witness in report.witnesses.items():
            if u not in witnesses or (
                    _scenario_order_key(key_ty, witness)
                    < _scenario_order_key(key_ty, witnesses[u])):
                witnesses[u] = witness
    return FaultReport(
        first.num_link_failures, first.node_failures, merged_nodes,
        sum(r.simulate_seconds for r in reports),
        sum(r.transform_seconds for r in reports),
        witnesses)


def fault_tolerance_sharded(net: Network,
                            symbolics: dict[str, Any] | None = None,
                            **options: Any) -> FaultReport:
    """The ``fault`` command's entry point: :func:`fault_tolerance_analysis`,
    run once, in-process, at any worker count (``options`` are its keyword
    arguments).  The name is kept until the re-baseline of ROADMAP item 2
    renames the benchmark harness hook that resolves it."""
    return fault_tolerance_analysis(net, symbolics, **options)


def _prefix_shard_factory(payload: dict[str, Any]):
    """Worker-side factory for :func:`per_prefix_fault_tolerance`: one full
    fig 5 analysis per destination-prefix program (the fig 13c
    "separate prefixes" decomposition)."""
    nets: list[Network] = payload["nets"]

    def run(idx: int) -> FaultReport:
        return freeze_fault_report(fault_tolerance_analysis(
            nets[idx], payload["symbolics"],
            num_link_failures=payload["num_link_failures"],
            node_failures=payload["node_failures"],
            with_witnesses=payload["with_witnesses"],
            drop_body=payload["drop_body"]))

    return run


def per_prefix_fault_tolerance(nets: Sequence[Network],
                               symbolics: dict[str, Any] | None = None,
                               num_link_failures: int = 1,
                               node_failures: bool = False,
                               with_witnesses: bool = False,
                               drop_body=None,
                               jobs: int | None = 1,
                               unit_labels: Sequence[str] | None = None
                               ) -> list[FaultReport]:
    """One fault-tolerance analysis per destination prefix, sharded over
    worker processes (the paper's fig 13c single-prefix mode).  Reports come
    back in input order regardless of completion order.  ``unit_labels``
    names each prefix program in unit spans and the work ledger."""
    payload = {
        "nets": list(nets), "symbolics": symbolics,
        "num_link_failures": num_link_failures,
        "node_failures": node_failures,
        "with_witnesses": with_witnesses,
        "drop_body": drop_body,
    }
    return parallel.run_sharded(
        "repro.analysis.fault:_prefix_shard_factory", payload,
        range(len(payload["nets"])), jobs=jobs, label="fault.prefix",
        unit_labels=unit_labels)


def _naive_scenario_violates(net: Network, symbolics: dict[str, Any] | None,
                             failed: tuple[int, int]) -> bool:
    """Simulate one concrete failure scenario; True iff the assertion is
    violated somewhere."""
    funcs = functions_from_program(net, symbolics)
    base_trans = funcs.trans

    def trans(edge, x, _failed=failed):
        if edge == _failed or edge == (_failed[1], _failed[0]):
            return None
        return base_trans(edge, x)

    funcs.trans = trans
    solution = simulate(funcs)
    return bool(solution.check_assertions(funcs.assert_fn))


def _naive_shard_factory(payload: dict[str, Any]):
    net: Network = payload["net"]
    symbolics = payload["symbolics"]
    return lambda failed: _naive_scenario_violates(net, symbolics, failed)


def naive_fault_tolerance(net: Network,
                          symbolics: dict[str, Any] | None = None,
                          num_link_failures: int = 1,
                          jobs: int | None = 1) -> tuple[bool, int]:
    """The baseline the paper calls "orders-of-magnitude" slower: simulate
    each failure scenario independently (§2.7).  Returns (tolerant?, number
    of scenarios simulated).  Single-link failures only.

    Scenarios are independent, so ``jobs > 1`` fans them out over a
    :mod:`repro.parallel` pool; the answer is identical at any job count.
    """
    if num_link_failures != 1:
        raise NotImplementedError("the naive baseline enumerates single failures")
    units = list(net.edges)
    violations = parallel.run_sharded(
        "repro.analysis.fault:_naive_shard_factory",
        {"net": net, "symbolics": symbolics}, units,
        jobs=jobs, label="fault.naive",
        unit_labels=[f"fail({u},{v})" for u, v in units])
    return (not any(violations)), len(units)


# ----------------------------------------------------------------------
# SMT fault tolerance: per-scenario assumption queries (fig 13a's encoding)
# ----------------------------------------------------------------------

@struct
class SmtScenarioResult:
    """Verdict for one concrete failure scenario."""

    failed_links: tuple[tuple[int, int], ...]
    status: str                       # "verified" | "counterexample" | "unknown"
    node_attrs: dict[int, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "verified"


@struct
class SmtFaultReport:
    """Per-scenario SMT fault-tolerance verdicts (cf. :class:`FaultReport`,
    which derives equivalence classes from one MTBDD simulation)."""

    num_link_failures: int
    scenarios: list[SmtScenarioResult]
    encode_seconds: float
    solve_seconds: float

    @property
    def violations(self) -> int:
        return sum(1 for s in self.scenarios if s.status == "counterexample")

    @property
    def fault_tolerant(self) -> bool:
        return all(s.ok for s in self.scenarios)

    def summary(self) -> str:
        status = ("FAULT TOLERANT" if self.fault_tolerant
                  else f"{self.violations} violating scenarios")
        return (f"{self.num_link_failures}-link failures over "
                f"{len(self.scenarios)} scenarios (incremental SMT): {status}; "
                f"encode {self.encode_seconds:.3f}s, "
                f"solve {self.solve_seconds:.3f}s")


def _failure_scenarios(num_links: int, max_failures: int
                       ) -> list[tuple[int, ...]]:
    """All link-failure scenarios up to ``max_failures`` simultaneous
    failures, starting with the no-failure scenario, in deterministic
    order."""
    import itertools as _it

    out: list[tuple[int, ...]] = [()]
    for r in range(1, max_failures + 1):
        out.extend(_it.combinations(range(num_links), r))
    return out


def fault_tolerance_smt(net: Network, num_link_failures: int = 1,
                        simplify: bool = True,
                        max_conflicts: int | None = None
                        ) -> SmtFaultReport:
    """Check the assertion for every concrete failure scenario via SMT.

    The network is rewritten with one symbolic boolean per physical link
    (:func:`repro.transform.fault_tolerance.symbolic_failures_program`) and
    the stable-state system plus negated property are encoded **once**;
    each scenario is then a conjunction of assumption literals fixing every
    ``fail{i}`` bit, flipped per query on a persistent incremental solver —
    the shared encoding, preprocessing and learnt clauses amortise across
    the whole scenario batch.  A fresh :func:`~repro.analysis.verify.verify`
    of ``symbolic_failures_program(net)`` with the ``fail{i}`` bits bound
    through ``symbolics`` decides one scenario alone (the equivalence gate
    holds the batch to it).  Each counterexample is replayed through the
    interpreter under its scenario's failure bits before it is returned
    (:func:`~repro.analysis.verify.replay`).
    """
    from ..transform.fault_tolerance import symbolic_failures_program
    from ..smt.solver import Solver
    from ..smt.terms import TermManager
    from .verify import _result_from_smt, encode_network, replay

    links = net.links if net.links else tuple(net.edges)
    scenarios = _failure_scenarios(len(links), num_link_failures)
    prog = symbolic_failures_program(net, max_failures=num_link_failures)
    sym_net = Network.from_program(prog)

    def scenario_term(tm: Any, enc: Any, failed: tuple[int, ...]) -> int:
        term = tm.true
        for i in range(len(links)):
            _, tval = enc.symbolic_vals[f"fail{i}"]
            bit = tval.leaf
            term = tm.mk_and(term, bit if i in failed else tm.mk_not(bit))
        return term

    def scenario_result(enc: Any, smt: Any, failed: tuple[int, ...]
                        ) -> SmtScenarioResult:
        result = _result_from_smt(sym_net, enc, smt, 0.0)
        if result.status == "counterexample":
            # The scenario's failure bits, not the model's, are what the
            # decoded state must be stable and violating under.
            replay(sym_net, {**result.counterexample,
                             **{f"fail{i}": i in failed
                                for i in range(len(links))}},
                   result.node_attrs)
        return SmtScenarioResult(tuple(links[i] for i in failed),
                                 result.status, result.node_attrs or {})

    t0 = perf_counter()
    with obs.span("fault.smt_encode", scenarios=len(scenarios)):
        tm = TermManager(simplify=simplify)
        solver = Solver(tm, incremental=True)
        enc, _, prop = encode_network(sym_net, simplify=simplify, tm=tm)
        for c in enc.constraints:
            solver.add(c)
        solver.add(tm.mk_not(prop))
        terms = [scenario_term(tm, enc, failed) for failed in scenarios]
        solver.select(terms)
    encode_seconds = perf_counter() - t0

    t0 = perf_counter()
    results = [scenario_result(enc, solver.check_assuming(term, max_conflicts),
                               failed)
               for failed, term in zip(scenarios, terms)]
    solve_seconds = perf_counter() - t0

    perf.merge({"smt_scenarios": len(scenarios)}, prefix="fault.")
    return SmtFaultReport(num_link_failures, results, encode_seconds,
                          solve_seconds)
