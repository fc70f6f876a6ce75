"""Fault-tolerance analysis driver (paper §2.7, §6.3).

Runs the fig 5 meta-protocol: transform the network program so attributes are
maps from failure scenarios to routes, simulate once, then read the converged
MTBDDs.  Each distinct leaf of a node's map is one *failure-equivalence
class* — the classes the paper says its analysis discovers dynamically — and
the key-count per leaf is the class size.

The driver also checks the base program's assertion on every class and can
produce a concrete witness scenario per violating class.

Two sharded variants fan the work out over :mod:`repro.parallel` worker
processes:

* :func:`fault_tolerance_sharded` sizes the decomposition to the worker
  pool: ``min(jobs, physical links)`` units.  One unit is the unrestricted
  analysis above, run in-process — the paper's "simulate once".  N units
  partition the *scenario space* by the first failed link, one batch per
  worker: each simulates a batch-restricted meta-protocol (out-of-batch
  scenarios collapse onto no-failure leaves) and counts classes only over
  its own batch.  A batch costs most of a full run (the per-link
  sub-diagrams are shared by hash-consing and every batch rebuilds them),
  so units beyond the worker count would be pure duplicated work.  The
  *report* does not depend on the decomposition — see
  :func:`merge_fault_reports` for the class order and witness rule that
  guarantee it; the *work* (and every work counter) does.
* :func:`naive_fault_tolerance` optionally shards the §2.7 baseline's
  one-simulation-per-scenario loop over the same pool.

Hash-consed MTBDD state never crosses the process boundary: workers are
seeded with the (picklable) base program and rebuild their own
:class:`MapContext`; only the plain-value class reports travel back.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Sequence

from .. import metrics, obs, parallel, perf, telemetry
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
                             drop_body=None,
                             link_batch: Sequence[tuple[int, int]] | None = None
                             ) -> FaultReport:
    """Simulate all failure scenarios of ``net`` at once and check its
    assertion under every one of them.

    ``functions_factory`` optionally overrides how the transformed program is
    turned into executable functions (the compiled backend passes its own).

    ``link_batch`` restricts the analysis to the scenarios whose first
    failed link is one of the given physical links (one unit of a
    :func:`fault_tolerance_sharded` run with several workers): classes and
    witnesses are then counted only over that slice of the scenario space.

    Restricted or not, each node's classes are listed in ascending
    :func:`route_order_key` order and its witness is the smallest violating
    scenario key of the slice in encoder bit order (``any_sat`` walks
    lo-first) — the two conventions :func:`merge_fault_reports` relies on.
    """
    t0 = perf_counter()
    with metrics.phase("fault.transform"), \
         obs.span("fault.transform", link_failures=num_link_failures,
                  node_failures=node_failures):
        ft_net = fault_tolerance_transform(net, num_link_failures,
                                           node_failures, drop_body=drop_body,
                                           link_batch=link_batch)
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
    with metrics.phase("fault.simulate"), \
         obs.span("sim.simulate", nodes=ft_net.num_nodes,
                  edges=len(ft_net.edges)) as sp:
        solution = simulate(funcs)
        if sp is not None:
            sp.attrs.update(activations=solution.iterations,
                            messages=solution.messages)
    simulate_seconds = perf_counter() - t0

    # Flush the diagram-engine work counters for this run (fig 13b reports
    # BDD op-cache hit rates alongside the scaling curve).
    perf.merge(ctx.manager.stats(), prefix="bdd.")
    telemetry.flush(ctx.manager)
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
    # The key slice classes are counted over: the full valid-key domain, or
    # its intersection with the batch-membership BDD under sharding.
    restrict = ctx.domain(key_ty)
    if link_batch is not None:
        restrict = ctx.manager.band(
            restrict, _batch_member_bdd(ctx, node_failures, link_batch))
    with metrics.phase("fault.classes"), \
         obs.span("fault.classes", witnesses=with_witnesses,
                  batched=link_batch is not None) as sp:
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
    lists are sorted by it, which is what makes them independent of how the
    scenario space was decomposed."""
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
                         check, restrict: int | None = None) -> dict[int, Any]:
    """Witness scenarios for ``(node, label)`` pairs: each node's ``bad``
    indicator map, then one sat path through it per node."""
    ctx = items[0][1].ctx
    mgr = ctx.manager
    if restrict is None:
        restrict = ctx.domain(key_ty)
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


def _batch_member_bdd(ctx: MapContext, node_failures: bool,
                      link_batch: Sequence[tuple[int, int]]) -> int:
    """Boolean BDD over the scenario-key bits selecting the scenarios whose
    first failed link belongs to ``link_batch`` (either orientation).

    The first edge component sits at bit offset 0 (or after the failed-node
    bits when ``node_failures``); its encoding is the edge's index among the
    network's directed edges (see :mod:`repro.eval.encoding`).
    """
    mgr = ctx.manager
    enc = ctx.encoder
    offset = enc.node_width if node_failures else 0
    out = mgr.false
    for u, v in link_batch:
        for a, b in ((u, v), (v, u)):
            cube = mgr.true
            for i, bit in enumerate(enc.encode(T.TEdge(), (a, b))):
                var = mgr.var(offset + i)
                cube = mgr.band(cube, var if bit else mgr.bnot(var))
            out = mgr.bor(out, cube)
    return out


# ----------------------------------------------------------------------
# Sharded execution (repro.parallel fan-out)
# ----------------------------------------------------------------------

def _native_functions_factory(ft_net, symbolics, ctx, interp):
    """The compiled-backend functions factory (module-level so shard worker
    payloads can name backends by string instead of pickling callables)."""
    from ..eval.compile_py import compile_network_functions

    return compile_network_functions(ft_net, symbolics, ctx=ctx)


def _factory_for_backend(backend: str):
    if backend == "interp":
        return None
    if backend == "native":
        return _native_functions_factory
    raise ValueError(f"unknown backend {backend!r}; use 'interp' or 'native'")


def physical_links(net: Network) -> tuple[tuple[int, int], ...]:
    """The network's undirected physical links (derived from the directed
    edge set when the program did not record them)."""
    if net.links:
        return tuple(net.links)
    seen: set[tuple[int, int]] = set()
    links: list[tuple[int, int]] = []
    for u, v in net.edges:
        key = (u, v) if u <= v else (v, u)
        if key not in seen:
            seen.add(key)
            links.append(key)
    return tuple(links)


def link_batches(net: Network, n: int
                 ) -> list[tuple[tuple[int, int], ...]]:
    """Partition the physical links into ``min(n, links)`` contiguous
    batches of near-equal size (none for a network without links).  The
    sharded driver passes its worker count: one batch per worker."""
    if n < 1:
        raise ValueError(f"link_batches needs at least one batch, got {n}")
    links = physical_links(net)
    if not links:
        return []
    n = min(n, len(links))
    base, extra = divmod(len(links), n)
    out: list[tuple[tuple[int, int], ...]] = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        out.append(links[start:start + size])
        start += size
    return out


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


def _fault_shard_factory(payload: dict[str, Any]):
    """Worker-side factory for :func:`fault_tolerance_sharded`: one
    batch-restricted fig 5 analysis per unit.  The MapContext/BDD manager is
    rebuilt here, per process — it never crosses the fork/spawn boundary;
    results are frozen (maps snapshotted) before they travel back."""
    net: Network = payload["net"]
    factory = _factory_for_backend(payload["backend"])

    def run(batch: tuple[tuple[int, int], ...]) -> FaultReport:
        return freeze_fault_report(fault_tolerance_analysis(
            net, payload["symbolics"],
            num_link_failures=payload["num_link_failures"],
            node_failures=payload["node_failures"],
            with_witnesses=payload["with_witnesses"],
            functions_factory=factory,
            drop_body=payload["drop_body"],
            link_batch=batch))

    return run


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
    """Combine batch-restricted reports into one full-scenario-space report
    that does not depend on how the space was cut into batches.

    Per node, class counts for equal route values are summed across batches
    (batches partition the scenario space, so the sums are exact) and the
    classes are listed in ascending :func:`route_order_key` order — the
    order the unrestricted analysis emits.  A node's witness is the
    smallest violating scenario key over all batches in encoder bit order
    (:func:`_scenario_order_key`), which is the key ``any_sat`` finds on the
    unrestricted run.  Timings accumulate — they are total work, not wall
    clock.
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
                            num_link_failures: int = 1,
                            node_failures: bool = False,
                            with_witnesses: bool = False,
                            drop_body=None,
                            backend: str = "interp",
                            jobs: int | None = 1,
                            batches: int | None = None,
                            start_method: str | None = None) -> FaultReport:
    """Fig 5 analysis sized to the worker pool: ``min(jobs, physical
    links)`` units (``jobs=None`` resolves ``NV_JOBS`` / CPU count).

    One unit — ``jobs=1``, a single-link network, or node failures alone
    (``num_link_failures=0``: no link component to split on) — is the
    unrestricted :func:`fault_tolerance_analysis` run in-process: one
    meta-protocol simulation, no batch predicate, no pool.  N units
    partition the scenario space by the first failed link
    (:func:`link_batches`), one batch-restricted simulation per worker,
    merged by :func:`merge_fault_reports`.  The report (classes, counts, witnesses,
    their order) is identical for every decomposition; the work is not —
    each batch repeats most of a full run, so ``fault.batches`` (units
    actually run) and every ``bdd.*`` / ``sim.*`` counter grow with it.

    ``batches`` overrides the unit count (tests and the equivalence gate
    run the same N units in-process and pooled).  Route values come back
    frozen (:func:`freeze_fault_report`) at any unit count.
    """
    jobs = parallel.resolve_jobs(jobs)
    units = (link_batches(net, jobs if batches is None else batches)
             if num_link_failures else [])
    if len(units) <= 1:
        report = freeze_fault_report(fault_tolerance_analysis(
            net, symbolics, num_link_failures=num_link_failures,
            node_failures=node_failures, with_witnesses=with_witnesses,
            functions_factory=_factory_for_backend(backend),
            drop_body=drop_body))
    else:
        payload = {
            "net": net, "symbolics": symbolics,
            "num_link_failures": num_link_failures,
            "node_failures": node_failures,
            "with_witnesses": with_witnesses,
            "drop_body": drop_body, "backend": backend,
        }
        report = merge_fault_reports(parallel.run_sharded(
            "repro.analysis.fault:_fault_shard_factory", payload, units,
            jobs=min(jobs, len(units)), start_method=start_method,
            label="fault",
            unit_labels=[f"batch{i}(n={len(u)})"
                         for i, u in enumerate(units)]))
    perf.merge({"batches": max(1, len(units))}, prefix="fault.")
    return report


def _prefix_shard_factory(payload: dict[str, Any]):
    """Worker-side factory for :func:`per_prefix_fault_tolerance`: one full
    fig 5 analysis per destination-prefix program (the fig 13c
    "separate prefixes" decomposition)."""
    nets: list[Network] = payload["nets"]
    factory = _factory_for_backend(payload["backend"])

    def run(idx: int) -> FaultReport:
        return freeze_fault_report(fault_tolerance_analysis(
            nets[idx], payload["symbolics"],
            num_link_failures=payload["num_link_failures"],
            node_failures=payload["node_failures"],
            with_witnesses=payload["with_witnesses"],
            functions_factory=factory,
            drop_body=payload["drop_body"]))

    return run


def per_prefix_fault_tolerance(nets: Sequence[Network],
                               symbolics: dict[str, Any] | None = None,
                               num_link_failures: int = 1,
                               node_failures: bool = False,
                               with_witnesses: bool = False,
                               drop_body=None,
                               backend: str = "interp",
                               jobs: int | None = 1,
                               start_method: str | None = None,
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
        "drop_body": drop_body, "backend": backend,
    }
    return parallel.run_sharded(
        "repro.analysis.fault:_prefix_shard_factory", payload,
        range(len(payload["nets"])), jobs=jobs, start_method=start_method,
        label="fault.prefix", unit_labels=unit_labels)


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
                          jobs: int | None = 1,
                          start_method: str | None = None) -> tuple[bool, int]:
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
        jobs=jobs, start_method=start_method, label="fault.naive",
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
    incremental: bool

    @property
    def violations(self) -> int:
        return sum(1 for s in self.scenarios if s.status == "counterexample")

    @property
    def fault_tolerant(self) -> bool:
        return all(s.ok for s in self.scenarios)

    def summary(self) -> str:
        status = ("FAULT TOLERANT" if self.fault_tolerant
                  else f"{self.violations} violating scenarios")
        mode = "incremental" if self.incremental else "fresh"
        return (f"{self.num_link_failures}-link failures over "
                f"{len(self.scenarios)} scenarios ({mode} SMT): {status}; "
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
                        incremental: bool = True, simplify: bool = True,
                        max_conflicts: int | None = None,
                        portfolio: int = 1, jobs: int | None = None
                        ) -> SmtFaultReport:
    """Check the assertion for every concrete failure scenario via SMT.

    The network is rewritten with one symbolic boolean per physical link
    (:func:`repro.transform.fault_tolerance.symbolic_failures_program`) and
    the stable-state system plus negated property are encoded **once**;
    each scenario is then a conjunction of assumption literals fixing every
    ``fail{i}`` bit, flipped per query on a persistent incremental solver —
    the shared encoding, preprocessing and learnt clauses amortise across
    the whole scenario batch.  ``incremental=False`` runs the historical
    one-fresh-solver-per-scenario loop instead (the equivalence gate pins
    both modes to identical verdicts).
    """
    from ..transform.fault_tolerance import symbolic_failures_program
    from ..smt.solver import Solver
    from ..smt.terms import TermManager
    from .verify import decode_tval, encode_network

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
        failed_links = tuple(links[i] for i in failed)
        if smt.is_unsat:
            return SmtScenarioResult(failed_links, "verified")
        if smt.status == "unknown":
            return SmtScenarioResult(failed_links, "unknown")
        assignment: dict[str, Any] = {}
        assignment.update(smt.model_bools)
        assignment.update(smt.model_bvs)
        attrs = {u: decode_tval(enc, tval, sym_net.attr_ty, assignment)
                 for u, tval in enc.attr_vals.items()}
        return SmtScenarioResult(failed_links, "counterexample", attrs)

    results: list[SmtScenarioResult] = []
    if incremental:
        t0 = perf_counter()
        with metrics.phase("smt.encode"), \
             obs.span("fault.smt_encode", scenarios=len(scenarios),
                      incremental=True):
            tm = TermManager(simplify=simplify)
            solver = Solver(tm, incremental=True)
            enc, _, prop = encode_network(sym_net, simplify=simplify, tm=tm)
            for c in enc.constraints:
                solver.add(c)
            solver.add(tm.mk_not(prop))
            terms = [scenario_term(tm, enc, failed) for failed in scenarios]
            # Register all selectors before the first solve so CNF
            # preprocessing freezes them (no later melting needed).
            for term in terms:
                solver.push_assumption(term)
            solver.relax()
        encode_seconds = perf_counter() - t0

        t0 = perf_counter()
        for failed, term in zip(scenarios, terms):
            solver.push_assumption(term)
            smt = solver.check(max_conflicts, portfolio=portfolio, jobs=jobs)
            solver.relax()
            results.append(scenario_result(enc, smt, failed))
        solve_seconds = perf_counter() - t0
    else:
        encode_seconds = 0.0
        t0 = perf_counter()
        for failed in scenarios:
            tm = TermManager(simplify=simplify)
            solver = Solver(tm)
            enc, _, prop = encode_network(sym_net, simplify=simplify, tm=tm)
            for c in enc.constraints:
                solver.add(c)
            solver.add(tm.mk_not(prop))
            solver.add(scenario_term(tm, enc, failed))
            smt = solver.check(max_conflicts, portfolio=portfolio, jobs=jobs)
            results.append(scenario_result(enc, smt, failed))
        solve_seconds = perf_counter() - t0

    perf.merge({"smt_scenarios": len(scenarios)}, prefix="fault.")
    return SmtFaultReport(num_link_failures, results, encode_seconds,
                          solve_seconds, incremental)
