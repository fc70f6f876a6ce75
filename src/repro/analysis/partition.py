"""Modular (Kirigami-style) verification driver.

Cut the network into fragments (:mod:`repro.partition.cutter`), annotate
every directed cut edge with an interface (:mod:`repro.partition.interfaces`)
and verify each fragment as its own small SMT instance, fanned out over the
:mod:`repro.parallel` worker pool:

* the fragment containing the *target* of a cut edge **assumes** the
  annotation — the edge's post-transfer message enters the merge chain as
  an interface value constrained by it;
* the fragment containing the *source* must **guarantee** it — an SMT
  obligation that everything it can send across the edge in a stable state
  satisfies the annotation.

Discharging every guarantee plus every fragment's own assertion implies the
monolithic verdict (assume-guarantee over the cut); a failed guarantee
names the violated interface edge.  Unannotated edges are *inferred* from
one cheap whole-network simulation — exact messages of the simulated stable
state.  Inferred interfaces restrict verification to stable states
consistent with that simulation (for deterministic nets: the unique stable
state, so no loss); when an inferred guarantee fails — symbolics, multiple
stable states — the driver escalates to a monolithic :func:`~verify` so the
final verdict is always sound.

Each fragment uses one persistent incremental solver: the fragment is
encoded once, ¬P and each ¬guarantee attach via assumption selectors
(:meth:`Solver.check_assuming`), and learnt clauses carry across the
checks.  Fragments skip CNF preprocessing: unit propagation already
decides them, and the passes would be most of their cost.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Sequence

from .. import metrics, obs, parallel, perf
from .._struct import field, struct
from ..eval.maps import DecodedMap
from ..eval.values import VRecord, VSome
from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvError, NvPartitionError, NvTypeError
from ..lang.parser import parse_expr
from ..partition.cutter import (PartitionPlan, auto_partition,
                                plan_from_cut_links, plan_from_fragments)
from ..partition.interfaces import Annotation, CutSpec
from ..smt.encode_nv import NvSmtEncoder, VerificationResult
from ..smt.solver import Solver
from ..srp.network import Network
from ..topology.graph import Topology
from .simulation import run_simulation
from .verify import (_result_from_smt, decode_tval, encode_network, replay,
                     verify)


# ----------------------------------------------------------------------
# Interface specs: how an annotation manifests inside a fragment encoding
# ----------------------------------------------------------------------

@struct(frozen=True)
class ConcreteInterface:
    """An inferred (or concrete-route) interface: the message crossing the
    edge *is* this value."""

    value: Any

    def materialise(self, enc: NvSmtEncoder, ev: Any, env: dict, edge: tuple) -> Any:
        return enc.lift(self.value, enc.net.attr_ty)

    def obligation(self, enc: NvSmtEncoder, ev: Any, env: dict, edge: tuple,
                   msg: Any) -> int:
        return ev.eq(msg, enc.lift(self.value, enc.net.attr_ty))


@struct(frozen=True)
class ExprInterface:
    """A textual ``route`` annotation: an NV expression (evaluated as the
    ``__iface_u_v`` declaration of the extended program) the message must
    equal."""

    let_name: str

    def materialise(self, enc: NvSmtEncoder, ev: Any, env: dict, edge: tuple) -> Any:
        return enc.lift(env[self.let_name], enc.net.attr_ty)

    def obligation(self, enc: NvSmtEncoder, ev: Any, env: dict, edge: tuple,
                   msg: Any) -> int:
        return ev.eq(msg, enc.lift(env[self.let_name], enc.net.attr_ty))


@struct(frozen=True)
class PredInterface:
    """A ``pred`` annotation: a predicate over the attribute type.  The
    assume side introduces a fresh interface variable constrained by it (the
    message could be anything satisfying the predicate); the guarantee side
    demands the sent message satisfies it."""

    let_name: str

    def materialise(self, enc: NvSmtEncoder, ev: Any, env: dict, edge: tuple) -> Any:
        u, v = edge
        var = enc.make_var(enc.net.attr_ty, f"iface.{u}.{v}")
        holds = ev.apply(env[self.let_name], var)
        enc.constraints.append(ev.to_bool(holds))
        return var

    def obligation(self, enc: NvSmtEncoder, ev: Any, env: dict, edge: tuple,
                   msg: Any) -> int:
        holds = ev.apply(env[self.let_name], msg)
        return ev.to_bool(holds)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@struct
class InterfaceCheck:
    """Outcome of one outbound guarantee discharge."""

    edge: tuple[int, int]
    kind: str                       # "route" | "pred" | "infer"
    status: str                     # "discharged" | "refuted" | "unknown"
    seconds: float
    # On refutation: the fragment's stable state that sends a violating
    # message (node -> decoded attribute).
    witness: dict[int, Any] | None = None


@struct
class FragmentResult:
    """One fragment's property verdict plus its guarantee discharges."""

    index: int
    nodes: tuple[int, ...]
    result: VerificationResult
    guarantees: list[InterfaceCheck]
    encode_seconds: float
    seconds: float

    @property
    def refuted_interfaces(self) -> list[tuple[int, int]]:
        return [g.edge for g in self.guarantees if g.status == "refuted"]


@struct
class PartitionReport:
    """The merged outcome of a partitioned verification run."""

    status: str        # verified | counterexample | interface_refuted | unknown
    verified: bool
    plan: PartitionPlan
    fragments: list[FragmentResult]
    kinds: dict[tuple[int, int], str]
    refuted_interfaces: list[tuple[int, int]] = field(default_factory=list)
    counterexample: dict[str, Any] | None = None
    node_attrs: dict[int, Any] | None = None
    stitched: bool = False          # node_attrs covers the whole network
    escalated: bool = False
    monolithic: VerificationResult | None = None
    inferred: dict[tuple[int, int], Any] = field(default_factory=dict)
    infer_seconds: float = 0.0
    wall_seconds: float = 0.0

    def summary(self) -> str:
        lines = [f"partitioned verify: {self.plan.describe()}, "
                 f"{len(self.inferred)} interfaces inferred"]
        for fr in self.fragments:
            checks = len(fr.guarantees)
            ok = sum(1 for g in fr.guarantees if g.status == "discharged")
            lines.append(
                f"  fragment {fr.index} ({len(fr.nodes)} nodes): "
                f"{fr.result.status}; guarantees {ok}/{checks} discharged, "
                f"{fr.seconds:.3f}s")
        for edge in self.refuted_interfaces:
            lines.append(f"  refuted interface {edge[0]}->{edge[1]} "
                         f"({self.kinds.get(edge, '?')} annotation)")
        if self.escalated:
            mono = self.monolithic.status if self.monolithic else "?"
            lines.append(f"  inferred interface refuted -> escalated to "
                         f"monolithic: {mono}")
        lines.append(f"  => {self.status} ({self.wall_seconds:.3f}s)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Inference: seed interfaces from one whole-network simulation
# ----------------------------------------------------------------------

_NO_KEY = object()


def _untracked_key(key_ty: T.Type, tracked: Sequence[Any], num_nodes: int) -> Any:
    """A key valuation outside the encoding's tracked set, probing a map's
    shared off-tracked default.  Returns :data:`_NO_KEY` when every
    encodable key is tracked (the default is then never compared)."""
    used = set(tracked)
    if isinstance(key_ty, T.TBool):
        candidates: Sequence[Any] = (False, True)
    elif isinstance(key_ty, T.TNode):
        candidates = range(num_nodes)
    elif isinstance(key_ty, T.TInt):
        candidates = range(min(1 << key_ty.width, len(used) + 2))
    else:
        return _NO_KEY
    for c in candidates:
        if c not in used:
            return c
    return _NO_KEY


def _plain_route(value: Any, ty: T.Type,
                 keys: Callable[[T.Type], list[Any]], num_nodes: int) -> Any:
    """Convert a simulated route (possibly holding live MTBDD-backed maps)
    into a picklable plain value: maps unroll to :class:`DecodedMap` over
    the keys the SMT encoding tracks, matching :func:`decode_tval` output."""
    if isinstance(ty, T.TDict):
        tracked = list(keys(ty.key))
        entries = tuple(sorted(
            (k, _plain_route(value.get(k), ty.value, keys, num_nodes))
            for k in tracked))
        probe = _untracked_key(ty.key, tracked, num_nodes)
        if probe is _NO_KEY:
            default = (entries[0][1] if entries else None)
        else:
            default = _plain_route(value.get(probe), ty.value, keys,
                                   num_nodes)
        return DecodedMap(entries, default)
    if isinstance(ty, T.TOption):
        if value is None:
            return None
        return VSome(_plain_route(value.value, ty.elt, keys, num_nodes))
    if isinstance(ty, T.TTuple):
        return tuple(_plain_route(v, t, keys, num_nodes)
                     for v, t in zip(value, ty.elts))
    if isinstance(ty, T.TRecord):
        return VRecord(tuple(
            (n, _plain_route(value.get(n), t, keys, num_nodes))
            for n, t in ty.fields))
    return value


def infer_interfaces(net: Network, edges: Sequence[tuple[int, int]],
                     symbolics: dict[str, Any] | None = None
                     ) -> tuple[dict[tuple[int, int], Any], dict[int, Any]]:
    """Simulate the whole network once and read off the exact message
    crossing each requested directed edge in the converged state.  Returns
    those messages and every node's converged attribute, both as plain
    picklable values (the attributes stitch a whole-network
    counterexample).

    This is the driver's inference mode: one polynomial-time simulation
    seeds every unannotated interface, against which the exponential SMT
    work then happens per small fragment.  Symbolic programs need concrete
    ``symbolics`` for the simulation — and the resulting annotations only
    describe that assignment's stable state, which is why the driver
    re-checks them as guarantees and escalates on failure.
    """
    if net.program.symbolics() and not symbolics:
        raise NvPartitionError(
            "interface inference needs concrete symbolic values "
            "(the simulation pass fixes each symbolic); annotate the cut "
            "edges explicitly or provide symbolics")
    report = run_simulation(net, symbolics, backend="interp")
    labels = report.solution.labels
    trans = report.funcs.trans
    probe = NvSmtEncoder(net)
    probe.collect_map_keys()

    def plain(value: Any) -> Any:
        return _plain_route(value, net.attr_ty, probe.keys, net.num_nodes)

    return ({edge: plain(trans(edge, labels[edge[0]])) for edge in edges},
            {u: plain(label) for u, label in enumerate(labels)})


# ----------------------------------------------------------------------
# The extended program: textual annotations become __iface declarations
# ----------------------------------------------------------------------

def _iface_let_name(edge: tuple[int, int]) -> str:
    return f"__iface_{edge[0]}_{edge[1]}"


def extend_with_annotations(net: Network,
                            annotations: dict[tuple[int, int], Annotation]
                            ) -> Network:
    """Append each textual annotation as a typed ``__iface_u_v`` let and
    re-check the program: the annotations are parsed with the program's
    type aliases in scope, type checked against the attribute type (routes)
    or ``attribute -> bool`` (predicates), and annotated for the encoder.
    """
    textual = {e: a for e, a in annotations.items() if a.kind != "infer"}
    if not textual:
        return net
    type_env = net.program.type_decls()
    decls = list(net.program.decls)
    for edge in sorted(textual):
        annot = textual[edge]
        try:
            expr = parse_expr(annot.text, type_env=type_env)
        except Exception as exc:
            raise NvPartitionError(
                f"interface {edge[0]}->{edge[1]}: cannot parse "
                f"{annot.kind} annotation: {exc}") from exc
        ann_ty = (net.attr_ty if annot.kind == "route"
                  else T.TArrow(net.attr_ty, T.TBool()))
        decls.append(A.DLet(_iface_let_name(edge), expr, annot=ann_ty))
    try:
        return Network.from_program(A.Program(decls))
    except NvTypeError as exc:
        raise NvPartitionError(
            f"an interface annotation does not fit the attribute type: "
            f"{exc}") from exc


# ----------------------------------------------------------------------
# Per-fragment verification (worker side)
# ----------------------------------------------------------------------

def _verify_fragment(net: Network, index: int, nodes: Sequence[int],
                     inbound: dict[tuple[int, int], Any],
                     outbound: dict[tuple[int, int], Any],
                     kinds: dict[tuple[int, int], str],
                     simplify: bool, max_conflicts: int | None,
                     symbolics: dict[str, Any] | None) -> FragmentResult:
    """Encode one fragment and discharge its property plus every outbound
    guarantee against a single persistent incremental solver."""
    t_start = perf_counter()
    t0 = perf_counter()
    with obs.span("partition.encode_fragment", fragment=index,
                  nodes=len(nodes), inbound=len(inbound),
                  outbound=len(outbound)) as sp:
        enc, ev, prop = encode_network(net, simplify=simplify, nodes=nodes,
                                       inbound=inbound, outbound=outbound,
                                       symbolics=symbolics)
        tm = enc.tm
        # No CNF preprocessing: a fragment is small and propagation alone
        # decides it; the passes cost ~100x the CDCL search that followed
        # them (DESIGN.md "Who preprocesses").
        solver = Solver(tm, incremental=True, preprocess=False)
        for c in enc.constraints:
            solver.add(c)
        # One selector per check: the CDCL solver is built from the
        # fragment's whole CNF.
        neg_prop = tm.mk_not(prop)
        checks: list[tuple[tuple[int, int] | None, int]] = [(None, neg_prop)]
        for edge, g in sorted(enc.guarantee_terms.items()):
            checks.append((edge, tm.mk_not(g)))
        solver.select(query for _, query in checks)
        if sp is not None:
            sp.attrs["constraints"] = len(enc.constraints)
    encode_seconds = perf_counter() - t0

    smt = solver.check_assuming(neg_prop, max_conflicts)
    prop_result = _result_from_smt(net, enc, smt, encode_seconds)

    guarantees: list[InterfaceCheck] = []
    for edge, query in checks[1:]:
        t0 = perf_counter()
        smt_g = solver.check_assuming(query, max_conflicts)
        seconds = perf_counter() - t0
        witness = None
        if smt_g.is_unsat:
            status = "discharged"
        elif smt_g.status == "unknown":
            status = "unknown"
        else:
            status = "refuted"
            assignment: dict[str, Any] = {}
            assignment.update(smt_g.model_bools)
            assignment.update(smt_g.model_bvs)
            witness = {u: decode_tval(enc, tv, net.attr_ty, assignment)
                       for u, tv in enc.attr_vals.items()}
        obs.event("partition.guarantee", fragment=index,
                  edge=f"{edge[0]}->{edge[1]}", status=status,
                  seconds=round(seconds, 6))
        guarantees.append(InterfaceCheck(edge, kinds.get(edge, "infer"),
                                         status, seconds, witness))
    perf.merge({"fragments": 1,
                "guarantees_checked": len(guarantees),
                "guarantees_refuted": sum(
                    1 for g in guarantees if g.status == "refuted")},
               prefix="partition.")
    return FragmentResult(index, tuple(sorted(nodes)), prop_result,
                          guarantees, encode_seconds,
                          perf_counter() - t_start)


def _fragment_shard_factory(payload: dict[str, Any]):
    """Worker-side factory for :func:`verify_partitioned`: per unit, verify
    one fragment.  Everything solver-side is built here, in the worker;
    only the plain-data :class:`FragmentResult` travels back."""
    net: Network = payload["net"]
    fragments: list[tuple[int, ...]] = payload["fragments"]
    specs: dict[tuple[int, int], Any] = payload["specs"]
    kinds: dict[tuple[int, int], str] = payload["kinds"]

    def run(idx: int) -> FragmentResult:
        nodes = fragments[idx]
        node_set = set(nodes)
        inbound = {e: s for e, s in specs.items()
                   if e[1] in node_set and e[0] not in node_set}
        outbound = {e: s for e, s in specs.items()
                    if e[0] in node_set and e[1] not in node_set}
        return _verify_fragment(net, idx, nodes, inbound, outbound, kinds,
                                payload["simplify"], payload["max_conflicts"],
                                payload["symbolics"])

    return run


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def resolve_plan(net: Network, partition: int | None = None,
                 cuts: CutSpec | None = None,
                 method: str = "auto",
                 topo: Topology | None = None) -> PartitionPlan:
    """Turn the user's partitioning request into a validated plan."""
    if topo is None:
        topo = Topology(net.num_nodes, [tuple(l) for l in net.links],
                        name="net")
    if cuts is not None:
        if cuts.fragments is not None:
            return plan_from_fragments(topo, cuts.fragments)
        return plan_from_cut_links(topo, cuts.cut_links or [])
    return auto_partition(topo, k=partition, method=method)


def verify_partitioned(net: Network,
                       partition: int | None = None,
                       cuts: CutSpec | None = None,
                       plan: PartitionPlan | None = None,
                       method: str = "auto",
                       topo: Topology | None = None,
                       simplify: bool = True,
                       max_conflicts: int | None = None,
                       jobs: int | None = 1,
                       symbolics: dict[str, Any] | None = None,
                       escalate: bool = True) -> PartitionReport:
    """Verify ``net`` modularly: cut, annotate, fan fragments out over the
    worker pool, discharge interfaces, merge verdicts.

    ``partition``/``method`` pick an automatic cut; ``cuts`` supplies an
    explicit cut file (fragments or cut links plus annotations); ``plan``
    bypasses both.  Unannotated cut edges are inferred from simulation.
    ``symbolics`` binds symbolic values in that simulation and in every
    fragment's encoding.
    ``escalate=False`` turns the inferred-guarantee-failure fallback into a
    plain ``interface_refuted`` report (used by tests; the default keeps
    the verdict sound by re-running monolithically).
    """
    t_wall = perf_counter()
    if plan is None:
        plan = resolve_plan(net, partition=partition, cuts=cuts,
                            method=method, topo=topo)
    cut_set = set(plan.cut_edges)
    annotations = dict(cuts.interfaces) if cuts is not None else {}
    for edge in annotations:
        if edge not in cut_set:
            raise NvPartitionError(
                f"interface {edge[0]}->{edge[1]} annotates an edge that is "
                "not a directed cut edge of the partition")
    kinds = {e: annotations[e].kind if e in annotations else "infer"
             for e in plan.cut_edges}

    with obs.span("partition.verify", fragments=len(plan.fragments),
                  cut_edges=len(plan.cut_edges)):
        ext_net = extend_with_annotations(net, annotations)

        specs: dict[tuple[int, int], Any] = {}
        for edge, annot in annotations.items():
            if annot.kind == "route":
                specs[edge] = ExprInterface(_iface_let_name(edge))
            elif annot.kind == "pred":
                specs[edge] = PredInterface(_iface_let_name(edge))

        infer_edges = [e for e in plan.cut_edges if e not in specs]
        inferred: dict[tuple[int, int], Any] = {}
        simulated: dict[int, Any] | None = None
        infer_seconds = 0.0
        if infer_edges:
            t0 = perf_counter()
            with obs.span("partition.infer", edges=len(infer_edges)):
                inferred, simulated = infer_interfaces(net, infer_edges,
                                                       symbolics)
            infer_seconds = perf_counter() - t0
            for edge, value in inferred.items():
                specs[edge] = ConcreteInterface(value)

        payload = {"net": ext_net, "fragments": list(plan.fragments),
                   "specs": specs, "kinds": kinds, "simplify": simplify,
                   "max_conflicts": max_conflicts, "symbolics": symbolics}
        unit_labels = [f"fragment{i}[{len(nodes)}n]"
                       for i, nodes in enumerate(plan.fragments)]
        results: list[FragmentResult] = parallel.run_sharded(
            "repro.analysis.partition:_fragment_shard_factory", payload,
            range(len(plan.fragments)), jobs=jobs, label="partition",
            unit_labels=unit_labels)

        report = _merge_results(net, plan, kinds, results, inferred,
                                simulated, symbolics, simplify,
                                max_conflicts, escalate)
    report.infer_seconds = infer_seconds
    report.wall_seconds = perf_counter() - t_wall
    metrics.set_gauge("partition.fragments", len(plan.fragments))
    metrics.set_gauge("partition.cut_edges", len(plan.cut_edges))
    metrics.set_gauge("partition.interfaces_inferred", len(inferred))
    metrics.set_gauge("partition.max_fragment_nodes",
                      max(len(f) for f in plan.fragments))
    perf.merge({"runs": 1, "cut_edges": len(plan.cut_edges),
                "escalations": int(report.escalated)}, prefix="partition.")
    return report


def _merge_results(net: Network, plan: PartitionPlan,
                   kinds: dict[tuple[int, int], str],
                   results: list[FragmentResult],
                   inferred: dict[tuple[int, int], Any],
                   simulated: dict[int, Any] | None,
                   symbolics: dict[str, Any] | None,
                   simplify: bool, max_conflicts: int | None,
                   escalate: bool) -> PartitionReport:
    refuted = [e for fr in results for e in fr.refuted_interfaces]
    user_refuted = [e for e in refuted if kinds.get(e) != "infer"]
    inferred_refuted = [e for e in refuted if kinds.get(e) == "infer"]
    failing = [fr for fr in results if fr.result.status == "counterexample"]
    unknown = any(fr.result.status == "unknown" for fr in results) or any(
        g.status == "unknown" for fr in results for g in fr.guarantees)

    report = PartitionReport("verified", True, plan, results, kinds,
                             refuted_interfaces=refuted, inferred=inferred)

    if user_refuted:
        # The user's annotation is wrong (or too weak to be guaranteed):
        # fragment verdicts assumed it, so none of them are trustworthy.
        # Report the violated edges; no escalation — the cut file needs
        # fixing (the witness shows the offending stable state).
        report.status = "interface_refuted"
        report.verified = False
        return report
    if inferred_refuted:
        # Inference promised the simulated message but other stable states
        # (symbolics, nondeterminism) can send something else.  The
        # decomposition is inconclusive; fall back to one monolithic query.
        report.escalated = True
        if escalate:
            mono = verify(net, simplify=simplify, max_conflicts=max_conflicts,
                          symbolics=symbolics)
            report.monolithic = mono
            report.status = mono.status
            report.verified = mono.verified
            report.counterexample = mono.counterexample
            report.node_attrs = mono.node_attrs
            report.stitched = mono.node_attrs is not None
        else:
            report.status = "interface_refuted"
            report.verified = False
        return report
    if failing:
        # Guarantees all discharged, so every fragment counterexample
        # extends to a whole-network stable state: failing fragments
        # contribute their decoded models, the rest the state inference
        # simulated.  A plan without cut edges ran no inference; it
        # simulates here.
        report.status = "counterexample"
        report.verified = False
        if simulated is None and not kinds:
            try:
                _, simulated = infer_interfaces(net, (), symbolics)
            except NvError:
                pass  # e.g. symbolics missing for simulation
        node_attrs = dict(simulated or {})
        stitched = simulated is not None
        for fr in failing:
            if fr.result.node_attrs:
                node_attrs.update(fr.result.node_attrs)
        report.node_attrs = node_attrs or None
        report.stitched = stitched and len(node_attrs) == net.num_nodes
        report.counterexample = failing[0].result.counterexample
        if report.stitched:
            replay(net, report.counterexample, node_attrs)
        return report
    if unknown:
        report.status = "unknown"
        report.verified = False
        return report
    return report
