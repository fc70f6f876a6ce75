"""SMT-based verification driver (paper §5.2, §6.2).

Builds the stable-state constraint system ``N ∧ require ∧ ¬P`` for a network
and decides it with the bundled CDCL solver.  UNSAT means the assertion holds
in every stable state for every assignment of symbolic values; SAT yields a
counterexample: concrete symbolic values plus the converged attribute of each
node, decoded from the model.

:func:`verify_many` decides several queries — one per destination prefix,
the granularity the paper's tables report — either as one shared-encoding
batch on a persistent solver, or as fresh queries sharded over a
:mod:`repro.parallel` worker pool.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Sequence

from .. import obs, parallel, perf
from ..eval.partial import SBool, SEdge, SInt, SOption, SRecord, STuple, Sym
from ..eval.maps import DecodedMap, MapContext, NVMap
from ..eval.values import VClosure, VRecord, VSome
from ..lang import ast as A
from ..lang import types as T
from ..lang.errors import NvEncodingError, NvRuntimeError
from ..smt.encode_nv import (NvSmtEncoder, TMap, TermEvaluator,
                             VerificationResult)
from ..smt.solver import Solver
from ..smt.terms import VAR, TermManager
from ..srp.network import Network, functions_from_program
from ..srp.simulate import simulate, unstable_node


def encode_network(net: Network, simplify: bool = True, tm: Any = None,
                   nodes: Sequence[int] | None = None,
                   inbound: dict[tuple[int, int], Any] | None = None,
                   outbound: dict[tuple[int, int], Any] | None = None,
                   symbolics: dict[str, Any] | None = None,
                   ) -> tuple[NvSmtEncoder, TermEvaluator, int]:
    """Encode the stable-state semantics of ``net``; returns the encoder, the
    evaluator and the boolean term for the property P (conjunction of the
    assertion over all nodes).

    ``tm`` (optional) encodes into a shared :class:`TermManager`: queries
    over the same topology then hash-cons their common structure — the
    incremental path's shared network encoding.

    ``symbolics`` binds symbolic values to concrete ones, as simulation
    binds them; the rest become fresh variables.

    ``nodes`` restricts the encoding to a *fragment*: only those nodes get
    attribute variables and stable-state constraints, and only edges with
    both endpoints inside the fragment contribute transfers.  Cut edges are
    modelled through interface specs (:mod:`repro.analysis.partition`):

    * ``inbound`` maps a cut edge ``(u, v)`` (``v`` in the fragment) to a
      spec whose ``materialise(enc, ev, env, edge)`` returns the *assumed*
      post-transfer message, merged into ``v`` like any neighbour route;
    * ``outbound`` maps a cut edge ``(u, v)`` (``u`` in the fragment) to a
      spec whose ``obligation(enc, ev, env, edge, msg)`` returns a boolean
      term stating the fragment *guarantees* the annotation for the message
      it actually sends.  Obligations land in ``enc.guarantee_terms`` and
      are NOT conjoined into P — the driver discharges each separately so
      a failure names the violated interface edge.
    """
    enc = NvSmtEncoder(net, simplify=simplify, tm=tm)
    ev = TermEvaluator(enc)
    tm = enc.tm
    enc.collect_map_keys()

    # Declarations evaluate in order; unbound symbolics become fresh variables.
    env: dict[str, Any] = {}
    symbolics = symbolics or {}
    for d in net.program.decls:
        if isinstance(d, A.DSymbolic):
            if d.name in symbolics:
                value = symbolics[d.name]
            else:
                value = enc.make_var(d.ty, f"sym.{d.name}")
            enc.symbolic_vals[d.name] = (d.ty, value)
            env[d.name] = value
        elif isinstance(d, A.DLet):
            env[d.name] = ev.eval(d.expr, env)
        elif isinstance(d, A.DRequire):
            req = ev.eval(d.expr, env)
            enc.constraints.append(ev.to_bool(req))

    init_f = env["init"]
    trans_f = env["trans"]
    merge_f = env["merge"]
    assert_f = env.get("assert")

    node_list: Sequence[int]
    if nodes is None:
        node_list = range(net.num_nodes)
        node_set = None
    else:
        node_list = sorted(set(nodes))
        node_set = set(node_list)
        for u in node_list:
            if not 0 <= u < net.num_nodes:
                raise NvEncodingError(f"fragment node {u} out of range")

    # Attribute variable per (fragment) node.
    for u in node_list:
        enc.attr_vals[u] = enc.make_var(net.attr_ty, f"attr.{u}")

    in_edges: list[list[tuple[int, int]]] = [[] for _ in range(net.num_nodes)]
    for u, v in net.edges:
        if node_set is None or (u in node_set and v in node_set):
            in_edges[v].append((u, v))
    inbound = inbound or {}
    inbound_by_dst: dict[int, list[tuple[int, int]]] = {}
    for edge in sorted(inbound):
        if node_set is not None and edge[1] not in node_set:
            raise NvEncodingError(
                f"inbound interface {edge} does not target the fragment")
        inbound_by_dst.setdefault(edge[1], []).append(edge)

    # Stable-state constraints (§2.5): A_u = init(u) ⊕ trans(e, A_v) ...
    # Cut edges contribute their *assumed* interface message instead of a
    # transfer from the (absent) neighbour's attribute variable.
    for u in node_list:
        expected = ev.apply(init_f, u)
        for edge in in_edges[u]:
            transferred = ev.apply(ev.apply(trans_f, edge), enc.attr_vals[edge[0]])
            expected = ev.apply(ev.apply(ev.apply(merge_f, u), expected), transferred)
        for edge in inbound_by_dst.get(u, ()):
            assumed = inbound[edge].materialise(enc, ev, env, edge)
            expected = ev.apply(ev.apply(ev.apply(merge_f, u), expected), assumed)
        if not isinstance(expected, Sym):
            expected = enc.lift(expected, net.attr_ty)
        enc.constraints.append(ev.eq(enc.attr_vals[u], expected))

    # Outbound guarantees: what the fragment actually sends across each cut
    # edge must satisfy the annotation the neighbouring fragment assumes.
    enc.guarantee_terms = {}
    for edge in sorted(outbound or {}):
        u = edge[0]
        if node_set is not None and u not in node_set:
            raise NvEncodingError(
                f"outbound interface {edge} does not leave the fragment")
        msg = ev.apply(ev.apply(trans_f, edge), enc.attr_vals[u])
        enc.guarantee_terms[edge] = (outbound or {})[edge].obligation(
            enc, ev, env, edge, msg)

    # The property P.
    prop = tm.true
    if assert_f is not None:
        for u in node_list:
            holds = ev.apply(ev.apply(assert_f, u), enc.attr_vals[u])
            prop = tm.mk_and(prop, ev.to_bool(holds))
    enc.decl_env = env
    return enc, ev, prop


def verify(net: Network, simplify: bool = True,
           max_conflicts: int | None = None,
           symbolics: dict[str, Any] | None = None) -> VerificationResult:
    """Verify the network's assertion over all stable states and all
    assignments to the symbolic values ``symbolics`` does not bind."""
    t0 = perf_counter()
    with obs.span("smt.encode", nodes=net.num_nodes, edges=len(net.edges),
                  simplify=simplify) as sp:
        enc, ev, prop = encode_network(net, simplify=simplify,
                                       symbolics=symbolics)
        solver = Solver(enc.tm)
        for c in enc.constraints:
            solver.add(c)
        solver.add(enc.tm.mk_not(prop))
        if sp is not None:
            sp.attrs["constraints"] = len(enc.constraints)
    encode_seconds = perf_counter() - t0

    smt = solver.check(max_conflicts)
    result = _replayed(net, _result_from_smt(net, enc, smt, encode_seconds))
    return _non_vacuous(net, enc, result, max_conflicts)


def _result_from_smt(net: Network, enc: NvSmtEncoder, smt: Any,
                     encode_seconds: float) -> VerificationResult:
    """Interpret an :class:`SmtResult` for one query, decoding the model
    into an NV counterexample when SAT."""
    if smt.is_unsat:
        return VerificationResult(True, "verified", smt, encode_seconds)
    if smt.status == "unknown":
        return VerificationResult(False, "unknown", smt, encode_seconds)

    with obs.span("smt.decode_model"):
        assignment: dict[str, Any] = {}
        assignment.update(smt.model_bools)
        assignment.update(smt.model_bvs)
        counterexample = {
            name: decode_tval(enc, tval, ty, assignment)
            for name, (ty, tval) in enc.symbolic_vals.items()
        }
        node_attrs = {
            u: decode_tval(enc, tval, net.attr_ty, assignment)
            for u, tval in enc.attr_vals.items()
        }
    return VerificationResult(False, "counterexample", smt, encode_seconds,
                              counterexample, node_attrs)


def decode_tval(enc: NvSmtEncoder, tval: Any, ty: T.Type,
                assignment: dict[str, Any]) -> Any:
    """Reconstruct a concrete NV value from a term value under a model."""
    tm = enc.tm
    if not isinstance(tval, Sym):
        return tval  # already concrete
    if isinstance(tval, SBool):
        return bool(tm.evaluate(tval.leaf, assignment))
    if isinstance(tval, SInt):
        return int(tm.evaluate(tval.leaf, assignment))
    if isinstance(tval, SEdge):
        return (int(tm.evaluate(tval.src.leaf, assignment)),
                int(tm.evaluate(tval.dst.leaf, assignment)))
    if isinstance(tval, SOption):
        assert isinstance(ty, T.TOption)
        if not tm.evaluate(tval.tag, assignment):
            return None
        return VSome(decode_tval(enc, tval.payload, ty.elt, assignment))
    if isinstance(tval, STuple):
        assert isinstance(ty, T.TTuple)
        return tuple(decode_tval(enc, v, t, assignment)
                     for v, t in zip(tval.elts, ty.elts))
    if isinstance(tval, SRecord):
        assert isinstance(ty, T.TRecord)
        return VRecord(tuple(
            (n, decode_tval(enc, v, ty.field_type(n), assignment))
            for n, v in tval.fields))
    if isinstance(tval, TMap):
        entries = tuple(sorted(
            (k, decode_tval(enc, v, tval.value_ty, assignment))
            for k, v in tval.entries.items()))
        default = decode_tval(enc, tval.default, tval.value_ty, assignment)
        return DecodedMap(entries, default)
    raise NvEncodingError(f"cannot decode {type(tval).__name__}")


def _replayed(net: Network, result: VerificationResult) -> VerificationResult:
    """Replay a counterexample through the interpreter before anyone prints
    it (:func:`replay`).  Other verdicts pass through untouched."""
    if result.status == "counterexample":
        replay(net, result.counterexample, result.node_attrs)
    return result


def replay(net: Network, counterexample: dict[str, Any],
           node_attrs: dict[int, Any]) -> None:
    """Check a decoded counterexample through the interpreter: with the
    ``counterexample``'s symbolic values bound, ``node_attrs`` must be a
    stable state of ``net`` and violate the assertion at some node.  A
    state that fails either is a bug in the encoder, the decoder or the
    stitching of fragment states, raised as an internal error that names
    the node."""
    # The replay's evaluation is not the query's work: it stays out of the
    # --stats counters.
    with obs.span("verify.replay"), perf.enabled(False):
        ctx = MapContext(net.num_nodes, net.edges)
        symbolics = {d.name: _live(counterexample[d.name], d.ty, ctx)
                     for d in net.program.symbolics()}
        funcs = functions_from_program(net, symbolics, ctx)
        labels = [_live(node_attrs[u], net.attr_ty, ctx)
                  for u in range(net.num_nodes)]
        u = unstable_node(funcs, labels)
        if u is not None:
            raise NvEncodingError(
                f"internal error: the counterexample does not replay: "
                f"node {u}'s decoded attribute is not stable")
        if all(funcs.assert_fn(u, labels[u]) for u in range(net.num_nodes)):
            raise NvEncodingError(
                "internal error: the counterexample does not replay: the "
                "assertion holds at every node of the decoded state")


def _non_vacuous(net: Network, enc: NvSmtEncoder, result: VerificationResult,
                 max_conflicts: int | None) -> VerificationResult:
    """An UNSAT ``¬P`` is evidence only if a stable state exists.  On a
    network without symbolics or ``require``, a converged simulation is the
    witness.  When simulation does not converge, one more fresh check
    decides the network constraints alone; UNSAT there means the assertion
    held because nothing is stable, and the verdict becomes ``vacuous``.
    Like the replay, the check stays out of the --stats counters, and the
    verdict keeps the main check's statistics."""
    if result.status != "verified" or any(
            isinstance(d, (A.DSymbolic, A.DRequire))
            for d in net.program.decls):
        return result
    with obs.span("verify.vacuity"), perf.enabled(False):
        try:
            simulate(functions_from_program(net))
            return result
        except NvRuntimeError:
            pass
        solver = Solver(enc.tm)
        for c in enc.constraints:
            solver.add(c)
        if not solver.check(max_conflicts).is_unsat:
            return result
    return VerificationResult(False, "vacuous", result.smt,
                              result.encode_seconds)


def _live(value: Any, ty: T.Type, ctx: MapContext) -> Any:
    """A decoded model value as the interpreter's value of type ``ty``:
    every :class:`DecodedMap` inside becomes an ``NVMap`` in ``ctx``."""
    if isinstance(value, VSome):
        return VSome(_live(value.value, ty.elt, ctx))
    if isinstance(value, VRecord):
        return VRecord(tuple((n, _live(v, ty.field_type(n), ctx))
                             for n, v in value.fields))
    if isinstance(value, tuple) and isinstance(ty, T.TTuple):
        return tuple(_live(v, t, ctx) for v, t in zip(value, ty.elts))
    if isinstance(value, DecodedMap):
        live = NVMap.create(ctx, ty.key, _live(value.default, ty.value, ctx))
        for key, entry in value.entries:
            live = live.set(key, _live(entry, ty.value, ctx))
        return live
    return value


# ----------------------------------------------------------------------
# Sharded execution: one SMT query per destination prefix
# ----------------------------------------------------------------------

def _verify_shard_factory(payload: dict[str, Any]):
    """Worker-side factory for :func:`verify_many`: per unit, encode and
    decide one network's constraint system.  Term managers and CDCL state
    are built here, inside the worker — nothing solver-side is pickled;
    only the (plain-data) :class:`VerificationResult` travels back."""
    nets: list[Network] = payload["nets"]

    def run(idx: int) -> VerificationResult:
        return verify(nets[idx], simplify=payload["simplify"],
                      max_conflicts=payload["max_conflicts"],
                      symbolics=payload["symbolics"][idx])

    return run


def verify_many(nets: Sequence[Network], simplify: bool = True,
                max_conflicts: int | None = None,
                jobs: int | None = 1,
                incremental: bool = False,
                unit_labels: Sequence[str] | None = None,
                symbolics: Sequence[dict[str, Any] | None] | None = None
                ) -> list[VerificationResult]:
    """Verify several networks (one SMT query per destination prefix).
    ``unit_labels`` names each query (e.g. its source file) in unit spans
    and the work ledger; incremental mode has no per-unit shards, so it
    ignores them.  ``symbolics[i]``, when given, binds symbolic values of
    ``nets[i]`` (:func:`encode_network`).

    Two execution strategies:

    * **Fresh** (default): queries are independent solver runs, sharded
      over a :mod:`repro.parallel` worker pool.  Results come back in
      input order; verdicts are identical to a serial :func:`verify`
      loop, and ``jobs=1`` literally is that loop (same code path,
      in-process — the property the parallel-equivalence gate pins).
    * **Incremental** (``incremental=True``): all queries are encoded
      into one shared term manager and decided by a single persistent
      solver, each query attached via an assumption selector
      (:func:`verify_many_incremental`).  Verdicts are identical to
      fresh mode (the incremental-equivalence gate pins this); the
      marginal query rides on the shared encoding, preprocessing and
      learnt clauses.  ``jobs`` is ignored.
    """
    symbolics = list(symbolics or [None] * len(nets))
    if incremental:
        return verify_many_incremental(
            nets, simplify=simplify, max_conflicts=max_conflicts,
            symbolics=symbolics)
    payload = {"nets": list(nets), "simplify": simplify,
               "max_conflicts": max_conflicts, "symbolics": symbolics}
    return parallel.run_sharded(
        "repro.analysis.verify:_verify_shard_factory", payload,
        range(len(payload["nets"])), jobs=jobs, label="verify",
        unit_labels=unit_labels)


def verify_many_incremental(nets: Sequence[Network], simplify: bool = True,
                            max_conflicts: int | None = None,
                            symbolics: Sequence[dict[str, Any] | None] | None = None
                            ) -> list[VerificationResult]:
    """Verify a batch of related queries over one shared encoding.

    The networks (typically: same topology, one per destination prefix)
    are all encoded into a single :class:`TermManager` — identical
    transfer/merge structure over the shared ``attr.{u}`` variables
    hash-conses to the same terms, so the CNF grows by only a small
    per-query delta.  Each query ``i``'s constraint system
    ``require_i ∧ stable_i ∧ ¬P_i`` is attached through an assumption
    selector (positive-polarity Tseitin: the selector implies the query,
    and constrains nothing while relaxed), and one persistent CDCL solver
    decides every query, keeping learnt clauses, VSIDS activities and
    saved phases across the batch.

    All selectors are registered *before* the first solve so CNF
    preprocessing freezes them; verdicts and counterexample semantics are
    identical to fresh-mode :func:`verify` per query.

    Networks share a manager only where their variables agree in sort.
    Two node counts can give one name two sorts (``attr.0.val.origin`` is
    a node id of ``ceil(log2 n)`` bits), and so can two attribute types or
    two declarations of one symbolic.  Each network therefore joins the
    first group it agrees with (:func:`_var_sorts`), every group gets its
    own encoding and solver, and results come back in input order.
    """
    groups: list[tuple[dict[str, int], list[tuple[int, Network]]]] = []
    for i, net in enumerate(nets):
        sorts = _var_sorts(net)
        for known, batch in groups:
            if all(known.get(name, sort) == sort
                   for name, sort in sorts.items()):
                known.update(sorts)
                batch.append((i, net))
                break
        else:
            groups.append((sorts, [(i, net)]))
    results: list[VerificationResult | None] = [None] * len(nets)
    symbolics = symbolics or [None] * len(nets)
    for _, batch in groups:
        for (i, _), result in zip(batch, _verify_batch(
                batch, simplify, max_conflicts, symbolics)):
            results[i] = result
    return results


def _var_sorts(net: Network) -> dict[str, int]:
    """Name -> sort (``BOOL_SORT`` or a bit width) of the variables that
    encoding ``net`` creates for node 0's attribute and for each symbolic.
    Every other node's attribute repeats node 0's names and sorts under
    its own index, so these decide whether two networks clash."""
    probe = NvSmtEncoder(net)
    probe.collect_map_keys()
    probe.make_var(net.attr_ty, "attr.0")
    for d in net.program.symbolics():
        probe.make_var(d.ty, f"sym.{d.name}")
    tm = probe.tm
    return {d.payload: d.width for d in map(tm.data, range(tm.num_terms()))
            if d.op == VAR}


def _verify_batch(batch: list[tuple[int, Network]], simplify: bool,
                  max_conflicts: int | None,
                  symbolics: Sequence[dict[str, Any] | None]
                  ) -> list[VerificationResult]:
    """One shared encoding and persistent solver for the ``(input index,
    network)`` pairs of ``batch``, whose variables agree in sort (see
    :func:`verify_many_incremental`)."""
    tm = TermManager(simplify=simplify)
    solver = Solver(tm, incremental=True)

    queries: list[tuple[int, Network, NvSmtEncoder, int]] = []
    t0 = perf_counter()
    with obs.span("smt.encode_batch", queries=len(batch),
                  incremental=True) as sp:
        for index, net in batch:
            enc, _, prop = encode_network(net, simplify=simplify, tm=tm,
                                          symbolics=symbolics[index])
            query = tm.mk_not(prop)
            for c in enc.constraints:
                query = tm.mk_and(query, c)
            queries.append((index, net, enc, query))
        # Register every selector before the first solve: preprocessing
        # freezes assumption variables, so later queries need no melting.
        for *_, query in queries:
            solver.push_assumption(query)
        solver.relax()
        if sp is not None:
            sp.attrs["terms"] = len(tm._terms) if hasattr(tm, "_terms") else 0
    encode_seconds = perf_counter() - t0

    results: list[VerificationResult] = []
    for index, net, enc, query in queries:
        t0 = perf_counter()
        smt = solver.check_assuming(query, max_conflicts)
        per_query = perf_counter() - t0
        obs.event("verify.incremental_query", index=index,
                  status=smt.status, seconds=round(per_query, 6),
                  marginal_clauses=smt.stats.get("inc.marginal_clauses", 0))
        result = _replayed(net, _result_from_smt(
            net, enc, smt, 0.0 if results else encode_seconds))
        results.append(_non_vacuous(net, enc, result, max_conflicts))
    return results
