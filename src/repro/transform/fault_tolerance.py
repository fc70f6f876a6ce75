"""The fault-tolerance meta-protocol (paper fig 5, §2.7).

An NV-to-NV transformation: given a network program over attribute type α,
produce a program over ``dict[scenario, α]`` where every map key is one
failure scenario.  The transfer function drops the route in the entry whose
scenario fails the edge being traversed; the merge function combines maps
pointwise.  Simulating the transformed program computes the routes of *all*
scenarios at once, with MTBDD leaf-sharing collapsing equivalent scenarios —
the paper's key insight.

Scenario key types:

* ``k = 1`` link failure → key is ``edge``;
* ``k >= 2`` link failures → key is a k-tuple of edges (a scenario's failed
  set is the set of its components, so tuples with repeats model scenarios
  with fewer failures — every combination of ≤ k failures is covered);
* ``node_failures=True`` adds a failed node: key is ``(node, edge...)``;
  the route is dropped when the traversed edge leaves or enters the failed
  node.

A second entry point, :func:`symbolic_failures_program`, produces the
SMT-oriented variant: one symbolic boolean per physical link with a
``require`` bounding how many may fail — the encoding MineSweeper-style SMT
fault-tolerance checking uses (compared against in fig 13a).
"""

from __future__ import annotations

from ..lang import ast as A
from ..lang import types as T
from ..srp.network import Network


def _var(name: str) -> A.EVar:
    return A.EVar(name)


def _eq(a: A.Expr, b: A.Expr) -> A.Expr:
    return A.EOp("eq", (a, b))


def _or_all(parts: list[A.Expr]) -> A.Expr:
    e = parts[0]
    for p in parts[1:]:
        e = A.EOp("or", (e, p))
    return e


def scenario_key_type(num_link_failures: int, node_failures: bool) -> T.Type:
    parts: list[T.Type] = []
    if node_failures:
        parts.append(T.TNode())
    parts.extend([T.TEdge()] * num_link_failures)
    if len(parts) == 1:
        return parts[0]
    return T.TTuple(tuple(parts))


def _edge_matches(scenario_edge: A.Expr, edge_var: str) -> A.Expr:
    """AST for "the scenario's failed edge is this physical link, in either
    orientation": a failed link kills both directed edges.

    ``let (su, sv) = sc in let (eu, ev) = e in
      (su = eu && sv = ev) || (su = ev && sv = eu)``
    """
    body = A.EOp("or", (
        A.EOp("and", (_eq(_var("__su"), _var("__eu")),
                      _eq(_var("__sv"), _var("__ev")))),
        A.EOp("and", (_eq(_var("__su"), _var("__ev")),
                      _eq(_var("__sv"), _var("__eu")))),
    ))
    inner = A.ELetPat(A.PTuple((A.PVar("__eu"), A.PVar("__ev"))),
                      _var(edge_var), body)
    return A.ELetPat(A.PTuple((A.PVar("__su"), A.PVar("__sv"))),
                     scenario_edge, inner)


def _scenario_fails_edge(scenario: A.Expr, key_ty: T.Type, edge_var: str,
                         num_link_failures: int, node_failures: bool) -> A.Expr:
    """AST for "this scenario fails the edge bound to ``edge_var``"."""
    if isinstance(key_ty, T.TEdge):
        return _edge_matches(scenario, edge_var)
    if isinstance(key_ty, T.TNode):     # a failed node and no failed link
        return _node_hits_edge(scenario, edge_var)
    assert isinstance(key_ty, T.TTuple)
    arity = len(key_ty.elts)
    parts: list[A.Expr] = []
    index = 0
    if node_failures:
        failed_node = A.ETupleGet(scenario, 0, arity)
        # The edge fails if either endpoint is the failed node.
        parts.append(_node_hits_edge(failed_node, edge_var))
        index = 1
    for i in range(index, arity):
        parts.append(_edge_matches(A.ETupleGet(scenario, i, arity), edge_var))
    return _or_all(parts)


def _scenario_in_batch(scenario: A.Expr, key_ty: T.Type,
                       link_batch: tuple[tuple[int, int], ...],
                       node_failures: bool) -> A.Expr:
    """AST for "this scenario belongs to the given link batch".

    Batch membership is decided by the scenario's *first edge component*
    (component 0, or component 1 when a failed node leads the tuple): the
    scenario is in the batch iff that edge is one of the batch's physical
    links, in either orientation.  Partitioning the links therefore
    partitions the scenario space exactly — the property the sharded
    fault driver's per-batch class counting relies on.  (Keying on the
    last edge component instead costs the same: the per-link sub-diagrams
    every batch rebuilds are shared by hash-consing either way.)

    The test is written on the edge's endpoints (``comp = u~v``), never on
    its key bits: a key holds the edge's index (:mod:`repro.eval.encoding`),
    and the symbolic evaluator reads the endpoints back off it.
    """
    if isinstance(key_ty, T.TNode):
        raise ValueError("a node-only scenario key has no link component "
                         "to batch on")
    if isinstance(key_ty, T.TEdge):
        comp: A.Expr = scenario
    else:
        assert isinstance(key_ty, T.TTuple)
        index = 1 if node_failures else 0
        comp = A.ETupleGet(scenario, index, len(key_ty.elts))
    parts: list[A.Expr] = []
    for u, v in link_batch:
        parts.append(_eq(comp, A.EEdge(u, v)))
        parts.append(_eq(comp, A.EEdge(v, u)))
    if not parts:
        return A.EBool(False)
    return _or_all(parts)


def _node_hits_edge(failed_node: A.Expr, edge_var: str) -> A.Expr:
    """``let (u, v) = e in n = u || n = v`` as an AST."""
    return A.ELetPat(
        A.PTuple((A.PVar("__fu"), A.PVar("__fv"))),
        _var(edge_var),
        A.EOp("or", (_eq(failed_node, _var("__fu")),
                     _eq(failed_node, _var("__fv")))),
    )


def fault_tolerance_transform(net: Network, num_link_failures: int = 1,
                              node_failures: bool = False,
                              drop_body: A.Expr | None = None,
                              link_batch: tuple[tuple[int, int], ...] | None = None
                              ) -> Network:
    """Apply the fig 5 meta-protocol to a network program.

    The returned network's attribute type is ``dict[scenario, α]``; its
    ``assert`` is dropped (the analysis driver checks the base assertion on
    every map leaf instead, since NV deliberately has no map folds).

    ``drop_body`` is the "dropped route" expression, with the pre-failure
    route bound to ``__v``.  It defaults to ``None``, matching fig 5's
    option-typed attributes; non-option attributes (e.g. the RIB maps of
    config-translated networks) must supply their own — the generalisation
    the paper's fig 5 caption calls out.

    ``link_batch`` restricts the meta-protocol to the scenarios whose first
    failed link is one of the given physical links: the transfer predicate
    becomes ``in_batch(sc) && fails(sc, e)``, so out-of-batch scenarios
    never drop a route and all collapse onto the no-failure leaves.  Routes
    of *in-batch* scenarios are exactly those of the unrestricted
    transform.  :func:`repro.analysis.fault.fault_tolerance_sharded` uses
    it only when it has several workers — one batch each; with one worker
    it passes ``None`` and simulates the unrestricted meta-protocol once,
    because a batch-restricted simulation costs most of a full one.
    """
    if num_link_failures < 0 or (num_link_failures == 0 and not node_failures):
        raise ValueError("at least one link or node failure is required")
    if drop_body is None:
        if not isinstance(net.attr_ty, T.TOption):
            raise ValueError(
                f"attribute type {net.attr_ty} is not an option; pass drop_body "
                "to define what a dropped route looks like")
        drop_body = A.ENone()
    key_ty = scenario_key_type(num_link_failures, node_failures)
    attr_ty = net.attr_ty
    dict_ty = T.TDict(key_ty, attr_ty)

    decls: list[A.Decl] = []
    for d in net.program.decls:
        if isinstance(d, A.DLet) and d.name in ("init", "trans", "merge", "assert"):
            new_name = {"init": "initBase", "trans": "transBase",
                        "merge": "mergeBase", "assert": "assertBase"}[d.name]
            decls.append(A.DLet(new_name, d.expr, annot=d.annot))
        else:
            decls.append(d)

    # let init u = createDict (initBase u)
    decls.append(A.DLet(
        "init",
        A.EFun("u", A.EOp("mcreate", (A.EApp(_var("initBase"), _var("u")),)),
               param_ty=T.TNode()),
        annot=T.TArrow(T.TNode(), dict_ty),
    ))

    # let trans e x = mapIte (fun sc -> fails sc e) (fun v -> drop) (transBase e) x
    fails = _scenario_fails_edge(
        _var("__sc"), key_ty, "e", num_link_failures, node_failures)
    if link_batch is not None:
        fails = A.EOp("and", (
            _scenario_in_batch(_var("__sc"), key_ty, tuple(link_batch),
                               node_failures),
            fails))
    pred = A.EFun("__sc", fails, param_ty=key_ty)
    drop_fn = A.EFun("__v", drop_body)
    trans_body = A.EOp("mmapite", (
        pred, drop_fn, A.EApp(_var("transBase"), _var("e")), _var("x")))
    decls.append(A.DLet(
        "trans",
        A.EFun("e", A.EFun("x", trans_body), param_ty=T.TEdge()),
        annot=T.TArrow(T.TEdge(), T.TArrow(dict_ty, dict_ty)),
    ))

    # let merge u x y = combine (mergeBase u) x y
    merge_body = A.EOp("mcombine", (
        A.EApp(_var("mergeBase"), _var("u")), _var("x"), _var("y")))
    decls.append(A.DLet(
        "merge",
        A.EFun("u", A.EFun("x", A.EFun("y", merge_body)), param_ty=T.TNode()),
        annot=T.TArrow(T.TNode(), T.TArrow(dict_ty, T.TArrow(dict_ty, dict_ty))),
    ))

    return Network.from_program(A.Program(decls))


def symbolic_failures_program(net: Network, max_failures: int = 1) -> A.Program:
    """The SMT-oriented fault model: a symbolic boolean per physical link,
    ``require`` bounding the number of failed links, and a transfer function
    that drops routes crossing failed links.

    This is the encoding whose scaling fig 13a contrasts with the MTBDD
    meta-protocol: the SMT solver must case-split over failure combinations.
    """
    links = net.links if net.links else tuple(net.edges)
    decls: list[A.Decl] = []
    fail_names = []
    for i, _ in enumerate(links):
        name = f"fail{i}"
        fail_names.append(name)
        decls.append(A.DSymbolic(name, T.TBool()))

    # require (sum of failures) <= max_failures
    count: A.Expr = A.EInt(0)
    for name in fail_names:
        count = A.EOp("add", (count, A.EIf(_var(name), A.EInt(1), A.EInt(0))))
    decls.append(A.DRequire(A.EOp("le", (count, A.EInt(max_failures)))))

    for d in net.program.decls:
        if isinstance(d, A.DLet) and d.name == "trans":
            decls.append(A.DLet("transBase", d.expr, annot=d.annot))
        else:
            decls.append(d)

    # let trans e x = if failed e then None else transBase e x
    # where `failed e` tests both orientations of each physical link.
    failed: A.Expr = A.EBool(False)
    for i, (u, v) in enumerate(links):
        hit = A.EOp("or", (
            _eq(_var("e"), A.EEdge(u, v)),
            _eq(_var("e"), A.EEdge(v, u)),
        ))
        failed = A.EOp("or", (failed, A.EOp("and", (hit, _var(f"fail{i}")))))
    trans_body = A.EIf(failed, A.ENone(), A.EApp(A.EApp(_var("transBase"),
                                                        _var("e")), _var("x")))
    # Replace the trans declaration (it must come after transBase).
    decls = [d for d in decls if not (isinstance(d, A.DLet) and d.name == "trans")]
    decls.append(A.DLet("trans", A.EFun("e", A.EFun("x", trans_body),
                                        param_ty=T.TEdge())))
    return A.Program(decls)
