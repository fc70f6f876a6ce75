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

The key predicate ``fun sc -> sc fails e`` compares each edge component
with the traversed link as a whole edge, ``c = (lo, hi) || c = (hi, lo)``,
where ``trans`` binds the link's endpoints in canonical order (``lo < hi``)
outside the predicate.  An edge key's bits are its index in the edge table,
so each comparison is a cube on those bits (no endpoint is read back), and
both orientations of a link capture the same values: one BDD build per
link, shared through the interpreter's closure-keyed predicate cache.

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


def _pair(a: str, b: str) -> A.Expr:
    return A.ETuple((_var(a), _var(b)))


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


def _scenario_part(index: int, arity: int) -> A.Expr:
    """Component ``index`` of the scenario key ``__sc`` (the key itself when
    it has one component)."""
    if arity == 1:
        return _var("__sc")
    return A.ETupleGet(_var("__sc"), index, arity)


def _edge_matches(index: int, arity: int) -> A.Expr:
    """AST for "the scenario's failed edge is the traversed link, in either
    orientation": a failed link kills both directed edges.

    ``c = (__lo, __hi) || c = (__hi, __lo)``: a comparison of whole edges,
    so its BDD is the cube of the two codes (adjacent, DESIGN.md "Map keys")
    and reads no endpoint multiplexer."""
    return A.EOp("or", tuple(
        _eq(_scenario_part(index, arity), _pair(a, b))
        for a, b in (("__lo", "__hi"), ("__hi", "__lo"))))


def _node_hits_link(index: int, arity: int) -> A.Expr:
    """``n = __lo || n = __hi``: the failed node is an endpoint of the link."""
    return A.EOp("or", tuple(_eq(_scenario_part(index, arity), _var(end))
                             for end in ("__lo", "__hi")))


def _scenario_fails_link(key_ty: T.Type) -> A.Expr:
    """AST for "scenario ``__sc`` fails the link ``{__lo, __hi}``"."""
    parts = key_ty.elts if isinstance(key_ty, T.TTuple) else (key_ty,)
    return _or_all([
        (_node_hits_link if isinstance(t, T.TNode) else _edge_matches)(
            i, len(parts))
        for i, t in enumerate(parts)])


def _with_link(edge_var: str, body: A.Expr) -> A.Expr:
    """``body`` under the endpoints of the edge ``edge_var`` in canonical
    order, ``__lo < __hi``: both orientations of a link then give the key
    predicate the same captured values, so they share one BDD build.

    ``let (__eu, __ev) = e in
      let (__lo, __hi) = if __eu < __ev then (__eu, __ev) else (__ev, __eu)
      in body``
    """
    ordered = A.EIf(A.EOp("lt", (_var("__eu"), _var("__ev"))),
                    _pair("__eu", "__ev"), _pair("__ev", "__eu"))
    return A.ELetPat(
        A.PTuple((A.PVar("__eu"), A.PVar("__ev"))), _var(edge_var),
        A.ELetPat(A.PTuple((A.PVar("__lo"), A.PVar("__hi"))), ordered, body))


def fault_tolerance_transform(net: Network, num_link_failures: int = 1,
                              node_failures: bool = False,
                              drop_body: A.Expr | None = None) -> Network:
    """Apply the fig 5 meta-protocol to a network program.

    The returned network's attribute type is ``dict[scenario, α]``; its
    ``assert`` is dropped (the analysis driver checks the base assertion on
    every map leaf instead, since NV deliberately has no map folds).

    ``drop_body`` is the "dropped route" expression, with the pre-failure
    route bound to ``__v``.  It defaults to ``None``, matching fig 5's
    option-typed attributes; non-option attributes (e.g. the RIB maps of
    config-translated networks) must supply their own — the generalisation
    the paper's fig 5 caption calls out.
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

    # let trans e x = let (lo, hi) = <e's link> in
    #   mapIte (fun sc -> fails sc {lo, hi}) (fun v -> drop) (transBase e) x
    pred = A.EFun("__sc", _scenario_fails_link(key_ty), param_ty=key_ty)
    drop_fn = A.EFun("__v", drop_body)
    trans_body = _with_link("e", A.EOp("mmapite", (
        pred, drop_fn, A.EApp(_var("transBase"), _var("e")), _var("x"))))
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
