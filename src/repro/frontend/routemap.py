"""Route-map translation via a DAG intermediate representation (paper §4.2).

Route-maps operate on a single route, while the NV encoding processes all
routes at once through the ``dict`` attribute.  The translation therefore:

1. builds a decision DAG from the route-map's clauses — internal nodes test
   route or prefix properties, leaves hold mutation actions (fig 10b);
2. *hoists* every prefix condition above all route conditions by Shannon
   expansion (the node-swapping of fig 10c), so prefix tests can become
   ``mapIte`` key predicates;
3. emits NV source: one ``mapIte`` per disjoint prefix region, whose value
   functions are if-chains over the route fields (fig 10d).

Prefix-list matches are resolved against the *announced prefix universe* at
translation time, so every key test is a disjunction of constants — the
paper's §3.1 restriction that map keys be statically known.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .._struct import field, struct
from .configs import Prefix, RouteMapClause, RouterConfig

# ---------------------------------------------------------------------------
# DAG representation
# ---------------------------------------------------------------------------


@struct(frozen=True)
class CondCommunity:
    """Test: the route carries every community of the named list."""

    communities: tuple[int, ...]


@struct(frozen=True)
class CondPrefix:
    """Test: the route's prefix (the map key) is one of these ids."""

    prefix_ids: tuple[int, ...]


Condition = CondCommunity | CondPrefix


@struct(frozen=True)
class Actions:
    """A leaf: either drop the route or apply the mutations in order."""

    drop: bool = False
    set_local_pref: int | None = None
    set_metric: int | None = None
    add_communities: tuple[int, ...] = ()
    remove_communities: tuple[int, ...] = ()


DROP = Actions(drop=True)
IDENTITY = Actions()


@struct(frozen=True)
class DagNode:
    """An internal decision node: test ``cond``, follow ``on_true`` or
    ``on_false`` (each a DagNode or an Actions leaf)."""

    cond: Condition
    on_true: "DagNode | Actions"
    on_false: "DagNode | Actions"


Dag = DagNode | Actions


def build_dag(clauses: list[RouteMapClause], config: RouterConfig,
              prefix_ids: dict[Prefix, int]) -> Dag:
    """Compile a route-map's clause list into a decision DAG.

    Clauses apply first-match; an unmatched route is implicitly dropped
    (the ⊥ leaf of fig 10b).
    """
    dag: Dag = DROP
    for clause in sorted(clauses, key=lambda c: c.seq, reverse=True):
        leaf = _clause_actions(clause, config)
        conditions = _clause_conditions(clause, config, prefix_ids)
        body: Dag = leaf
        for cond in reversed(conditions):
            body = DagNode(cond, body, dag)
        if not conditions:
            # Unconditional clause: everything reaching it matches.
            body = leaf
        dag = body
    return dag


def _clause_actions(clause: RouteMapClause, config: RouterConfig) -> Actions:
    if clause.action == "deny":
        return DROP
    removed: list[int] = []
    for name in clause.delete_comm_lists:
        removed.extend(config.community_lists.get(name, []))
    return Actions(
        drop=False,
        set_local_pref=clause.set_local_pref,
        set_metric=clause.set_metric,
        add_communities=tuple(clause.set_communities),
        remove_communities=tuple(removed),
    )


def _clause_conditions(clause: RouteMapClause, config: RouterConfig,
                       prefix_ids: dict[Prefix, int]) -> list[Condition]:
    conditions: list[Condition] = []
    for name in clause.match_communities:
        comms = config.community_lists.get(name)
        if comms is None:
            raise KeyError(f"route-map references unknown community-list {name!r}")
        conditions.append(CondCommunity(tuple(comms)))
    for name in clause.match_prefix_lists:
        entries = config.prefix_lists.get(name)
        if entries is None:
            raise KeyError(f"route-map references unknown prefix-list {name!r}")
        ids = tuple(sorted(
            pid for pfx, pid in prefix_ids.items()
            if any(entry.contains(pfx) for entry in entries)))
        conditions.append(CondPrefix(ids))
    return conditions


# ---------------------------------------------------------------------------
# Prefix hoisting (fig 10c)
# ---------------------------------------------------------------------------


def hoist_prefixes(dag: Dag) -> Dag:
    """Shannon-expand on prefix conditions so that every :class:`CondPrefix`
    node dominates every :class:`CondCommunity` node."""
    cond = _find_prefix_cond(dag)
    if cond is None:
        return dag
    on_true = hoist_prefixes(_restrict(dag, cond, True))
    on_false = hoist_prefixes(_restrict(dag, cond, False))
    if on_true == on_false:
        return on_true
    return DagNode(cond, on_true, on_false)


def _find_prefix_cond(dag: Dag) -> CondPrefix | None:
    if isinstance(dag, Actions):
        return None
    if isinstance(dag.cond, CondPrefix):
        return dag.cond
    return _find_prefix_cond(dag.on_true) or _find_prefix_cond(dag.on_false)


def _restrict(dag: Dag, cond: Condition, value: bool) -> Dag:
    if isinstance(dag, Actions):
        return dag
    if dag.cond == cond:
        return _restrict(dag.on_true if value else dag.on_false, cond, value)
    return DagNode(dag.cond,
                   _restrict(dag.on_true, cond, value),
                   _restrict(dag.on_false, cond, value))


def prefix_regions(dag: Dag) -> Iterator[tuple[list[tuple[CondPrefix, bool]], Dag]]:
    """Iterate the disjoint prefix regions of a hoisted DAG: each yields the
    list of (prefix condition, sign) on the path and the community-only
    sub-DAG at that region."""
    if isinstance(dag, Actions) or not isinstance(dag.cond, CondPrefix):
        yield [], dag
        return
    for sub_path, sub in prefix_regions(dag.on_true):
        yield [(dag.cond, True)] + sub_path, sub
    for sub_path, sub in prefix_regions(dag.on_false):
        yield [(dag.cond, False)] + sub_path, sub


def is_hoisted(dag: Dag, under_comm: bool = False) -> bool:
    """Check the fig 10c invariant: no prefix condition below a community
    condition."""
    if isinstance(dag, Actions):
        return True
    if isinstance(dag.cond, CondPrefix) and under_comm:
        return False
    below = under_comm or isinstance(dag.cond, CondCommunity)
    return is_hoisted(dag.on_true, below) and is_hoisted(dag.on_false, below)


# ---------------------------------------------------------------------------
# NV code generation (fig 10d)
# ---------------------------------------------------------------------------

#: Writes one per-session literal (a prefix id, community, MED or
#: local-pref) given its value and type suffix.  The translator's writer
#: leaves a hole, so sessions that differ only in literals share one text.
Lit = Callable[[int, str], str]


def actions_nv(actions: Actions, lit: Lit) -> str:
    """NV expression of type ``option[bgpR]`` for a leaf's mutations, applied
    to a bound variable ``v`` holding the (non-optional) BGP route record."""
    if actions.drop:
        return "None"
    updates: list[str] = []
    if actions.set_local_pref is not None:
        updates.append(f"lpB = {lit(actions.set_local_pref, 'u16')}")
    if actions.set_metric is not None:
        updates.append(f"medB = {lit(actions.set_metric, 'u16')}")
    expr = "v"
    comm_expr = "v.commsB"
    for c in actions.add_communities:
        comm_expr = f"{comm_expr}[{lit(c, '')} := true]"
    for c in actions.remove_communities:
        comm_expr = f"{comm_expr}[{lit(c, '')} := false]"
    if comm_expr != "v.commsB":
        updates.append(f"commsB = {comm_expr}")
    if updates:
        expr = "{v with " + "; ".join(updates) + "}"
    return f"Some {expr}"


def community_dag_nv(dag: Dag, lit: Lit) -> str:
    """NV if-chain over route fields for a community-only DAG (bound var v)."""
    if isinstance(dag, Actions):
        return actions_nv(dag, lit)
    assert isinstance(dag.cond, CondCommunity)
    test = " && ".join(f"v.commsB[{lit(c, '')}]" for c in dag.cond.communities)
    return (f"if {test} then {community_dag_nv(dag.on_true, lit)} "
            f"else {community_dag_nv(dag.on_false, lit)}")


def route_fn_nv(dag: Dag, lit: Lit) -> str:
    """NV function ``ribEntry -> ribEntry`` applying a community-only DAG to
    the entry's BGP field, with the None-propagating wrapper of fig 10d."""
    body = community_dag_nv(dag, lit)
    return ("(fun ent -> match ent.bgp with | None -> ent "
            "| Some v -> {ent with bgp = (" + body + ")})")


def prefix_pred_nv(path: list[tuple[CondPrefix, bool]], lit: Lit) -> str:
    """NV key predicate for one prefix region (conjunction of memberships)."""
    parts: list[str] = []
    for cond, sign in path:
        if cond.prefix_ids:
            member = " || ".join(f"k = {lit(pid, 'u16')}" for pid in cond.prefix_ids)
            member = f"({member})"
        else:
            member = "false"
        parts.append(member if sign else f"!{member}")
    if not parts:
        return "(fun k -> true)"
    return "(fun k -> " + " && ".join(parts) + ")"


def route_map_nv(dag: Dag, step: str, name: str,
                 lit: Lit) -> tuple[list[str], str]:
    """Apply a hoisted route-map DAG to the RIB map ``step``: one ``let
    name<i> = mapIte …`` line per disjoint prefix region (a plain ``map``
    when a single region covers every key).  Returns the lines and the
    variable that holds the result.

    Regions are mutually exclusive, so applying them sequentially with an
    identity else-branch is sound: each entry is transformed exactly once.
    """
    assert is_hoisted(dag)
    lines: list[str] = []
    for count, (path, region) in enumerate(prefix_regions(dag)):
        fn = route_fn_nv(region, lit)
        var = f"{name}{count}"
        if not path:
            lines.append(f"  let {var} = map {fn} {step} in")
        else:
            pred = prefix_pred_nv(path, lit)
            lines.append(f"  let {var} = mapIte {pred} {fn} (fun ent -> ent) {step} in")
        step = var
    return lines, step
