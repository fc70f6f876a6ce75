"""Common control-plane properties as ``assert`` declarations (paper §2.4),
checked by simulation and SMT verification."""

from typing import Iterable

import repro


def reachability() -> str:
    """Every node ends up with some route (fig 12's property)."""
    return """
let assert (u : node) (x : attribute) =
  match x with
  | None -> false
  | Some b -> true
"""


def origin_validation(origin: int, external: Iterable[int] = ()) -> str:
    """No hijack: every internal node's route originates at ``origin``
    (fig 2b's property).  ``external`` nodes are exempt."""
    exempt = " || ".join(f"u = {v}n" for v in external) or "false"
    return f"""
let assert (u : node) (x : attribute) =
  match x with
  | None -> {exempt}
  | Some b -> if ({exempt}) then true else b.origin = {origin}n
"""


def bounded_path_length(bound: int, width: int = 32) -> str:
    """Every route's path length stays within ``bound`` hops."""
    suffix = "" if width == 32 else f"u{width}"
    return f"""
let assert (u : node) (x : attribute) =
  match x with
  | None -> false
  | Some b -> b.length <= {bound}{suffix}
"""


def waypoint(node: int, at: Iterable[int]) -> str:
    """Traversed-set waypointing (fig 3): routes selected at the nodes in
    ``at`` must cross ``node``.  Requires the ``bgpTraversed`` model."""
    guarded = " || ".join(f"u = {v}n" for v in at) or "false"
    return f"""
let assert (u : node) (x : attributeT) =
  match x with
  | None -> false
  | Some (s, b) -> if ({guarded}) then s[{node}n] else true
"""


BASE = """
include bgp
let nodes = 4
let edges = {0n=1n; 1n=2n; 2n=3n}
let trans e x = transBgp e x
let merge u x y = mergeBgp u x y
let init (u : node) =
  if u = 0n then Some {length=0; lp=100; med=80; comms={}; origin=0n}
  else None
"""


class TestReachability:
    def test_holds_on_connected_chain(self):
        net = repro.load(BASE + reachability())
        assert repro.simulate(net).violations == []
        assert repro.verify(net).verified

    def test_fails_when_partitioned(self):
        src = BASE.replace("{0n=1n; 1n=2n; 2n=3n}", "{0n=1n; 2n=3n}") + reachability()
        net = repro.load(src)
        assert set(repro.simulate(net).violations) == {2, 3}


class TestOriginValidation:
    def test_single_origin_verified(self):
        net = repro.load(BASE + origin_validation(0))
        assert repro.verify(net).verified

    def test_external_exemption(self):
        src = BASE + origin_validation(0, external=[3])
        net = repro.load(src)
        assert repro.simulate(net).violations == []


class TestPathLength:
    def test_bound_respected(self):
        net = repro.load(BASE + bounded_path_length(3))
        assert repro.simulate(net).violations == []

    def test_bound_violated(self):
        net = repro.load(BASE + bounded_path_length(2))
        assert repro.simulate(net).violations == [3]
        result = repro.verify(net)
        assert result.status == "counterexample"


class TestWaypoint:
    def test_waypoint_assertion_builds(self):
        src = """
include bgpTraversed
let nodes = 3
let edges = {0n=1n; 1n=2n}
let trans e x = transT e x
let merge u x y = mergeT u x y
let init (u : node) =
  if u = 0n then Some ({}, {length=0; lp=100; med=80; comms={}; origin=0n})
  else None
""" + waypoint(1, at=[2])
        net = repro.load(src)
        assert repro.simulate(net).violations == []
