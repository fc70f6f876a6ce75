"""SMT verification driver tests, including the paper's fig 2 scenario."""

import pytest

from repro.analysis.verify import verify
from repro.baselines.minesweeper import verify_minesweeper
from repro.eval.values import VSome
from repro.srp.network import functions_from_program
from repro.srp.simulate import simulate
from tests.helpers import FIG2_NETWORK, RIP_TRIANGLE, load


class TestFig2Hijack:
    """§2.4-2.5: 'the SMT analysis will refute our assertion: node 4 may send
    a better route than node 0 ... and successfully hijack traffic'."""

    def test_hijack_counterexample_found(self):
        net = load(FIG2_NETWORK)
        result = verify(net)
        assert result.status == "counterexample"
        route = result.counterexample["route"]
        assert isinstance(route, VSome)

    def test_counterexample_replays_in_simulator(self):
        """The SMT counterexample must be a genuine stable state: feed the
        hijack route back into the simulator and watch the assertion fail."""
        net = load(FIG2_NETWORK)
        result = verify(net)
        route = result.counterexample["route"]
        # Rebuild the route's comms set in a fresh simulation context.
        from repro.eval.maps import MapContext, NVMap
        from repro.eval.values import VRecord
        from repro.lang import types as T
        ctx = MapContext(net.num_nodes, net.edges)
        decoded = route.value
        comms = NVMap.create(ctx, T.TInt(32), decoded.get("comms").default)
        for key, val in decoded.get("comms").entries:
            comms = comms.set(key, val)
        concrete = VSome(VRecord((
            ("length", decoded.get("length")),
            ("lp", decoded.get("lp")),
            ("med", decoded.get("med")),
            ("comms", comms),
            ("origin", decoded.get("origin")),
        )))
        funcs = functions_from_program(net, symbolics={"route": concrete}, ctx=ctx)
        sol = simulate(funcs)
        assert sol.check_assertions(funcs.assert_fn) != []

    def test_filtered_network_verifies(self):
        """Adding an import filter on the peering links (drop routes whose
        origin isn't internal) removes the hijack."""
        src = FIG2_NETWORK.replace(
            "let trans e x = transBgp e x",
            """
let trans e x =
  let (u, v) = e in
  match transBgp e x with
  | None -> None
  | Some b ->
    if (u = 4n) && (b.origin <> 0n) then None else Some b
""")
        net = load(src)
        result = verify(net)
        assert result.status == "verified"


class TestReachability:
    def test_triangle_reachability_verified(self):
        net = load(RIP_TRIANGLE)
        result = verify(net)
        assert result.status == "verified"

    def test_violation_found_with_tight_bound(self):
        # Assert hop count <= 0: fails for nodes 1 and 2.
        src = RIP_TRIANGLE.replace("h <= 1u8", "h <= 0u8")
        net = load(src)
        result = verify(net)
        assert result.status == "counterexample"
        # The stable state in the counterexample matches the simulator's.
        assert result.node_attrs[0] == VSome(0)
        assert result.node_attrs[1] == VSome(1)

    def test_unknown_on_tiny_budget(self):
        net = load(RIP_TRIANGLE)
        result = verify(net, max_conflicts=1)
        assert result.status in ("verified", "unknown")


class TestSymbolicConstraints:
    def test_require_narrows_symbolics(self):
        # With lp forced low, node 4 cannot hijack via local preference,
        # but can still via shorter length... constrain both.
        src = """
include rip
let nodes = 2
let edges = {0n=1n}
symbolic start : int8
require start < 3u8
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some start else None
let assert (u : node) (x : rip) =
  match x with
  | None -> false
  | Some h -> h <= 3u8
"""
        net = load(src)
        assert verify(net).status == "verified"
        # Loosening the require reopens the violation.
        net2 = load(src.replace("require start < 3u8", "require start < 250u8"))
        result = verify(net2)
        assert result.status == "counterexample"
        assert result.counterexample["start"] >= 3


class TestMineSweeperBaseline:
    def test_same_verdicts(self):
        for src in (RIP_TRIANGLE, FIG2_NETWORK):
            net = load(src)
            nv = verify(net)
            ms = verify_minesweeper(net)
            assert nv.verified == ms.verified

    def test_unsimplified_encoding_is_larger(self):
        net = load(RIP_TRIANGLE)
        nv = verify(net)
        ms = verify_minesweeper(net)
        assert ms.smt.num_clauses > nv.smt.num_clauses


class TestPowerOfTwoNodes:
    """Regression: with num_nodes an exact power of two, the node-id range
    constraint used to wrap to zero and silently falsify N — making every
    property 'verified' vacuously."""

    def test_four_node_chain_counterexample(self):
        src = """
include rip
let nodes = 4
let edges = {0n=1n; 1n=2n; 2n=3n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) =
  match x with
  | None -> false
  | Some h -> h <= 2u8
"""
        net = load(src)
        result = verify(net)
        assert result.status == "counterexample"
        assert result.node_attrs[3] == VSome(3)

    def test_four_node_constraints_satisfiable(self):
        from repro.analysis.verify import encode_network
        from repro.smt.solver import Solver
        src = """
include rip
let nodes = 4
let edges = {0n=1n; 1n=2n; 2n=3n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
"""
        net = load(src)
        enc, _, _ = encode_network(net)
        solver = Solver(enc.tm)
        for c in enc.constraints:
            solver.add(c)
        assert solver.check().status == "sat"  # N must admit the stable state


class TestRecordUpdateToNone:
    """``{r with f = None}`` names ``f``: the SMT encoding must clear it, as
    ``simulate`` does.  The network has one stable state, so under
    ``assert … = false`` the SAT model's attributes are the simulated labels."""

    RECORD = """
type attribute = {len:int8; nh:option[int8]}
let nodes = 2
let edges = {0n=1n}
let init (u : node) =
  if u = 0n then {len = 0u8; nh = Some 7u8} else {len = 255u8; nh = Some 7u8}
let trans (e : edge) (x : attribute) = {x with len = x.len + 1u8; nh = None}
let merge (u : node) (x y : attribute) = if x.len <= y.len then x else y
let assert (u : node) (x : attribute) = false
"""

    OPTION_OF_RECORD = """
type route = {len:int8; nh:option[int8]}
type attribute = option[route]
let nodes = 2
let edges = {0n=1n}
let init (u : node) = if u = 0n then Some {len = 0u8; nh = Some 7u8} else None
let trans (e : edge) (x : attribute) =
  match x with
  | None -> None
  | Some r -> Some {r with len = r.len + 1u8; nh = None}
let merge (u : node) (x y : attribute) =
  match x, y with
  | _, None -> x
  | None, _ -> y
  | Some a, Some b -> if a.len <= b.len then x else y
let assert (u : node) (x : attribute) = false
"""

    @pytest.mark.parametrize("source", [RECORD, OPTION_OF_RECORD],
                             ids=["record", "option-of-record"])
    def test_verify_agrees_with_simulate(self, source):
        net = load(source)
        labels = simulate(functions_from_program(net, {})).labels
        result = verify(net)
        assert result.status == "counterexample"
        assert result.node_attrs == dict(enumerate(labels))
        route = labels[1].value if isinstance(labels[1], VSome) else labels[1]
        assert (route.get("len"), route.get("nh")) == (1, None)
