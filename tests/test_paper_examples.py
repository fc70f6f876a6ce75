"""Integration tests reproducing the paper's worked examples end to end:

* fig 2  — the BGP hijack scenario (simulation + SMT refutation);
* fig 3  — waypointing via traversed-node sets;
* fig 5  — the fault-tolerance meta-protocol;
* fig 11 — the mapIte MTBDD construction;
* §2.6   — tweaking the BGP decision process (the MineSweeper feature
           request served by editing one NV function).
"""

import pytest

import repro
from repro.eval.values import VSome
from tests.helpers import FIG2_NETWORK


class TestFig2:
    def test_simulation_without_attacker(self):
        net = repro.load(FIG2_NETWORK)
        report = repro.simulate(net, symbolics={"route": None})
        assert not report.violations
        lengths = [report.solution.labels[u].value.get("length") for u in range(5)]
        assert lengths == [0, 1, 1, 2, 2]

    def test_smt_refutes_assertion(self):
        net = repro.load(FIG2_NETWORK)
        result = repro.verify(net)
        assert result.status == "counterexample"


class TestFig3Waypointing:
    WAYPOINT = """
include bgpTraversed
let nodes = 4
let edges = {0n=1n; 1n=2n; 2n=3n; 0n=3n}

let trans e x = transT e x
let merge u x y = mergeT u x y

let init (u : node) =
  if u = 0n then
    Some ({}, {length=0; lp=100; med=80; comms={}; origin=0n})
  else None

// Waypoint property: node 2's route to the destination goes through node 1.
let assert (u : node) (x : attributeT) =
  match x with
  | None -> false
  | Some (s, b) -> if u = 2n then s[1n] else true
"""

    def test_traversed_sets_collected(self):
        net = repro.load(self.WAYPOINT)
        report = repro.simulate(net)
        route2 = report.solution.labels[2]
        assert isinstance(route2, VSome)
        traversed, bgp = route2.value
        assert bgp.get("length") == 2
        assert traversed.get(1) is True or traversed.get(3) is True

    def test_waypoint_violated_on_short_side(self):
        """Node 2 reaches 0 via 1 or via 3 (both 2 hops); the merge breaks
        the tie deterministically, so the waypoint assertion documents which
        side wins — and flipping the required waypoint must flip the verdict."""
        net = repro.load(self.WAYPOINT)
        report = repro.simulate(net)
        route2 = report.solution.labels[2]
        via1 = route2.value[0].get(1)
        via3 = route2.value[0].get(3)
        assert via1 != via3  # exactly one side is the chosen path
        assert report.violations == ([] if via1 else [2])


class TestFig5FaultTolerance:
    def test_fattree_single_link_tolerant(self):
        from repro.topology import sp_program
        net = repro.load(sp_program(4))
        report = repro.check_fault_tolerance(net, link_failures=1)
        assert report.fault_tolerant
        # The paper's fig 4 point: failures cluster into few classes.
        assert report.max_classes <= 4

    def test_fattree_two_links_can_disconnect(self):
        from repro.topology import sp_program
        net = repro.load(sp_program(4))
        report = repro.check_fault_tolerance(net, link_failures=2)
        assert not report.fault_tolerant


class TestFig11:
    def test_mapite_example(self):
        src = """
let opt_incr = fun v -> match v with | None -> None | Some x -> Some (x + 1u8)
let nodes = 2
let edges = {0n=1n}
let m : dict[int3, option[int8]] = createDict (Some 0u8)
let out = mapIte (fun k -> k > 3u3) opt_incr (fun v -> None) m
let init (u : node) = 0
let trans (e : edge) (x : int) = x
let merge (u : node) (x y : int) = x
"""
        from repro.eval.interp import Interpreter, program_env
        from repro.eval.maps import MapContext
        from repro.lang.parser import parse_program
        from repro.lang.typecheck import check_program
        program = parse_program(src)
        check_program(program)
        env = program_env(program, Interpreter(MapContext(2, ((0, 1), (1, 0)))))
        out = env["out"]
        for k in range(8):
            assert out.get(k) == (VSome(1) if k > 3 else None)
        # Sharing: the result has exactly two leaves.
        assert sorted(out.groups().values()) == [4, 4]


class TestSection26CustomRanking:
    """§2.6: 'it suffices to tweak the merge function' to change how BGP
    ranks routes — here, prefer lower MED *before* path length."""

    BASE = """
include bgp
let nodes = 3
let edges = {0n=1n; 1n=2n; 0n=2n}

let trans (e : edge) (x : attribute) =
  let (u, v) = e in
  match transBgp e x with
  | None -> None
  | Some b -> if u = 0n && v = 2n then Some {b with med = 200} else Some b

MERGE

let init (u : node) =
  if u = 0n then Some {length=0; lp=100; med=80; comms={}; origin=0n}
  else None
"""

    STANDARD = "let merge u x y = mergeBgp u x y"
    MED_FIRST = """
let merge u x y =
  match x, y with
  | _, None -> x
  | None, _ -> y
  | Some b1, Some b2 ->
    if b1.med < b2.med then x
    else if b2.med < b1.med then y
    else if b1.length <= b2.length then x else y
"""

    def test_tweaked_merge_changes_selection(self):
        std = repro.load(self.BASE.replace("MERGE", self.STANDARD))
        med = repro.load(self.BASE.replace("MERGE", self.MED_FIRST))
        route_std = repro.simulate(std).solution.labels[2]
        route_med = repro.simulate(med).solution.labels[2]
        # Standard BGP: direct 1-hop route with med 200 wins on length.
        assert route_std.value.get("length") == 1
        assert route_std.value.get("med") == 200
        # MED-first ranking: the 2-hop route through node 1 (med 80) wins.
        assert route_med.value.get("length") == 2
        assert route_med.value.get("med") == 80

    def test_tweaked_model_works_in_all_analyses(self):
        """The same tweaked model drives simulation, SMT and fault analysis
        unchanged — the paper's 'automatically usable by all analyses'."""
        net = repro.load(self.BASE.replace("MERGE", self.MED_FIRST))
        assert repro.simulate(net).violations == []
        assert repro.verify(net).status in ("verified", "counterexample")
        report = repro.check_fault_tolerance(net, link_failures=1)
        assert report.nodes  # analysis ran


class TestFig10ConfigTranslation:
    def test_example_prints_a_generated_route_map(self, capsys):
        """``examples/config_translation.py`` shows the first transfer shape:
        the route-map's DAG IR as ``mapIte`` over hoisted prefix regions."""
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "examples" / "config_translation.py"
        spec = importlib.util.spec_from_file_location("nv_example_config_translation", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        out = capsys.readouterr().out
        section = out.split("=== generated route-map (DAG IR -> mapIte, fig 10d) ===")[1]
        section = section.split("NV model:")[0]
        assert section.strip().startswith("let shape0")
        assert "mapIte" in section
