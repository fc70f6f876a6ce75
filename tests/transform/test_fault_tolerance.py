"""Fault-tolerance meta-protocol tests (paper fig 5).

Ground truth is the naive baseline: simulate each failure scenario
independently and compare with the single bulk MTBDD simulation.
"""

import pytest

from repro.analysis.fault import fault_tolerance_analysis, naive_fault_tolerance
from repro.eval.values import VSome
from repro.lang import types as T
from repro.srp.network import Network, functions_from_program
from repro.srp.simulate import simulate
from repro.transform.fault_tolerance import (fault_tolerance_transform,
                                             scenario_key_type,
                                             symbolic_failures_program)
from tests.helpers import RIP_TRIANGLE, load


class TestTransformStructure:
    def test_attribute_becomes_map(self):
        net = load(RIP_TRIANGLE)
        ft = fault_tolerance_transform(net)
        assert isinstance(ft.attr_ty, T.TDict)
        assert ft.attr_ty.key == T.TEdge()

    def test_key_types(self):
        assert scenario_key_type(1, False) == T.TEdge()
        assert scenario_key_type(2, False) == T.TTuple((T.TEdge(), T.TEdge()))
        assert scenario_key_type(1, True) == T.TTuple((T.TNode(), T.TEdge()))

    def test_base_functions_kept(self):
        net = load(RIP_TRIANGLE)
        ft = fault_tolerance_transform(net)
        names = {d.name for d in ft.program.lets().values()}
        assert {"initBase", "transBase", "mergeBase", "assertBase"} <= names

    def test_rejects_zero_failures(self):
        net = load(RIP_TRIANGLE)
        with pytest.raises(ValueError):
            fault_tolerance_transform(net, num_link_failures=0)


class TestAgainstNaiveEnumeration:
    def _scenario_labels(self, net, failed_link):
        """Simulate with one undirected link removed."""
        funcs = functions_from_program(net)
        base_trans = funcs.trans

        def trans(edge, x):
            if edge == failed_link or edge == (failed_link[1], failed_link[0]):
                return None
            return base_trans(edge, x)

        funcs.trans = trans
        return simulate(funcs).labels

    def test_triangle_single_failures_match(self):
        net = load(RIP_TRIANGLE)
        ft = fault_tolerance_transform(net)
        funcs = functions_from_program(ft)
        bulk = simulate(funcs).labels
        for failed in net.edges:
            expected = self._scenario_labels(net, failed)
            for u in range(net.num_nodes):
                got = bulk[u].get(failed)
                assert got == expected[u], (failed, u, got, expected[u])

    def test_diamond_single_failures_match(self):
        src = """
include rip
let nodes = 4
let edges = {0n=1n; 0n=2n; 1n=3n; 2n=3n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) = match x with | None -> false | Some h -> true
"""
        net = load(src)
        ft = fault_tolerance_transform(net)
        bulk = simulate(functions_from_program(ft)).labels
        for failed in net.edges:
            expected = self._scenario_labels(net, failed)
            for u in range(net.num_nodes):
                assert bulk[u].get(failed) == expected[u]


class TestAnalysisDriver:
    def test_triangle_tolerates_one_failure(self):
        src = RIP_TRIANGLE.replace("h <= 1u8", "h <= 2u8")
        net = load(src)
        report = fault_tolerance_analysis(net, num_link_failures=1)
        assert report.fault_tolerant
        assert report.max_classes >= 1

    def test_chain_is_not_tolerant(self):
        src = """
include rip
let nodes = 3
let edges = {0n=1n; 1n=2n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) = match x with | None -> false | Some h -> true
"""
        net = load(src)
        report = fault_tolerance_analysis(net, num_link_failures=1,
                                          with_witnesses=True)
        assert not report.fault_tolerant
        # Node 2 loses its route when either link fails; witnesses decode to
        # actual directed edges of the network.
        assert 2 in report.witnesses
        witness = report.witnesses[2]
        assert witness in net.edges

    def test_two_failure_scenarios(self):
        src = RIP_TRIANGLE.replace("h <= 1u8", "h <= 2u8")
        net = load(src)
        report = fault_tolerance_analysis(net, num_link_failures=2)
        # Two failed links in a triangle can isolate a node.
        assert not report.fault_tolerant

    def test_node_failures(self):
        # Diamond: single node failure of 1 or 2 keeps 3 reachable;
        # failing node 3 itself makes its own assertion fail (no route).
        src = """
include rip
let nodes = 4
let edges = {0n=1n; 0n=2n; 1n=3n; 2n=3n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) = match x with | None -> false | Some h -> true
"""
        net = load(src)
        report = fault_tolerance_analysis(net, num_link_failures=1,
                                          node_failures=True)
        # Some scenario must break: e.g. failed node 0 (the destination).
        assert not report.fault_tolerant

    def test_naive_agrees_with_bulk(self):
        src = RIP_TRIANGLE.replace("h <= 1u8", "h <= 2u8")
        net = load(src)
        bulk = fault_tolerance_analysis(net, num_link_failures=1)
        naive_ok, scenarios = naive_fault_tolerance(net)
        assert naive_ok == bulk.fault_tolerant
        assert scenarios == len(net.edges)


    def test_merged_witness_is_smallest_in_edge_index_order(self):
        # Edge keys sort by link, then orientation: (1, 0) is edge 1 and
        # (0, 2) edge 2, whatever the endpoint pairs say.
        from repro.analysis.fault import (FaultReport, NodeFaultReport,
                                          merge_fault_reports)

        def report(links, nodes, witness):
            classes = [NodeFaultReport(0, [(None, 1, False)])]
            return FaultReport(links, nodes, classes, 0.0, 0.0, {0: witness})

        for links, nodes, low, high in [
                (1, False, (1, 0), (0, 2)),
                (2, False, ((0, 1), (1, 0)), ((0, 1), (0, 2))),
                (1, True, (1, (2, 0)), (1, (1, 3))),
                (1, True, (0, (1, 3)), (1, (0, 1)))]:
            for batches in ([low, high], [high, low]):
                merged = merge_fault_reports(
                    [report(links, nodes, w) for w in batches])
                assert merged.witnesses == {0: low}


class TestSymbolicFailures:
    def test_program_structure(self):
        net = load(RIP_TRIANGLE)
        prog = symbolic_failures_program(net, max_failures=1)
        sym_names = [s.name for s in prog.symbolics()]
        assert len(sym_names) == len(net.links)
        assert len(prog.requires()) == 1

    def test_smt_detects_violation_under_failure(self):
        # Chain 0-1-2: any single failure disconnects someone -> SMT finds it.
        src = """
include rip
let nodes = 3
let edges = {0n=1n; 1n=2n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) = match x with | None -> false | Some h -> true
"""
        from repro.analysis.verify import verify
        net = load(src)
        prog = symbolic_failures_program(net, max_failures=1)
        ft_net = Network.from_program(prog)
        result = verify(ft_net)
        assert result.status == "counterexample"
        assert any(result.counterexample.get(f"fail{i}") for i in range(2))

    def test_smt_verifies_redundant_network(self):
        # Triangle with hop bound 2 survives any single link failure.
        src = RIP_TRIANGLE.replace("h <= 1u8", "h <= 2u8")
        from repro.analysis.verify import verify
        net = load(src)
        prog = symbolic_failures_program(net, max_failures=1)
        ft_net = Network.from_program(prog)
        result = verify(ft_net)
        assert result.status == "verified"
