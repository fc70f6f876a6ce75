"""Parallel-vs-serial equivalence: the sharded fault drivers must produce
results identical to their serial counterparts (``jobs>1`` must change
nothing but wall clock), and ``jobs=1`` runs the same units in-process (one
analysis per prefix, one simulation per scenario).  The fig 5
meta-protocol is one in-process simulation at any worker count: its report
must not depend on ``NV_JOBS``, and no pool may start.  Partitioned
verification, the one verify path that shards, has its own jobs check in
``test_partition.py``."""

import pytest

import repro
from repro import parallel
from repro.analysis.fault import (fault_tolerance_analysis,
                                  fault_tolerance_sharded, freeze_fault_report,
                                  naive_fault_tolerance,
                                  per_prefix_fault_tolerance, route_order_key)
from repro.cli import main
from repro.eval.maps import freeze_value

from tests.helpers import RIP_TRIANGLE

# A BGP chain: routes carry a ``comms`` map, so cross-process transport
# exercises the FrozenMap snapshot path, not just plain values.
BGP_CHAIN = """
include bgp
let nodes = 4
let edges = {0n=1n; 1n=2n; 2n=3n}
let trans e x = transBgp e x
let merge u x y = mergeBgp u x y
let init (u : node) =
  if u = 0n then Some {length=0; lp=100; med=80; comms={}; origin=0n}
  else None
let assert (u : node) (x : attribute) = true
"""

RIP_BROKEN = RIP_TRIANGLE.replace("h <= 1u8", "h <= 0u8")

# A chain 0 - 1 - 2 declared far end first: node 2's witness is the smallest
# violating key, (0, 1), not the first-declared link (1, 2).
RIP_CHAIN_REVERSED = """
include rip
let nodes = 3
let edges = {1n=2n; 0n=1n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) =
  match x with
  | None -> false
  | Some h -> true
"""

#: (source, link failures, node failures) — every route shape and key shape
#: the analysis handles: plain values, map-valued routes, tuple keys, and a
#: leading failed-node component.
DECOMPOSITION_CASES = [
    pytest.param(RIP_TRIANGLE, 1, False, id="rip-triangle"),
    pytest.param(RIP_BROKEN, 1, False, id="rip-broken"),
    pytest.param(BGP_CHAIN, 1, False, id="bgp-chain"),
    pytest.param(RIP_BROKEN, 2, False, id="rip-broken-2link"),
    pytest.param(RIP_BROKEN, 1, True, id="rip-broken-node-failures"),
    pytest.param(RIP_CHAIN_REVERSED, 1, False, id="rip-chain-reversed"),
]


def normalize_fault(report):
    """Process-transportable view of a fault report, in the order the
    driver emitted it: class lists and witnesses are compared raw."""
    frozen = freeze_fault_report(report)
    return (frozen.num_link_failures, frozen.node_failures,
            [(node.node, node.classes) for node in frozen.nodes],
            frozen.witnesses, frozen.fault_tolerant)


class TestFaultEquivalence:
    @pytest.mark.parametrize("source", [RIP_TRIANGLE, BGP_CHAIN])
    def test_sharded_matches_base(self, source):
        net = repro.load(source)
        base = fault_tolerance_analysis(net, with_witnesses=True)
        sharded = fault_tolerance_sharded(net, with_witnesses=True)
        assert normalize_fault(sharded) == normalize_fault(base)

    @pytest.mark.parametrize("source", [RIP_TRIANGLE, BGP_CHAIN])
    def test_jobs_invariant(self, source):
        # The fault axis that still shards: one analysis per prefix program.
        nets = [repro.load(source), repro.load(RIP_BROKEN)]
        serial, fanned = ([normalize_fault(r) for r in per_prefix_fault_tolerance(
            nets, with_witnesses=True, jobs=jobs)] for jobs in (1, 2))
        assert fanned == serial

    def test_violating_network_witnesses_agree(self):
        net = repro.load(RIP_BROKEN)
        sharded = fault_tolerance_sharded(net, with_witnesses=True)
        assert not sharded.fault_tolerant and sharded.witnesses == \
            fault_tolerance_analysis(net, with_witnesses=True).witnesses

    def test_scenario_count_conserved(self):
        # Classes partition the scenarios: one per directed edge here.
        net = repro.load(RIP_TRIANGLE)
        report = fault_tolerance_sharded(net)
        for node in report.nodes:
            assert sum(c for _, c, _ in node.classes) == len(net.edges)

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("fault must not shard")

        monkeypatch.setattr(parallel, "run_sharded", forbidden)

    @pytest.mark.parametrize("source, links, nodes", DECOMPOSITION_CASES)
    def test_cli_report_is_the_same_at_any_worker_count(
            self, source, links, nodes, tmp_path, capsys, monkeypatch,
            no_pool):
        """``fault`` prints the in-process analysis' verdict and witness
        lines at ``NV_JOBS`` 1, 2 and 4, and starts no pool."""
        f = tmp_path / "net.nv"
        f.write_text(source)
        argv = ["fault", str(f), "--links", str(links), "--witnesses"] + \
            ["--nodes"] * nodes
        base = fault_tolerance_analysis(
            repro.load(source), num_link_failures=links, node_failures=nodes,
            with_witnesses=True)
        want = [base.summary().split("; simulate ")[0]] + [
            f"  node {u} violates under failure scenario {w}"
            for u, w in sorted(base.witnesses.items())]
        for jobs in ("1", "2", "4"):
            monkeypatch.setenv("NV_JOBS", jobs)
            assert main(argv) == (0 if base.fault_tolerant else 1)
            lines = capsys.readouterr().out.splitlines()
            assert [lines[0].split("; simulate ")[0]] + lines[1:] == want, jobs

    def test_class_order_is_the_same_live_and_frozen(self):
        # The analysis sorts live values (NVMap inside BGP routes); their
        # frozen snapshots sort the same way.
        report = fault_tolerance_analysis(repro.load(BGP_CHAIN))
        for node in report.nodes:
            keys = [route_order_key(v) for v, _, _ in node.classes]
            assert keys == sorted(keys)
            assert keys == [route_order_key(freeze_value(v))
                            for v, _, _ in node.classes]
        assert max(n.num_classes for n in report.nodes) > 1

    def test_witness_is_smallest_key_not_lowest_batch(self):
        net = repro.load(RIP_CHAIN_REVERSED)
        base = fault_tolerance_analysis(net, with_witnesses=True)
        assert base.witnesses == {1: (0, 1), 2: (0, 1)}
        sharded = fault_tolerance_sharded(net, with_witnesses=True)
        assert normalize_fault(sharded) == normalize_fault(base)

    def test_one_worker_runs_the_unrestricted_analysis(self, no_pool):
        net = repro.load(RIP_BROKEN)
        report = fault_tolerance_sharded(net, with_witnesses=True)
        assert normalize_fault(report) == normalize_fault(
            fault_tolerance_analysis(net, with_witnesses=True))

    def test_naive_jobs_invariant(self):
        net = repro.load(RIP_TRIANGLE)
        assert naive_fault_tolerance(net, jobs=1) == \
            naive_fault_tolerance(net, jobs=2)
        broken = repro.load(RIP_BROKEN)
        tolerant1, n1 = naive_fault_tolerance(broken, jobs=1)
        tolerant2, n2 = naive_fault_tolerance(broken, jobs=2)
        assert (tolerant1, n1) == (tolerant2, n2)
        assert not tolerant1

