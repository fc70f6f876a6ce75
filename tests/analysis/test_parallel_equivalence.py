"""Parallel-vs-serial equivalence: the sharded drivers must produce results
identical to their serial counterparts (``jobs>1`` must change nothing but
wall clock).  For simulation and verification the units are the inputs, so
``jobs=1`` runs the same units in-process.  The fault driver sizes its
decomposition to the worker pool, so what is invariant there is the
*report* — in raw order, no test-side sorting — not the work.  These are
the acceptance properties of the sharded analysis engine."""

import pytest

import repro
from repro import parallel, perf
from repro.analysis import fault as fault_mod
from repro.analysis.fault import (fault_tolerance_analysis,
                                  fault_tolerance_sharded, freeze_fault_report,
                                  link_batches, merge_fault_reports,
                                  naive_fault_tolerance, route_order_key)
from repro.analysis.simulation import run_simulation, run_simulations
from repro.analysis.verify import verify, verify_many
from repro.eval.maps import freeze_value
from repro.topology import sp_program

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

# A chain 0 - 1 - 2 whose links are declared far end first, so with two
# batches the *lowest* batch holds the *largest* scenario keys: node 2 is
# cut off by either link, batch 0 = {1-2} finds witness (1, 2), and the
# smallest violating key (0, 1) lives in batch 1.
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
#: the driver handles: plain values, map-valued routes (FrozenMap path),
#: tuple keys, and a leading failed-node component.
DECOMPOSITION_CASES = [
    pytest.param(RIP_TRIANGLE, 1, False, id="rip-triangle"),
    pytest.param(RIP_BROKEN, 1, False, id="rip-broken"),
    pytest.param(BGP_CHAIN, 1, False, id="bgp-chain"),
    pytest.param(RIP_BROKEN, 2, False, id="rip-broken-2link"),
    pytest.param(RIP_BROKEN, 1, True, id="rip-broken-node-failures"),
    # First-seen-batch order lists node 1's classes as [Some 1, None] here.
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
        sharded = fault_tolerance_sharded(net, with_witnesses=True, jobs=1)
        assert normalize_fault(sharded) == normalize_fault(base)

    @pytest.mark.parametrize("source", [RIP_TRIANGLE, BGP_CHAIN])
    def test_jobs_invariant(self, source):
        net = repro.load(source)
        serial = fault_tolerance_sharded(net, with_witnesses=True, jobs=1)
        fanned = fault_tolerance_sharded(net, with_witnesses=True, jobs=2)
        assert normalize_fault(fanned) == normalize_fault(serial)

    def test_violating_network_witnesses_agree(self):
        net = repro.load(RIP_BROKEN)
        serial = fault_tolerance_sharded(net, with_witnesses=True, jobs=1)
        fanned = fault_tolerance_sharded(net, with_witnesses=True, jobs=2)
        assert not serial.fault_tolerant
        assert normalize_fault(fanned) == normalize_fault(serial)

    def test_scenario_count_conserved(self):
        # Batch restriction partitions the scenario space exactly: per-node
        # scenario counts must sum to the base analysis's counts.
        net = repro.load(RIP_TRIANGLE)
        base = fault_tolerance_analysis(net)
        sharded = fault_tolerance_sharded(net, jobs=2)
        for b, s in zip(base.nodes, sharded.nodes):
            assert sum(c for _, c, _ in b.classes) == \
                sum(c for _, c, _ in s.classes)

    @pytest.mark.parametrize("source, links, nodes", DECOMPOSITION_CASES)
    def test_report_independent_of_decomposition(self, source, links, nodes):
        net = repro.load(source)
        base = normalize_fault(fault_tolerance_analysis(
            net, num_link_failures=links, node_failures=nodes,
            with_witnesses=True))
        for batches in (1, 2, 3, 8):
            for jobs in (1, 2):
                sharded = fault_tolerance_sharded(
                    net, num_link_failures=links, node_failures=nodes,
                    with_witnesses=True, jobs=jobs, batches=batches)
                assert normalize_fault(sharded) == base, (batches, jobs)

    def test_class_order_is_the_same_live_and_frozen(self):
        # The unrestricted analysis sorts live values (NVMap inside BGP
        # routes), the merge sorts their frozen snapshots.
        report = fault_tolerance_analysis(repro.load(BGP_CHAIN))
        for node in report.nodes:
            keys = [route_order_key(v) for v, _, _ in node.classes]
            assert keys == sorted(keys)
            assert keys == [route_order_key(freeze_value(v))
                            for v, _, _ in node.classes]
        assert max(n.num_classes for n in report.nodes) > 1

    def test_witness_is_smallest_key_not_lowest_batch(self):
        net = repro.load(RIP_CHAIN_REVERSED)
        batches = link_batches(net, 2)
        assert batches == [((1, 2),), ((0, 1),)]
        per_batch = [fault_tolerance_analysis(net, with_witnesses=True,
                                              link_batch=batch)
                     for batch in batches]
        # The premise: the lowest batch has a witness for node 2, and it is
        # not the smallest violating key.
        assert per_batch[0].witnesses[2] == (1, 2)
        assert per_batch[1].witnesses[2] == (0, 1)
        base = fault_tolerance_analysis(net, with_witnesses=True)
        assert base.witnesses == {1: (0, 1), 2: (0, 1)}
        assert merge_fault_reports(per_batch).witnesses == base.witnesses
        assert merge_fault_reports(per_batch[::-1]).witnesses == base.witnesses
        for jobs in (1, 2):
            sharded = fault_tolerance_sharded(net, with_witnesses=True,
                                              jobs=jobs, batches=2)
            assert normalize_fault(sharded) == normalize_fault(base)

    def test_one_worker_runs_the_unrestricted_analysis(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("jobs=1 must not shard or restrict")

        monkeypatch.setattr(parallel, "run_sharded", forbidden)
        monkeypatch.setattr(fault_mod, "_batch_member_bdd", forbidden)
        net = repro.load(RIP_BROKEN)
        report = fault_tolerance_sharded(net, with_witnesses=True, jobs=1)
        assert normalize_fault(report) == normalize_fault(
            fault_tolerance_analysis(net, with_witnesses=True))

    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_units_follow_the_worker_count(self, jobs):
        net = repro.load(RIP_TRIANGLE)           # three physical links
        assert len(link_batches(net, jobs)) == min(jobs, 3)
        perf.reset()
        perf.enable()
        try:
            fault_tolerance_sharded(net, jobs=jobs)
            counters = perf.snapshot()
        finally:
            perf.disable()
            perf.reset()
        assert counters["fault.batches"] == min(jobs, 3)
        assert counters.get("parallel.units", 0) == \
            (0 if jobs == 1 else min(jobs, 3))

    def test_link_batches_rejects_zero(self):
        net = repro.load(RIP_TRIANGLE)
        for n in (0, -1):
            with pytest.raises(ValueError):
                link_batches(net, n)
        with pytest.raises(ValueError):
            fault_tolerance_sharded(net, jobs=1, batches=0)

    def test_naive_jobs_invariant(self):
        net = repro.load(RIP_TRIANGLE)
        assert naive_fault_tolerance(net, jobs=1) == \
            naive_fault_tolerance(net, jobs=2)
        broken = repro.load(RIP_BROKEN)
        tolerant1, n1 = naive_fault_tolerance(broken, jobs=1)
        tolerant2, n2 = naive_fault_tolerance(broken, jobs=2)
        assert (tolerant1, n1) == (tolerant2, n2)
        assert not tolerant1


class TestSimulationEquivalence:
    def test_jobs_invariant_per_prefix(self):
        nets = [repro.load(sp_program(4, d)) for d in (0, 1, 2)]
        serial = run_simulations(nets, jobs=1)
        fanned = run_simulations(nets, jobs=2)
        for a, b in zip(serial, fanned):
            assert a.solution.labels == b.solution.labels
            assert a.violations == b.violations
            assert a.solution.iterations == b.solution.iterations
            assert a.solution.messages == b.solution.messages
            assert a.solution.stats == b.solution.stats

    def test_sharded_matches_direct(self):
        net = repro.load(BGP_CHAIN)
        direct = run_simulation(net)
        [sharded] = run_simulations([net], jobs=2)
        assert [freeze_value(v) for v in direct.solution.labels] == \
            sharded.solution.labels
        assert direct.violations == sharded.violations

    def test_native_backend_jobs_invariant(self):
        nets = [repro.load(sp_program(4, d)) for d in (0, 1)]
        serial = run_simulations(nets, backend="native", jobs=1)
        fanned = run_simulations(nets, backend="native", jobs=2)
        for a, b in zip(serial, fanned):
            assert a.solution.labels == b.solution.labels
            assert a.violations == b.violations


class TestVerificationEquivalence:
    def test_jobs_invariant(self):
        nets = [repro.load(RIP_TRIANGLE), repro.load(RIP_BROKEN)]
        serial = verify_many(nets, jobs=1)
        fanned = verify_many(nets, jobs=2)
        assert [r.status for r in serial] == [r.status for r in fanned]
        assert [r.verified for r in serial] == [r.verified for r in fanned]
        assert [r.status for r in serial] == ["verified", "counterexample"]
        # Counterexamples are models, so only the verdict is canonical; but
        # any returned model must violate the assertion (status says so).
        assert fanned[1].counterexample is not None

    def test_sharded_matches_direct(self):
        net = repro.load(RIP_TRIANGLE)
        direct = verify(net)
        [sharded] = verify_many([net], jobs=2)
        assert direct.status == sharded.status
        assert direct.verified == sharded.verified
        assert direct.smt.num_clauses == sharded.smt.num_clauses
