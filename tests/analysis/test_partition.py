"""Tests for modular (Kirigami-style) verification.

Covers the cutter (plans, heuristics, validation), the interface language
(cut files, annotations, type checking), and the driver: partitioned
verdicts must match monolithic ones, a wrong annotation must surface as a
fragment-level refutation naming the violated interface edge, and inference
mode must fall back to monolithic when an inferred guarantee fails.
"""

import json

import pytest

from repro.analysis.partition import (extend_with_annotations,
                                      infer_interfaces, verify_partitioned)
from repro.analysis.verify import verify
from repro.lang.errors import NvPartitionError
from repro.lang.parser import parse_program
from repro.partition import (Annotation, CutSpec, auto_partition, bfs_rings,
                             fattree_pods, load_cut_file,
                             parse_cut_spec, plan_from_cut_links,
                             plan_from_fragments, spectral_bisect)
from repro.protocols import resolve
from repro.srp.network import Network
from repro.topology import fattree
from repro.topology.graph import Topology
from repro.topology.zoo import uscarrier_like

RIP_TRIANGLE = """
include rip
let nodes = 3
let edges = {0n=1n; 1n=2n; 0n=2n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) =
  match x with
  | None -> false
  | Some h -> h <= 1u8
"""

RIP_CHAIN = """
include rip
let nodes = 4
let edges = {0n=1n; 1n=2n; 2n=3n}
let trans e x = transRip e x
let merge u x y = mergeRip u x y
let init (u : node) = if u = 0n then Some 0u8 else None
let assert (u : node) (x : rip) =
  match x with
  | None -> false
  | Some h -> h <= 3u8
"""

RIP_CHAIN_BAD = RIP_CHAIN.replace("h <= 3u8", "h <= 2u8")

RIP_SYMBOLIC = """
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


# Every node holding the same route is a stable state that simulation (from
# None everywhere) never reaches: the route sustains itself around 0-1.
SELF_SUSTAINING = """
type attribute = option[int8]
let nodes = 3
let edges = {0n=1n; 1n=2n}
let init (u : node) = None
let trans (e : edge) (x : attribute) = x
let merge (u : node) (x y : attribute) = match x with | None -> y | _ -> x
let assert (u : node) (x : attribute) = true
"""


def load(source):
    return Network.from_program(parse_program(source, resolve))


# ----------------------------------------------------------------------
# Cutter
# ----------------------------------------------------------------------

class TestCutter:
    def test_plan_from_fragments_cut_edges(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        plan = plan_from_fragments(topo, [[0, 1], [2, 3]])
        assert plan.cut_edges == ((1, 2), (2, 1))
        assert 1 in plan.fragments[0] and 2 in plan.fragments[1]

    def test_plan_rejects_overlap_and_gap(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        with pytest.raises(NvPartitionError, match="appears in fragments"):
            plan_from_fragments(topo, [[0, 1], [1, 2]])
        with pytest.raises(NvPartitionError, match="covered by no fragment"):
            plan_from_fragments(topo, [[0], [2]])
        with pytest.raises(NvPartitionError, match="empty"):
            plan_from_fragments(topo, [[0, 1, 2], []])

    def test_plan_from_cut_links(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        plan = plan_from_cut_links(topo, [(1, 2)])
        assert plan.fragments == ((0, 1), (2, 3))
        with pytest.raises(NvPartitionError, match="not in the topology"):
            plan_from_cut_links(topo, [(0, 3)])

    def test_plan_from_cut_links_must_disconnect(self):
        topo = Topology(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NvPartitionError, match="leaves the topology connected"):
            plan_from_cut_links(topo, [(0, 1)])

    def test_fattree_pods_cut_at_spine(self):
        topo = fattree(4)
        plan = fattree_pods(topo)
        # 4 pods + the core fragment.
        assert len(plan.fragments) == 5
        core = [u for u, r in topo.roles.items() if r == "core"]
        assert tuple(sorted(core)) in plan.fragments
        # Every cut edge touches the core (the spine cut).
        core_set = set(core)
        for u, v in plan.cut_edges:
            assert u in core_set or v in core_set

    def test_bfs_rings_cover_wan(self):
        topo = uscarrier_like(num_nodes=60, num_links=130, seed=7)
        plan = bfs_rings(topo, 4)
        assert len(plan.fragments) == 4
        assert sorted(u for f in plan.fragments for u in f) == \
            list(range(topo.num_nodes))

    def test_spectral_bisect_balances(self):
        topo = fattree(4)
        plan = spectral_bisect(topo, 4)
        sizes = sorted(len(f) for f in plan.fragments)
        assert sum(sizes) == topo.num_nodes
        assert sizes[-1] - sizes[0] <= 2  # median splits stay balanced

    def test_auto_partition_prefers_pods_with_roles(self):
        topo = fattree(4)
        plan = auto_partition(topo)
        assert len(plan.fragments) == 5  # 4 pods + spine
        plain = Topology(topo.num_nodes, topo.links)
        plan2 = auto_partition(plain, k=3)
        assert len(plan2.fragments) == 3


# ----------------------------------------------------------------------
# Cut files / annotations
# ----------------------------------------------------------------------

class TestCutFiles:
    def test_round_trip(self, tmp_path):
        spec = CutSpec(fragments=[[0, 1], [2, 3]], interfaces={
            (1, 2): Annotation("route", "Some 2u8"),
            (2, 1): Annotation("pred", "fun x -> true"),
            (3, 0): Annotation("infer"),
        })
        text = json.dumps({"fragments": [[0, 1], [2, 3]], "interfaces": {
            "1->2": {"route": "Some 2u8"}, "2->1": {"pred": "fun x -> true"},
            "3->0": "infer"}})
        back = parse_cut_spec(json.loads(text))
        assert back.fragments == spec.fragments
        assert back.interfaces == spec.interfaces
        path = tmp_path / "cuts.json"
        path.write_text(text)
        assert load_cut_file(str(path)).interfaces == spec.interfaces

    def test_rejects_malformed(self):
        with pytest.raises(NvPartitionError, match="exactly one"):
            parse_cut_spec({"fragments": [[0]], "cut_links": [[0, 1]]})
        with pytest.raises(NvPartitionError, match="unknown cut-file keys"):
            parse_cut_spec({"fragments": [[0]], "extra": 1})
        with pytest.raises(NvPartitionError, match="expected 'u->v'"):
            parse_cut_spec({"fragments": [[0]], "interfaces": {"1-2": "infer"}})
        with pytest.raises(NvPartitionError, match="bad interface annotation"):
            parse_cut_spec({"fragments": [[0]],
                            "interfaces": {"1->2": {"oops": "x"}}})

    def test_annotation_kinds_validated(self):
        with pytest.raises(NvPartitionError, match="unknown annotation kind"):
            Annotation("equals", "x")
        with pytest.raises(NvPartitionError, match="needs NV source"):
            Annotation("route")

    def test_bad_annotation_type_is_reported(self):
        net = load(RIP_CHAIN)
        with pytest.raises(NvPartitionError,
                           match="does not fit the attribute type"):
            extend_with_annotations(net, {(1, 2): Annotation("route", "true")})

    def test_unparsable_annotation_names_edge(self):
        net = load(RIP_CHAIN)
        with pytest.raises(NvPartitionError, match="1->2"):
            extend_with_annotations(net, {(1, 2): Annotation("route", "(((")})

    def test_annotating_a_non_cut_edge_fails(self):
        net = load(RIP_CHAIN)
        cuts = CutSpec(fragments=[[0, 1], [2, 3]], interfaces={
            (0, 1): Annotation("route", "Some 1u8")})
        with pytest.raises(NvPartitionError, match="not a directed cut edge"):
            verify_partitioned(net, cuts=cuts)


# ----------------------------------------------------------------------
# Driver: partitioned == monolithic
# ----------------------------------------------------------------------

class TestPartitionedVerify:
    def test_verified_matches_monolithic(self):
        net = load(RIP_TRIANGLE)
        mono = verify(net)
        rep = verify_partitioned(net, cuts=CutSpec(fragments=[[0, 1], [2]]))
        assert mono.status == "verified"
        assert rep.status == "verified"
        assert rep.verified
        assert not rep.escalated
        assert all(g.status == "discharged"
                   for fr in rep.fragments for g in fr.guarantees)

    def test_counterexample_matches_and_stitches(self):
        net = load(RIP_CHAIN_BAD)
        mono = verify(net)
        rep = verify_partitioned(net, cuts=CutSpec(fragments=[[0, 1], [2, 3]]))
        assert mono.status == rep.status == "counterexample"
        # Deterministic net: the stitched whole-network stable state equals
        # the monolithic model.
        assert rep.stitched
        assert rep.node_attrs == mono.node_attrs

    def test_jobs2_equals_serial(self):
        net = load(RIP_CHAIN_BAD)
        serial = verify_partitioned(net,
                                    cuts=CutSpec(fragments=[[0, 1], [2, 3]]))
        sharded = verify_partitioned(net,
                                     cuts=CutSpec(fragments=[[0, 1], [2, 3]]),
                                     jobs=2)
        assert serial.status == sharded.status
        assert serial.node_attrs == sharded.node_attrs
        assert [fr.result.status for fr in serial.fragments] == \
            [fr.result.status for fr in sharded.fragments]

    def test_correct_route_annotations_discharge(self):
        net = load(RIP_CHAIN)
        cuts = CutSpec(fragments=[[0, 1], [2, 3]], interfaces={
            (1, 2): Annotation("route", "Some 2u8"),
            (2, 1): Annotation("route", "Some 3u8"),
        })
        rep = verify_partitioned(net, cuts=cuts)
        assert rep.status == "verified"
        assert not rep.inferred  # nothing left to infer

    def test_pred_annotations_discharge(self):
        net = load(RIP_CHAIN)
        cuts = CutSpec(fragments=[[0, 1], [2, 3]], interfaces={
            (1, 2): Annotation(
                "pred", "fun (x : rip) -> match x with"
                        " | None -> false | Some h -> h <= 2u8"),
            (2, 1): Annotation("pred", "fun x -> true"),
        })
        rep = verify_partitioned(net, cuts=cuts)
        assert rep.status == "verified"

    def test_partition_gauges_exported(self):
        from repro import metrics
        net = load(RIP_TRIANGLE)
        metrics.reset()
        metrics.enable()
        try:
            verify_partitioned(net, cuts=CutSpec(fragments=[[0, 1], [2]]))
            gauges = metrics.snapshot().get("gauges", {})
        finally:
            metrics.disable()
        assert gauges.get("partition.fragments") == 2
        assert gauges.get("partition.cut_edges") == 4
        assert gauges.get("partition.interfaces_inferred") == 4

    @pytest.mark.parametrize("k, guarantees", [
        (4, [6, 6, 6, 6]), (6, [18, 18, 23, 35])])
    def test_fragments_skip_preprocessing(self, k, guarantees):
        """Fragments run no CNF preprocessor, and every fragment verdict
        and guarantee discharge is the one the preprocessing solver gave."""
        from repro import perf
        from repro.topology import fat_program

        net = load(fat_program(k, narrow=True))
        with perf.enabled():
            perf.reset()
            rep = verify_partitioned(net, partition=4, jobs=1)
            counters = perf.snapshot()
        assert not [name for name in counters if name.startswith("sat.pre.")]
        assert counters["sat.checks"] == len(guarantees) + sum(guarantees)
        assert rep.status == "verified" and not rep.escalated
        assert [(fr.result.status, [g.status for g in fr.guarantees])
                for fr in rep.fragments] == \
            [("verified", ["discharged"] * n) for n in guarantees]


# ----------------------------------------------------------------------
# Interface discharge failure paths
# ----------------------------------------------------------------------

class TestDischargeFailure:
    def test_wrong_annotation_names_violated_edge(self):
        net = load(RIP_CHAIN)
        cuts = CutSpec(fragments=[[0, 1], [2, 3]], interfaces={
            (1, 2): Annotation("route", "Some 2u8"),
            (2, 1): Annotation("route", "None"),  # actually Some 3u8
        })
        rep = verify_partitioned(net, cuts=cuts)
        assert rep.status == "interface_refuted"
        assert not rep.verified
        assert rep.refuted_interfaces == [(2, 1)]
        assert not rep.escalated  # user annotations never auto-escalate
        # The refutation carries a witness stable state of the sender
        # fragment, and the summary names the edge.
        (check,) = [g for fr in rep.fragments for g in fr.guarantees
                    if g.status == "refuted"]
        assert check.edge == (2, 1)
        assert check.witness
        assert "refuted interface 2->1" in rep.summary()

    def test_too_weak_pred_is_refuted_not_crashed(self):
        net = load(RIP_CHAIN)
        cuts = CutSpec(fragments=[[0, 1], [2, 3]], interfaces={
            (1, 2): Annotation(
                "pred", "fun (x : rip) -> match x with"
                        " | None -> true | Some h -> false"),
            (2, 1): Annotation("pred", "fun x -> true"),
        })
        rep = verify_partitioned(net, cuts=cuts)
        assert rep.status == "interface_refuted"
        assert (1, 2) in rep.refuted_interfaces

    def test_inferred_failure_falls_back_to_monolithic(self):
        # The simulation sends None across 1->2, but fragment {0, 1} has a
        # stable state that sends a route, so the inferred exact-message
        # guarantee is refutable -> the driver must escalate and return the
        # monolithic verdict.
        net = load(SELF_SUSTAINING)
        rep = verify_partitioned(net, cuts=CutSpec(fragments=[[0, 1], [2]]))
        assert rep.escalated
        assert rep.monolithic is not None
        assert rep.status == "verified"  # the monolithic verdict
        assert rep.verified
        mono = verify(net)
        assert rep.status == mono.status

    def test_inferred_failure_without_escalation_reports_refuted(self):
        net = load(SELF_SUSTAINING)
        rep = verify_partitioned(net, cuts=CutSpec(fragments=[[0, 1], [2]]),
                                 escalate=False)
        assert rep.status == "interface_refuted"
        assert rep.escalated  # flagged, but no monolithic re-run
        assert rep.monolithic is None

    def test_symbolics_bind_every_fragment(self):
        # start = 0 is what the simulation and every fragment assume, so the
        # inferred guarantee on 0->1 holds and nothing escalates.
        rep = verify_partitioned(load(RIP_SYMBOLIC),
                                 cuts=CutSpec(fragments=[[0], [1]]),
                                 symbolics={"start": 0})
        assert rep.verified and not rep.escalated

    def test_inference_requires_symbolics(self):
        net = load(RIP_SYMBOLIC)
        with pytest.raises(NvPartitionError, match="needs concrete symbolic"):
            verify_partitioned(net, cuts=CutSpec(fragments=[[0], [1]]))

    def test_infer_interfaces_exact_messages(self):
        net = load(RIP_CHAIN)
        msgs = infer_interfaces(net, [(1, 2), (2, 1)])
        from repro.eval.values import VSome
        assert msgs[(1, 2)] == VSome(2)
        assert msgs[(2, 1)] == VSome(3)
