"""Incremental (shared-encoding, assumption-driven) verification must be
observationally equivalent to one fresh `verify` per query — for
`verify_many` batches and for SMT fault tolerance."""

from repro.analysis.fault import (_failure_scenarios, fault_tolerance_analysis,
                                  fault_tolerance_smt)
from repro.analysis.verify import verify, verify_many
from repro.srp.network import Network
from repro.transform.fault_tolerance import symbolic_failures_program
from repro.eval.values import VSome
from tests.helpers import FIG2_NETWORK, RIP_TRIANGLE, load

RIP_CHAIN_BAD = """
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

SYMBOLIC_NET = """
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


class TestVerifyManyIncremental:
    def _batch(self):
        return [load(src) for src in
                (RIP_TRIANGLE, RIP_CHAIN_BAD, FIG2_NETWORK, SYMBOLIC_NET)]

    def test_matches_fresh_on_mixed_batch(self):
        nets = self._batch()
        fresh = [verify(net) for net in nets]
        inc = verify_many(nets)
        assert [r.status for r in fresh] == [r.status for r in inc]
        assert [r.status for r in inc] == [
            "verified", "counterexample", "counterexample", "verified"]
        # Counterexamples from the shared encoding must still be genuine
        # stable states of *their own* query (models may legally differ
        # from the fresh path's, so check semantics, not equality).
        bad = inc[1]
        assert bad.node_attrs[0] == VSome(0)
        assert bad.node_attrs[3] == VSome(3)
        hijack = inc[2]
        assert isinstance(hijack.counterexample["route"], VSome)

    def test_single_net_batch(self):
        [r] = verify_many([load(RIP_TRIANGLE)])
        assert r.status == "verified"
        assert r.smt.stats.get("inc.assumptions") == 1

    def test_library_and_cli_run_one_function(self, tmp_path, monkeypatch):
        import repro
        from repro.analysis import verify as verify_module
        from repro.cli import main

        assert repro.verify_many is verify_many
        batches = []
        monkeypatch.setattr(verify_module, "verify_many", lambda nets, **kw: (
            batches.append(len(nets)) or verify_many(nets, **kw)))
        (tmp_path / "t.nv").write_text(RIP_TRIANGLE)
        assert main(["verify", *[str(tmp_path / "t.nv")] * 2]) == 0
        assert batches == [2]

    def test_deterministic(self):
        nets = self._batch()
        a = verify_many(nets)
        b = verify_many(nets)
        assert [r.status for r in a] == [r.status for r in b]
        assert [r.node_attrs for r in a] == [r.node_attrs for r in b]


def per_scenario_verify(net, num_link_failures):
    """``(failed_links, status)`` per scenario from one fresh ``verify`` of
    the symbolic-failures network with every ``fail{i}`` bit bound."""
    links = net.links if net.links else tuple(net.edges)
    sym_net = Network.from_program(
        symbolic_failures_program(net, max_failures=num_link_failures))
    return [(tuple(links[i] for i in failed),
             verify(sym_net, symbolics={f"fail{i}": i in failed
                                        for i in range(len(links))}).status)
            for failed in _failure_scenarios(len(links), num_link_failures)]


class TestFaultToleranceSmt:
    def test_incremental_matches_fresh_and_mtbdd(self):
        net = load(RIP_TRIANGLE)
        inc = fault_tolerance_smt(net, num_link_failures=1)
        assert ([(s.failed_links, s.status) for s in inc.scenarios]
                == per_scenario_verify(net, 1))
        # Cross-check the overall verdict against the MTBDD analysis.
        mtbdd = fault_tolerance_analysis(net, num_link_failures=1)
        assert inc.fault_tolerant == mtbdd.fault_tolerant

    def test_violating_scenarios_found(self):
        net = load(RIP_CHAIN_BAD.replace("h <= 2u8", "h <= 3u8"))
        inc = fault_tolerance_smt(net, num_link_failures=1)
        assert ([(s.failed_links, s.status) for s in inc.scenarios]
                == per_scenario_verify(net, 1))
        # Cutting any chain link strands the downstream nodes.
        assert not inc.fault_tolerant
        assert inc.scenarios[0].ok            # no-failure scenario holds
        assert all(not s.ok for s in inc.scenarios[1:])

    def test_scenario_count(self):
        net = load(RIP_TRIANGLE)
        rep = fault_tolerance_smt(net, num_link_failures=2)
        # C(3,0) + C(3,1) + C(3,2) scenarios over the triangle's 3 links.
        assert len(rep.scenarios) == 1 + 3 + 3
