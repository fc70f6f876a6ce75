"""End-to-end configuration translation tests (paper §4)."""

import pytest

from repro.analysis.simulation import run_simulation
from repro.eval.maps import freeze_value
from repro.frontend.configs import ConfigError, parse_config
from repro.frontend.to_nv import translate
from repro.lang import ast as A
from repro.lang.parser import parse_program
from repro.protocols import resolve
from repro.srp.network import functions_from_program
from repro.srp.simulate import simulate
from repro.topology import leaf_nodes
from tests.helpers import load
from tests.lang.test_annotation_digests import fattree_configs


def bgp_chain():
    r1 = parse_config("r1", """
hostname r1
interface Ethernet0
 ip address 172.16.0.0/31
interface Loopback0
 ip address 192.168.1.0/24
ip route 10.0.0.0 255.255.255.0 172.16.0.1
router bgp 1
 redistribute static
 network 192.168.1.0/24
 neighbor 172.16.0.1 remote-as 2
 neighbor 172.16.0.1 route-map RMO out
ip community-list standard comm1 permit 1:2 1:3
ip prefix-list pfx permit 192.168.2.0/24
route-map RMO permit 10
 match community comm1
 match ip address prefix-list pfx
 set local-preference 200
route-map RMO permit 20
 set metric 90
""")
    r2 = parse_config("r2", """
hostname r2
interface Ethernet0
 ip address 172.16.0.1/31
interface Ethernet1
 ip address 172.16.1.0/31
router bgp 2
 neighbor 172.16.0.0 remote-as 1
 neighbor 172.16.1.1 remote-as 3
""")
    r3 = parse_config("r3", """
hostname r3
interface Ethernet0
 ip address 172.16.1.1/31
interface Loopback0
 ip address 192.168.3.0/24
router bgp 3
 network 192.168.3.0/24
 neighbor 172.16.1.0 remote-as 2
""")
    return [r1, r2, r3]


@pytest.fixture(scope="module")
def chain_solution():
    tr = translate(bgp_chain(), assert_prefix="192.168.1.0/24")
    net = tr.load()
    funcs = functions_from_program(net)
    return tr, net, simulate(funcs), funcs


class TestBgpChain:
    def test_topology_inferred(self, chain_solution):
        tr, net, _, _ = chain_solution
        assert net.num_nodes == 3
        assert tr.links == [(0, 1), (1, 2)]

    def test_route_propagates_with_route_map(self, chain_solution):
        tr, net, sol, _ = chain_solution
        pid = tr.prefix_id("192.168.1.0/24")
        r2 = sol.labels[tr.node_of["r2"]].get(pid)
        assert r2.get("sel") == 3  # selected: bgp
        # RMO clause 20 applies (no matching communities): metric 90.
        assert r2.get("bgp").value.get("medB") == 90
        assert r2.get("bgp").value.get("lenB") == 1
        r3 = sol.labels[tr.node_of["r3"]].get(pid)
        assert r3.get("bgp").value.get("lenB") == 2

    def test_connected_beats_bgp(self, chain_solution):
        tr, net, sol, _ = chain_solution
        pid = tr.prefix_id("192.168.1.0/24")
        r1 = sol.labels[tr.node_of["r1"]].get(pid)
        assert r1.get("conn") is True
        assert r1.get("sel") == 1  # connected wins by admin distance

    def test_static_redistributed(self, chain_solution):
        tr, net, sol, _ = chain_solution
        pid = tr.prefix_id("10.0.0.0/24")
        r3 = sol.labels[tr.node_of["r3"]].get(pid)
        assert r3.get("bgp") is not None
        assert r3.get("sel") == 3

    def test_reverse_direction(self, chain_solution):
        tr, net, sol, _ = chain_solution
        pid = tr.prefix_id("192.168.3.0/24")
        r1 = sol.labels[tr.node_of["r1"]].get(pid)
        assert r1.get("bgp").value.get("lenB") == 2

    def test_assertion_holds(self, chain_solution):
        _, _, sol, funcs = chain_solution
        assert sol.check_assertions(funcs.assert_fn) == []

    def test_untracked_prefix_empty(self, chain_solution):
        tr, net, sol, _ = chain_solution
        # A prefix id beyond the universe: entry must be empty everywhere.
        unused = max(tr.prefix_ids.values()) + 1
        for u in range(net.num_nodes):
            assert sol.labels[u].get(unused).get("sel") == 0


def ospf_pair():
    a = parse_config("a", """
interface E0
 ip address 10.0.0.1/30
 ip ospf cost 5
interface Loop0
 ip address 192.168.10.0/24
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 network 192.168.10.0 0.0.0.255 area 0
""")
    b = parse_config("b", """
interface E0
 ip address 10.0.0.2/30
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
""")
    return [a, b]


def no_session_pair():
    """Adjacent routers with no common protocol."""
    a = parse_config("a", """
interface E0
 ip address 10.0.0.1/30
interface Loop0
 ip address 192.168.9.0/24
router bgp 1
""")
    b = parse_config("b", """
interface E0
 ip address 10.0.0.2/30
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
""")
    return [a, b]


def ospf_areas():
    """Two OSPF areas joined by an ABR that redistributes a static route,
    different interface costs, and an eBGP session with a route-map on each
    end (out: tag and MED; in: prefix and community match, community delete,
    and local-prefs below the originator's, so no route comes back
    preferred)."""
    a = parse_config("a", """
interface E0
 ip address 10.1.0.1/30
 ip ospf cost 5
interface E1
 ip address 10.1.1.1/30
 ip ospf cost 7
interface Loop0
 ip address 192.168.20.0/24
router ospf 1
 network 10.1.0.0 0.0.0.3 area 0
 network 10.1.1.0 0.0.0.3 area 0
 network 192.168.20.0 0.0.0.255 area 0
""")
    b = parse_config("b", """
interface E0
 ip address 10.1.0.2/30
interface E1
 ip address 10.2.0.1/30
 ip ospf cost 3
ip route 10.99.0.0 255.255.0.0 10.2.0.2
router ospf 1
 network 10.1.0.0 0.0.0.3 area 0
 network 10.2.0.0 0.0.0.3 area 1
 redistribute static metric 20
""")
    c = parse_config("c", """
interface E0
 ip address 10.1.1.2/30
interface E1
 ip address 10.3.0.1/30
interface Loop0
 ip address 192.168.30.0/24
router ospf 1
 network 10.1.1.0 0.0.0.3 area 0
router bgp 30
 redistribute connected
 neighbor 10.3.0.2 remote-as 40
 neighbor 10.3.0.2 route-map TAGOUT out
route-map TAGOUT permit 10
 set community 30:1 additive
 set metric 40
""")
    d = parse_config("d", """
interface E0
 ip address 10.2.0.2/30
interface E1
 ip address 10.3.0.2/30
router ospf 1
 network 10.2.0.0 0.0.0.3 area 1
router bgp 40
 neighbor 10.3.0.1 remote-as 30
 neighbor 10.3.0.1 route-map IN in
ip community-list standard TAG permit 30:1
ip prefix-list LOOP permit 192.168.30.0/24
route-map IN permit 10
 match community TAG
 match ip address prefix-list LOOP
 set local-preference 60
 set comm-list TAG delete
route-map IN permit 20
 set local-preference 90
""")
    return [a, b, c, d]


class TestOspfPair:
    def test_ospf_costs_and_areas(self):
        tr = translate(ospf_pair())
        net = tr.load()
        funcs = functions_from_program(net)
        sol = simulate(funcs)
        pid = tr.prefix_id("192.168.10.0/24")
        rb = sol.labels[tr.node_of["b"]].get(pid)
        assert rb.get("ospf") is not None
        assert rb.get("sel") == 4
        # a's interface cost 5 is paid when a exports towards b? The cost is
        # attached to the *sender's* interface on the shared subnet.
        assert rb.get("ospf").value.get("costO") == 5

    def test_no_session_no_routes(self):
        # Adjacent routers with no common protocol exchange nothing.
        tr = translate(no_session_pair())
        net = tr.load()
        sol = simulate(functions_from_program(net))
        pid = tr.prefix_id("192.168.9.0/24")
        assert sol.labels[tr.node_of["b"]].get(pid).get("sel") == 0


def med_pair(host_a: str, host_b: str) -> list:
    """Two eBGP routers, each announcing a loopback and setting its own MED
    (11 on ``host_a``, 77 on ``host_b``) in a route-map both call ``OUT``."""
    configs = []
    for i, (host, med) in enumerate(((host_a, 11), (host_b, 77))):
        configs.append(parse_config(host, f"""
hostname {host}
interface Ethernet0
 ip address 172.16.0.{i}/31
interface Loopback0
 ip address 192.168.{i}.0/24
router bgp {i + 1}
 network 192.168.{i}.0/24
 neighbor 172.16.0.{1 - i} remote-as {2 - i}
 neighbor 172.16.0.{1 - i} route-map OUT out
route-map OUT permit 10
 set metric {med}
"""))
    return configs


class TestRouteMapNames:
    """Every session applies its own router's route-map, whatever the
    hostnames and map names look like."""

    def meds(self, host_a: str, host_b: str) -> tuple[int, int]:
        tr = translate(med_pair(host_a, host_b))
        sol = simulate(functions_from_program(tr.load()))
        at_b = sol.labels[tr.node_of[host_b]].get(tr.prefix_id("192.168.0.0/24"))
        at_a = sol.labels[tr.node_of[host_a]].get(tr.prefix_id("192.168.1.0/24"))
        return (at_b.get("bgp").value.get("medB"), at_a.get("bgp").value.get("medB"))

    def test_hostnames_that_differ_only_in_punctuation(self):
        # `r-1` and `r_1` once became the same NV identifier: the second
        # `rm_r_1_OUT` shadowed the first, and r_1 learned r-1's prefix with
        # MED 77 instead of 11.
        assert self.meds("r-1", "r_1") == (11, 77)

    def test_same_map_name_on_two_routers(self):
        assert self.meds("r1", "r2") == (11, 77)

    def test_unknown_route_map_is_a_config_error(self):
        configs = med_pair("r1", "r2")
        configs[0].route_maps.clear()
        with pytest.raises(ConfigError, match="r1: neighbor uses unknown route-map 'OUT'"):
            translate(configs)


class TestPaperScale:
    """FatTree(6) and (8) translations load and run in every mode: the
    dispatch is flat tables, so nothing nests deeper as the network grows."""

    @staticmethod
    def source(k: int) -> str:
        return translate(fattree_configs(k),
                         assert_prefix=f"10.0.{leaf_nodes(k)[0]}.0/24").source

    def test_fattree6_same_labels_in_every_mode(self):
        net = load(self.source(6))
        labels = []
        for backend, lower in (("interp", False), ("interp", True), ("native", False)):
            report = run_simulation(net, backend=backend, lower=lower)
            assert not report.violations
            labels.append([freeze_value(x) for x in report.solution.labels])
        assert labels[0] == labels[1] == labels[2]

    def test_expression_depth_does_not_grow_with_k(self):
        def depth(k: int) -> int:
            program = parse_program(self.source(k), resolve)
            stack = [(d.expr, 1) for d in program.decls if isinstance(d, A.DLet)]
            deepest = 0
            while stack:
                e, d = stack.pop()
                deepest = max(deepest, d)
                stack.extend((c, d + 1) for c in e.children())
            return deepest

        assert depth(2) == depth(4) == depth(6) == depth(8)
