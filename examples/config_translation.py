#!/usr/bin/env python3
"""Translating router configurations to NV (paper §4, figs 1, 9, 10).

Builds a three-router service-provider chain in the Cisco-IOS-style dialect
(modelled on the paper's fig 1 snippet), translates it to an NV program —
route-maps go through the DAG IR with prefix-condition hoisting — and then
runs all three analyses on the *same* generated model.
"""

import repro
from repro.frontend.configs import parse_config
from repro.frontend.to_nv import translate
from repro.srp.network import functions_from_program
from repro.srp.simulate import simulate

R1 = """
hostname edge1
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
"""

R2 = """
hostname core
interface Ethernet0
 ip address 172.16.0.1/31
interface Ethernet1
 ip address 172.16.1.0/31
router bgp 2
 neighbor 172.16.0.0 remote-as 1
 neighbor 172.16.1.1 remote-as 3
"""

R3 = """
hostname edge2
interface Ethernet0
 ip address 172.16.1.1/31
interface Loopback0
 ip address 192.168.3.0/24
router bgp 3
 network 192.168.3.0/24
 neighbor 172.16.1.0 remote-as 2
"""


def main() -> None:
    configs = [parse_config(h, text) for h, text in
               [("edge1", R1), ("core", R2), ("edge2", R3)]]
    translation = translate(configs, assert_prefix="192.168.1.0/24")

    print("=== inferred structure ===")
    print(f"routers: {translation.node_of}")
    print(f"links:   {translation.links}")
    print(f"prefix universe ({len(translation.prefix_ids)} prefixes):")
    for prefix, pid in sorted(translation.prefix_ids.items(), key=lambda kv: kv[1]):
        print(f"  id {pid}: {prefix}")

    print("\n=== generated route-map (DAG IR -> mapIte, fig 10d) ===")
    for line in translation.source.splitlines():
        if line.startswith("let shape"):
            start = translation.source.index(line)
            print(translation.source[start:translation.source.index("\n\n", start)])
            break

    net = translation.load()
    print(f"\nNV model: {net.num_nodes} nodes, attribute type {net.attr_ty}")

    print("\n=== simulate the RIBs ===")
    funcs = functions_from_program(net)
    solution = simulate(funcs)
    pid = translation.prefix_id("192.168.1.0/24")
    for host, node in translation.node_of.items():
        entry = solution.labels[node].get(pid)
        sel = {0: "none", 1: "connected", 2: "static", 3: "bgp", 4: "ospf"}[entry.get("sel")]
        print(f"{host}: 192.168.1.0/24 via {sel}  {entry}")

    print("\n=== verify reachability of 192.168.1.0/24 everywhere (SMT) ===")
    result = repro.verify(net)
    print(result.summary())

    print("\n=== fault tolerance: the chain has no redundancy ===")
    report = repro.check_fault_tolerance(net, link_failures=1, witnesses=True,
                                     drop="map (fun ent -> emptyEntry) __v")
    print(report.summary())
    for node, witness in report.witnesses.items():
        host = [h for h, n in translation.node_of.items() if n == node][0]
        print(f"  {host} loses the prefix when link {witness} fails")


if __name__ == "__main__":
    main()
