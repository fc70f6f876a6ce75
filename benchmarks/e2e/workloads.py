"""Seed-driven inputs for the four end-to-end workloads.

Each workload is a fixed list of ``python -m repro ...`` invocations (one
*pass*) over files this module writes into a directory the runner gives it.
The program under test only ever sees the generated files.

What the seed draws, and what it must not draw.  The driver compares runs
made with *different* seeds, so a draw may change an input's text and its
answers but not how much work the input is.  Measured on this repo:

* redrawing the WAN topology (``uscarrier_like(seed=...)``) moves the
  fault analysis by +-7 % in BDD nodes; drawing each preferred link's MED
  on its own changes which routes tie, moves nodes by +-2 % and, across an
  arena doubling, peak RSS by 10 %;
* redrawing any constant of a CDCL-bound SMT query moves it between 3.5k
  and 8.4k conflicts;
* redrawing route attributes that keep every comparison between competing
  routes the same (the origin's local-pref / MED, one MED shared by all
  preferred links, the MEDs route-maps set) leaves the work counts alone.

So topologies and the two CDCL-bound queries are pinned, and the seed draws
the policy constants of every other input.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.topology import (all_prefixes_program, fat_program, fattree,
                            leaf_nodes, uscarrier_like, wan_program)

DEFAULT_SEED = 20200615

#: The WAN stand-in's own topology seed stays the paper reproduction's
#: (see the module docstring for why ``--seed`` does not feed it).
TOPOLOGY_SEED = 20200615


@dataclass(frozen=True)
class Invocation:
    """One ``python -m repro <argv>`` process of a pass."""

    id: str                      # key into expected.json
    argv: tuple[str, ...]        # file names are relative to the input dir
    crosscheck: str | None = None  # traced-run reference check (checks.py)


@dataclass(frozen=True)
class Inputs:
    """What one ``generate`` call produced."""

    invocations: tuple[Invocation, ...]
    #: Facts about the drawn inputs that the checker's independent
    #: references need (never read by the program under test).
    facts: dict


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int                    # NV_JOBS for every process of the pass
    why: str
    build: Callable[[Path, random.Random, bool], Inputs]
    #: Workloads of one family read the same files (same draws, same
    #: expected.json entry) and differ only in ``jobs``.
    family: str = ""
    #: The job count the traced run also measures, for parallel.speedup.
    other_jobs: int | None = None


# ----------------------------------------------------------------------
# Seeded policy draws
# ----------------------------------------------------------------------

def _draw_origin(source: str, rng: random.Random, suffix: str = "") -> tuple[str, int, int]:
    """Redraw the announced route's local-pref and MED (same draw for every
    origin of the program).  Returns (source, lp, med)."""
    lp, med = rng.randrange(90, 200), rng.randrange(60, 100)
    old = f"lp = 100{suffix}; med = 80{suffix}"
    if old not in source:
        raise ValueError("generator no longer emits the origin attributes "
                         f"as {old!r}")
    return source.replace(old, f"lp = {lp}{suffix}; med = {med}{suffix}"), lp, med


def wan_policy_program(num_nodes: int, num_links: int,
                       rng: random.Random) -> tuple[str, dict]:
    """The fig 13b WAN program with its policy constants drawn: the MED
    that preferred ingress links set (one value in [5, 60) — below the
    origin's, so the links stay preferred) and the origin's attributes."""
    topo = uscarrier_like(num_nodes, num_links, seed=TOPOLOGY_SEED)
    source = wan_program(topo)
    preferred = rng.randrange(5, 60)
    source, n = re.subn(r"med = 10\b", f"med = {preferred}", source)
    if n == 0:
        raise ValueError("wan_program no longer emits `med = 10` preferences")
    source, _, _ = _draw_origin(source, rng)
    return source, {"nodes": topo.num_nodes, "links": list(topo.links),
                    "dest": 0}


def narrow_sp_wan_program(num_nodes: int, num_links: int,
                          max_length: int | None = None) -> str:
    """Shortest-path eBGP (8-bit model) on a small WAN: the CDCL-bound SMT
    queries.  The assertion is reachability (holds: UNSAT) or, with
    ``max_length``, a path-length bound the network violates (SAT).  Takes
    no draws — see the module docstring."""
    topo = uscarrier_like(num_nodes, num_links, seed=TOPOLOGY_SEED)
    holds = "b.origin = 0n" if max_length is None else f"b.length < {max_length}u8"
    return f"""
include bgpNarrow
{topo.nodes_decl()}
{topo.edges_decl()}

let trans e x = transBgp e x
let merge u x y = mergeBgp u x y

let init (u : node) =
  if u = 0n then
    Some {{length = 0u8; lp = 100u8; med = 80u8; comms = {{}}; origin = 0n}}
  else None

let assert (u : node) (x : attribute) =
  match x with
  | None -> false
  | Some b -> {holds}
"""


def _ip(value: int) -> str:
    return ".".join(str((value >> s) & 255) for s in (24, 16, 8, 0))


def _loopback(node: int) -> str:
    return f"10.{node // 256}.{node % 256}.0/24"


def fattree_configs(k: int, rng: random.Random) -> dict[str, str]:
    """Cisco-style configurations for FatTree(k): one eBGP AS per router,
    ``/31`` point-to-point links, every edge switch announces its loopback
    ``/24``, and every session has an outbound route-map whose first clause
    matches a community list and a prefix list and sets a preferred (low)
    MED, and whose second clause tags the route and sets a higher MED.
    Clauses set only the MED: it breaks ties among equal-length routes, so
    the algebra stays monotone and every draw converges (a clause that
    raises local-pref on a community match makes a BGP "bad gadget" that
    does not).  The seed draws the community each router matches on, the
    prefix it matches, and every MED a clause sets.

    Recorded, not fixed (ISSUE 11): at k=8 the translated program's
    512-arm ``else if`` dispatch overflows the parser's recursion
    (``RecursionError``), and from k=6 up ``simulate --native`` on the
    translation fails with "too many levels of indentation" — hence k=4
    and ``--lower`` on the interpreter in ``sim_cfg``.
    """
    topo = fattree(k)
    leaves = leaf_nodes(k)
    sessions: dict[int, list[tuple[int, int, int]]] = {
        u: [] for u in range(topo.num_nodes)}     # (own ip, peer ip, peer)
    base = (172 << 24) | (16 << 16)
    for i, (u, v) in enumerate(topo.links):
        low = base + 2 * i
        sessions[u].append((low, low + 1, v))
        sessions[v].append((low + 1, low, u))
    configs: dict[str, str] = {}
    for u in range(topo.num_nodes):
        asn = 65000 + u
        lines = [f"hostname r{u:03d}"]
        for j, (own, _, _) in enumerate(sessions[u]):
            lines += [f"interface Ethernet{j}", f" ip address {_ip(own)}/31"]
        if u in leaves:
            lines += ["interface Loopback0", f" ip address {_loopback(u)}"]
        lines.append(f"router bgp {asn}")
        if u in leaves:
            lines.append(f" network {_loopback(u)}")
        for _, peer_ip, peer in sessions[u]:
            lines.append(f" neighbor {_ip(peer_ip)} remote-as {65000 + peer}")
            lines.append(f" neighbor {_ip(peer_ip)} route-map OUT{peer} out")
        tagged_by = rng.randrange(topo.num_nodes)
        lines.append(f"ip community-list standard TAG permit {65000 + tagged_by}:1")
        lines.append(f"ip prefix-list PFX permit {_loopback(rng.choice(leaves))}")
        for _, _, peer in sessions[u]:
            lines += [
                f"route-map OUT{peer} permit 10",
                " match community TAG",
                " match ip address prefix-list PFX",
                f" set metric {rng.randrange(10, 50)}",
                f"route-map OUT{peer} permit 20",
                f" set community {asn}:1 additive",
                f" set metric {rng.randrange(50, 100)}",
            ]
        configs[f"r{u:03d}.cfg"] = "\n".join(lines) + "\n"
    return configs


# ----------------------------------------------------------------------
# The four workloads
# ----------------------------------------------------------------------

def _write(outdir: Path, name: str, text: str) -> str:
    (outdir / name).write_text(text)
    return name


def _build_verify_smt(outdir: Path, rng: random.Random, quick: bool) -> Inputs:
    k, wan = (2, (8, 10)) if quick else (4, (10, 14))
    fat, lp, med = _draw_origin(fat_program(k, narrow=True), rng, "u8")
    invocations = (
        Invocation("wan_unsat", ("verify", _write(
            outdir, "wan_unsat.nv", narrow_sp_wan_program(*wan)))),
        # Some node is 3 or more hops from the destination on both WANs.
        Invocation("wan_sat", ("verify", _write(
            outdir, "wan_sat.nv", narrow_sp_wan_program(*wan, max_length=3))),
            crosscheck="counterexample_is_stable"),
        Invocation("fat_partition", ("verify", "--partition", str(k),
                                     _write(outdir, "fat.nv", fat))),
    )
    return Inputs(invocations, {"origin": {"lp": lp, "med": med}})


def _build_fault(outdir: Path, rng: random.Random, quick: bool) -> Inputs:
    nodes, links = (20, 30) if quick else (30, 48)
    source, topo = wan_policy_program(nodes, links, rng)
    return Inputs(
        (Invocation("fault2", ("fault", "--links", "2",
                               _write(outdir, "wan.nv", source)),
                    crosscheck="naive_single_link"),),
        {"topology": topo, "link_failures": 2})


def _build_sim_cfg(outdir: Path, rng: random.Random, quick: bool) -> Inputs:
    k_sp, k_fat, k_cfg = (4, 4, 2) if quick else (8, 8, 4)
    sp, lp, med = _draw_origin(all_prefixes_program(k_sp, "sp"), rng)
    fat, _, _ = _draw_origin(all_prefixes_program(k_fat, "fat"), rng)
    cfg_dir = outdir / "configs"
    cfg_dir.mkdir()
    configs = fattree_configs(k_cfg, rng)
    for name, text in configs.items():
        (cfg_dir / name).write_text(text)
    invocations = (
        Invocation("sim_sp", ("simulate", _write(outdir, "ap_sp.nv", sp)),
                   crosscheck="batfish_ribs"),
        Invocation("sim_fat_native",
                   ("simulate", "--native", _write(outdir, "ap_fat.nv", fat))),
        Invocation("translate", ("translate", "configs", "-o", "cfg.nv")),
        Invocation("sim_cfg_lower", ("simulate", "--lower", "cfg.nv")),
    )
    return Inputs(invocations, {"origin": {"lp": lp, "med": med},
                                "k_sp": k_sp, "routers": len(configs)})


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "verify_smt", 1,
        "smt does >=90% of the work three ways: SP on WAN-10 UNSAT (1012 "
        "conflicts) and with a violated bound (SAT, model decode), FAT(4) "
        "--partition 4 (cutter, interfaces, small fragments); bdd idle",
        _build_verify_smt),
    Workload(
        "fault_wan", 1,
        "fig 13b regime: fault --links 2 on the WAN-30/48 stand-in, serial; "
        "bdd + eval.maps + analysis.fault construct-heavy (1e5-scale "
        "nodes), smt idle; shows the 8-batch inflation",
        _build_fault, family="fault_wan", other_jobs=2),
    Workload(
        "fault_wan_j2", 2,
        "the fault_wan input with two workers: same work through parallel "
        "(spawn, pickling, FrozenMap transport); pass_s should fall and "
        "cpu_s rise against fault_wan",
        _build_fault, family="fault_wan", other_jobs=1),
    Workload(
        "sim_cfg", 1,
        "only workload where lang, frontend, transform, eval.compile_py "
        "work: simulate all-prefixes k=8 interp and --native, translate 20 "
        "fat-tree router configs, simulate --lower the result; bdd "
        "read-mostly",
        _build_sim_cfg),
)}


def generate(workload: str, seed: int, outdir: Path, quick: bool = False) -> Inputs:
    """Write ``workload``'s input files for ``seed`` into ``outdir``."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{w.family or w.name}:{seed}")
    return w.build(outdir, rng, quick)
