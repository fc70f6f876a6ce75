"""Golden annotations: the checker's `.ty` on every expression, pinned.

``annotation_digests.json`` was recorded with the checker of the commit
before PR 15 (the quadratic one); the tests below require today's checker to
reproduce it exactly, before and after ``lower_program``, so a faster checker
cannot quietly annotate differently.  The ``lowered`` digests were
re-recorded when ``lower_program`` became inline + partial evaluation only;
the ``checked`` / ``attr`` ones are the original recording.  Regenerate
(only when an annotation change is intended) with
``PYTHONPATH=src python tests/lang/test_annotation_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.frontend.configs import parse_config
from repro.frontend.to_nv import translate
from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.parser import parse_program
from repro.lang.typecheck import TypeChecker, check_network, check_program
from repro.protocols import NV_MODULES, resolve
from repro.topology import (all_prefixes_program, fat_program, fattree,
                            leaf_nodes, sp_program, uscarrier_like,
                            wan_program)
from repro.transform.pipeline import lower_program

GOLDEN = Path(__file__).with_name("annotation_digests.json")


def fattree_configs(k: int) -> list:
    """Cisco-style eBGP configs for FatTree(k): /31 links, one AS per router,
    leaves announce a loopback, every session has a two-clause route-map."""
    topo = fattree(k)
    leaves = leaf_nodes(k)

    def ip(n: int) -> str:
        return ".".join(str((n >> s) & 255) for s in (24, 16, 8, 0))

    sessions: dict[int, list[tuple[int, int, int]]] = {
        u: [] for u in range(topo.num_nodes)}
    for i, (u, v) in enumerate(topo.links):
        low = (172 << 24) | (16 << 16) | (2 * i)
        sessions[u].append((low, low + 1, v))
        sessions[v].append((low + 1, low, u))
    configs = []
    for u in range(topo.num_nodes):
        loopback = f"10.0.{u}.0/24"
        lines = [f"hostname r{u}"]
        for j, (own, _, _) in enumerate(sessions[u]):
            lines += [f"interface Ethernet{j}", f" ip address {ip(own)}/31"]
        if u in leaves:
            lines += ["interface Loopback0", f" ip address {loopback}"]
        lines.append(f"router bgp {65000 + u}")
        if u in leaves:
            lines.append(f" network {loopback}")
        for _, peer_ip, peer in sessions[u]:
            lines += [f" neighbor {ip(peer_ip)} remote-as {65000 + peer}",
                      f" neighbor {ip(peer_ip)} route-map OUT{peer} out"]
        lines += [f"ip community-list standard TAG permit {65000 + leaves[0]}:1",
                  f"ip prefix-list PFX permit 10.0.{leaves[-1]}.0/24"]
        for _, _, peer in sessions[u]:
            lines += [f"route-map OUT{peer} permit 10", " match community TAG",
                      " match ip address prefix-list PFX", f" set metric {10 + peer}",
                      f"route-map OUT{peer} permit 20",
                      f" set community {65000 + u}:1 additive", " set metric 70"]
        configs.append(parse_config(f"r{u}", "\n".join(lines) + "\n"))
    return configs


def corpus() -> dict[str, tuple[str, bool]]:
    """name -> (NV source, is a full fig-8 network)."""
    out = {
        "sp_program(4)": (sp_program(4), True),
        "fat_program(4)": (fat_program(4), True),
        "all_prefixes_program(4,sp)": (all_prefixes_program(4, "sp"), True),
        "all_prefixes_program(4,fat)": (all_prefixes_program(4, "fat"), True),
        "wan_program(20,30)": (wan_program(uscarrier_like(20, 30)), True),
        "translate(fattree_configs(2))":
            (translate(fattree_configs(2),
                       assert_prefix=f"10.0.{leaf_nodes(2)[0]}.0/24").source, True),
    }
    for name, source in sorted(NV_MODULES.items()):
        out[f"protocols/{name}"] = (source, False)
    return out


def expressions(program: A.Program):
    stack = [d.expr for d in reversed(program.decls)
             if isinstance(d, (A.DLet, A.DRequire))]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(list(e.children())))


def digest(program: A.Program) -> dict:
    h = hashlib.sha256()
    n = 0
    for e in expressions(program):
        n += 1
        h.update(f"{type(e).__name__}:{e.ty}\n".encode())
    return {"nodes": n, "sha256": h.hexdigest()}


def annotate(source: str, network: bool) -> tuple[dict, list[A.Program]]:
    """(digests, annotated programs) of one corpus entry: as checked and,
    for a network (inlining drops a bare module's helpers), as lowered."""
    program = parse_program(source, resolve)
    if not network:
        check_program(program)
        return {"checked": digest(program)}, [program]
    out = {"attr": str(check_network(program)), "checked": digest(program)}
    lowered = lower_program(program)
    out["lowered"] = digest(lowered)
    return out, [program, lowered]


CORPUS = corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_annotations_match_the_quadratic_checker(name):
    golden = json.loads(GOLDEN.read_text())
    got, programs = annotate(*CORPUS[name])
    assert got == golden[name]
    for program in programs:
        for e in expressions(program):
            # The printed form is the oracle; the cached flag must agree.
            assert e.ty is not None and "'" not in str(e.ty) and e.ty.ground, (
                f"{type(e).__name__} annotated {e.ty}")


def test_zonk_is_idempotent_and_shares_unchanged_types():
    tc = TypeChecker()
    a, b = tc.fresh(), tc.fresh()
    bgp = parse_program("include bgp", resolve).type_decls()["bgp"]
    ty = T.TArrow(T.TTuple((a, bgp)), T.TOption(b))
    tc.unify(a, T.TInt(8))
    once = tc.zonk(ty)
    assert once == T.TArrow(T.TTuple((T.TInt(8), bgp)), T.TOption(b))
    assert tc.zonk(once) is once            # nothing left to substitute
    assert once.arg.elts[1] is bgp          # ground child shared, not copied
    assert tc.zonk(bgp) is bgp
    tc.unify(b, T.TBool())
    twice = tc.zonk(once)
    assert twice.ground and tc.zonk(twice) is twice


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: annotate(*entry)[0] for name, entry in sorted(CORPUS.items())},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
