"""Route-map DAG IR tests: construction, prefix hoisting (fig 10), codegen."""

import pytest

from repro.frontend.configs import Prefix, parse_config
from repro.frontend.routemap import (Actions, CondCommunity, CondPrefix,
                                     DagNode, DROP, build_dag, hoist_prefixes,
                                     is_hoisted, prefix_regions, route_map_nv)

CONFIG = parse_config("r", """
ip community-list standard comm1 permit 1:2
ip community-list standard comm2 permit 1:9
ip prefix-list pfx permit 192.168.2.0/24
route-map RM1 permit 10
 match community comm1
 match ip address prefix-list pfx
 set local-preference 200
route-map RM1 permit 20
 match community comm2
 set local-preference 100
""")

PREFIX_IDS = {
    Prefix.parse("192.168.1.0/24"): 0,
    Prefix.parse("192.168.2.0/24"): 1,
    Prefix.parse("10.0.0.0/8"): 2,
}


def fig10_dag():
    return build_dag(CONFIG.route_maps["RM1"], CONFIG, PREFIX_IDS)


class TestDagConstruction:
    def test_structure_matches_fig10b(self):
        dag = fig10_dag()
        # Top node: match comm1 (first clause's first condition).
        assert isinstance(dag, DagNode)
        assert isinstance(dag.cond, CondCommunity)
        # True branch: match ip (prefix); false branch: match comm2.
        assert isinstance(dag.on_true.cond, CondPrefix)
        assert isinstance(dag.on_false.cond, CondCommunity)
        # Unmatched routes are dropped (the ⊥ leaf).
        assert dag.on_false.on_false == DROP

    def test_prefix_list_resolved_to_ids(self):
        dag = fig10_dag()
        assert dag.on_true.cond.prefix_ids == (1,)

    def test_actions(self):
        dag = fig10_dag()
        lp200 = dag.on_true.on_true
        assert isinstance(lp200, Actions) and lp200.set_local_pref == 200
        lp100 = dag.on_false.on_true
        assert lp100.set_local_pref == 100

    def test_deny_clause(self):
        cfg = parse_config("r", """
ip community-list standard bad permit 6:66
route-map D permit 10
 match community bad
route-map D deny 20
""")
        dag = build_dag(cfg.route_maps["D"], cfg, PREFIX_IDS)
        # permit-with-no-set falls through to identity; deny catch-all drops.
        assert isinstance(dag.cond, CondCommunity)
        assert dag.on_true.is_identity()
        assert dag.on_false == DROP


class TestHoisting:
    def test_fig10b_is_not_hoisted(self):
        assert not is_hoisted(fig10_dag())

    def test_hoist_produces_fig10c(self):
        dag = hoist_prefixes(fig10_dag())
        assert is_hoisted(dag)
        # Top node now tests the prefix.
        assert isinstance(dag.cond, CondPrefix)

    def test_hoisting_preserves_semantics(self):
        """Evaluate both DAGs as decision trees over all condition outcomes."""
        original = fig10_dag()
        hoisted = hoist_prefixes(original)

        def evaluate(dag, comm1, comm2, in_pfx):
            while isinstance(dag, DagNode):
                if isinstance(dag.cond, CondPrefix):
                    taken = in_pfx
                else:
                    taken = comm1 if dag.cond.communities == ((1 << 16) | 2,) else comm2
                dag = dag.on_true if taken else dag.on_false
            return dag

        for comm1 in (False, True):
            for comm2 in (False, True):
                for in_pfx in (False, True):
                    assert evaluate(original, comm1, comm2, in_pfx) == \
                        evaluate(hoisted, comm1, comm2, in_pfx)

    def test_regions_are_disjoint_and_total(self):
        hoisted = hoist_prefixes(fig10_dag())
        regions = list(prefix_regions(hoisted))
        assert len(regions) == 2  # in pfx / not in pfx
        signs = {tuple(sign for _, sign in path) for path, _ in regions}
        assert signs == {(True,), (False,)}


class TestCodegen:
    def test_generated_nv_parses_and_runs(self):
        from repro.lang.parser import parse_program
        from repro.lang.typecheck import check_program
        from repro.eval.interp import Interpreter, program_env
        from repro.eval.maps import MapContext

        lines, out = route_map_nv(hoist_prefixes(fig10_dag()), "m", "rm",
                                  lambda value, suffix: f"{value}{suffix}")
        decl = "\n".join(["let rm_RM1 m =", *lines, f"  {out}"])
        src = f"""
type bgpR = {{lenB:int8; lpB:int16; medB:int16; commsB:set[int]}}
type ribEntry = {{conn:bool; stat:option[int8]; ospf:option[int8];
                 bgp:option[bgpR]; sel:int4}}
{decl}
let emptyEnt = {{conn=false; stat=None; ospf=None; bgp=None; sel=0u4}}
let withComm c =
  {{emptyEnt with bgp = Some {{lenB=0u8; lpB=100u16; medB=80u16; commsB={{c}}}}}}
let both = {{emptyEnt with bgp =
  Some {{lenB=0u8; lpB=100u16; medB=80u16; commsB={{{(1 << 16) | 2}, {(1 << 16) | 3}}}}}}}
let base = (createDict emptyEnt)[1u16 := both][2u16 := both]
let out = rm_RM1 base
"""
        program = parse_program(src)
        check_program(program)
        interp = Interpreter(MapContext(2, ((0, 1), (1, 0))))
        env = program_env(program, interp)
        out = env["out"]
        # Prefix 1 is in pfx and carries comm1 (1:2): clause 10 -> lp 200.
        hit = out.get(1)
        assert hit.get("bgp").value.get("lpB") == 200
        # Prefix 2 is outside pfx and lacks comm2 (1:9): no clause matches,
        # so the route is implicitly dropped (the ⊥ leaf of fig 10b).
        miss = out.get(2)
        assert miss.get("bgp") is None
        # Untouched keys (no bgp route) stay empty.
        assert out.get(7).get("bgp") is None
