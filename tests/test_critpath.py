"""Critical-path analyzer tests (repro.critpath) over hand-built span
trees: exclusive-time accounting under concurrent lanes, the heaviest
dependency chain, parallel efficiency, and the LPT-bound gap."""

import pytest

from repro import critpath
from repro.obs import Span


def Sp(name, t0, dur, attrs=None, children=()):
    """A hand-built span-tree node."""
    return Span(name=name, attrs=attrs or {}, t0=t0, dur=dur,
                children=list(children))


class TestSerialChain:
    def test_sequential_children_all_on_chain(self):
        root = Sp("run", 0.0, 3.0, children=[
            Sp("a", 0.0, 1.0), Sp("b", 1.0, 1.0), Sp("c", 2.0, 1.0)])
        rep = critpath.analyze([root])
        assert rep.lanes == 1
        assert rep.wall_seconds == pytest.approx(3.0)
        assert rep.total_work_seconds == pytest.approx(3.0)
        assert rep.critical_seconds == pytest.approx(3.0)
        assert rep.cp_ratio_pct == pytest.approx(100.0)
        assert [e.name for e in rep.chain] == ["run", "a", "b", "c"]

    def test_single_span(self):
        rep = critpath.analyze([Sp("only", 0.0, 2.0)])
        assert rep.critical_seconds == pytest.approx(2.0)
        assert rep.span_count == 1
        assert [e.name for e in rep.chain] == ["only"]

    def test_empty_forest(self):
        assert critpath.analyze([]) is None


class TestConcurrentLanes:
    def test_overlapping_children_counted_once_in_exclusive(self):
        # Two 2s lanes fully overlapping under a 2s parent: the parent has
        # zero exclusive time and total work is parent-excl + 2 + 2 = 4s.
        root = Sp("dispatch", 0.0, 2.0, children=[
            Sp("u0", 0.0, 2.0, {"proc": 0}),
            Sp("u1", 0.0, 2.0, {"proc": 1})])
        rep = critpath.analyze([root])
        assert rep.lanes == 2
        assert rep.total_work_seconds == pytest.approx(4.0)
        # Only one concurrent child can sit on a chain.
        assert rep.critical_seconds == pytest.approx(2.0)
        assert len([e for e in rep.chain if e.name.startswith("u")]) == 1
        assert rep.speedup == pytest.approx(2.0)
        assert rep.efficiency_pct == pytest.approx(100.0)

    def test_sequenced_lanes_chain_through_both(self):
        # u1 starts after u0 ends -> both belong to the dependency chain.
        root = Sp("dispatch", 0.0, 3.0, children=[
            Sp("u0", 0.0, 1.0, {"proc": 0}),
            Sp("u1", 1.0, 2.0, {"proc": 1})])
        rep = critpath.analyze([root])
        assert rep.critical_seconds == pytest.approx(3.0)
        assert [e.name for e in rep.chain] == ["dispatch", "u0", "u1"]

    def test_chain_picks_heavier_branch(self):
        root = Sp("dispatch", 0.0, 4.0, children=[
            Sp("short", 0.0, 1.0, {"proc": 0}),
            Sp("long", 0.0, 4.0, {"proc": 1})])
        rep = critpath.analyze([root])
        names = [e.name for e in rep.chain]
        assert "long" in names and "short" not in names

    def test_chain_recurses_into_children(self):
        inner = Sp("inner", 0.5, 1.0)
        root = Sp("run", 0.0, 2.0, children=[
            Sp("outer", 0.0, 2.0, children=[inner])])
        rep = critpath.analyze([root])
        assert [e.name for e in rep.chain] == ["run", "outer", "inner"]
        assert [e.depth for e in rep.chain] == [0, 1, 2]


class TestLptBound:
    def test_gap_against_sharded_wall(self):
        units = [Sp("sim.unit", t0, 1.0, {"unit": i, "proc": i % 2})
                 for i, t0 in enumerate((0.0, 0.0, 1.5, 1.5))]
        sharded = Sp("sim.sharded", 0.0, 3.0, {"jobs": 2}, children=units)
        rep = critpath.analyze([Sp("run", 0.0, 3.0, children=[sharded])])
        assert rep.lanes == 2
        assert rep.unit_count == 4
        # bound = max(longest 1s, 4s work / 2 lanes) = 2s; observed 3s.
        assert rep.lpt_bound_seconds == pytest.approx(2.0)
        assert rep.lpt_gap_pct == pytest.approx(50.0)

    def test_no_units_no_bound(self):
        rep = critpath.analyze([Sp("run", 0.0, 1.0)])
        assert rep.lpt_bound_seconds is None
        assert rep.lpt_gap_pct is None


class TestRenderText:
    def test_text_summary_mentions_key_lines(self):
        root = Sp("dispatch", 0.0, 2.0, children=[
            Sp("sim.unit", 0.0, 2.0, {"unit": 0, "proc": 1})])
        rep = critpath.analyze([root])
        text = critpath.render_text(rep)
        assert "critical path:" in text
        assert "total work:" in text
        assert "LPT bound:" in text
        assert "[p1]" in text and "unit=0" in text

    def test_long_chain_elided(self):
        kids = [Sp(f"s{i}", float(i), 1.0) for i in range(30)]
        root = Sp("run", 0.0, 30.0, children=kids)
        rep = critpath.analyze([root])
        text = critpath.render_text(rep, max_chain=10)
        assert "… 21 more" in text
