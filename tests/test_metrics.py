"""Tests for the live metrics registry (gauges, histograms, providers,
the snapshot record)."""

import gc
import json

import pytest

from repro import metrics, obs, perf


@pytest.fixture(autouse=True)
def clean_registry():
    for mod in (obs, metrics, perf):
        mod.disable()
        mod.reset()
    yield
    for mod in (obs, metrics, perf):
        mod.disable()
        mod.reset()


class TestHistogram:
    def test_bucketing_powers_of_two(self):
        h = metrics.Histogram()
        for v in (0, 1, 2, 3, 4, 5, 8, 9, 1024):
            h.observe(v)
        # v<=1 -> bucket 0; 2 -> 1; 3,4 -> 2; 5,8 -> 3; 9..16 -> 4; 1024 -> 10
        assert h.counts == {0: 2, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1}
        assert h.count == 9
        assert h.sum == sum((0, 1, 2, 3, 4, 5, 8, 9, 1024))

    def test_float_bucketing(self):
        h = metrics.Histogram()
        h.observe(0.5)       # <= 1
        h.observe(1.5)       # <= 2
        h.observe(6.02)      # <= 8
        assert h.counts == {0: 1, 1: 1, 3: 1}

    def test_buckets_are_cumulative(self):
        h = metrics.Histogram.from_values([1, 2, 2, 7, 100])
        buckets = h.buckets()
        # Upper bounds are powers of two; counts never decrease.
        les = [le for le, _ in buckets]
        assert les == sorted(les)
        counts = [c for _, c in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == 5

    def test_merge(self):
        a = metrics.Histogram.from_values([1, 2, 3])
        b = metrics.Histogram.from_values([3, 100])
        a.merge(b)
        assert a.count == 5
        assert a.sum == 109
        assert a.buckets()[-1][1] == 5

    def test_dict_round_trip(self):
        h = metrics.Histogram.from_values([1, 5, 5, 60000])
        h2 = metrics.Histogram.from_dict(h.to_dict())
        assert h2.count == h.count
        assert h2.sum == h.sum
        assert h2.buckets() == h.buckets()


class TestDisabledNoOps:
    def test_everything_is_a_no_op(self):
        metrics.set_gauge("g", 1)
        metrics.observe("h", 2)
        metrics.observe_many("h", [1, 2])
        metrics.record_histogram("h", metrics.Histogram.from_values([1]))
        unreg = metrics.register_provider("p", lambda: {"x": 1})
        unreg()
        gauges, hists = metrics.sample()
        # Only ambient memory gauges can appear; nothing we recorded did.
        assert "g" not in gauges
        assert not hists

    def test_enable_disable(self):
        assert not metrics.is_enabled()
        metrics.enable()
        assert metrics.is_enabled()
        metrics.set_gauge("g", 7)
        assert metrics.sample()[0]["g"] == 7
        metrics.disable()
        assert not metrics.is_enabled()


class TestProviders:
    def test_provider_sampled_each_time(self):
        metrics.enable()
        state = {"n": 0}

        def provider():
            state["n"] += 1
            return {"live.n": state["n"]}

        metrics.register_provider("p", provider)
        assert metrics.sample()[0]["live.n"] == 1
        assert metrics.sample()[0]["live.n"] == 2

    def test_provider_overrides_static_gauge(self):
        metrics.enable()
        metrics.set_gauge("x", 1)
        metrics.register_provider("p", lambda: {"x": 99})
        assert metrics.sample()[0]["x"] == 99

    def test_provider_returning_none_is_dropped(self):
        metrics.enable()
        calls = []
        metrics.register_provider("p", lambda: calls.append(1))  # returns None
        metrics.sample()
        metrics.sample()
        assert calls == [1]  # dropped after the first poll

    def test_provider_exception_is_swallowed_and_dropped(self):
        metrics.enable()

        def bad():
            raise RuntimeError("dying subsystem")

        metrics.register_provider("p", bad)
        gauges, _ = metrics.sample()  # must not raise
        metrics.sample()

    def test_unregister_is_idempotent(self):
        metrics.enable()
        unreg = metrics.register_provider("p", lambda: {"x": 1})
        unreg()
        unreg()
        assert "x" not in metrics.sample()[0]

    def test_provider_may_return_histogram(self):
        metrics.enable()
        metrics.register_provider(
            "p", lambda: {"lbd": metrics.Histogram.from_values([2, 3, 3])})
        _, hists = metrics.sample()
        assert hists["lbd"].count == 3

    def test_weak_provider_drops_with_object(self):
        metrics.enable()

        class Subject:
            n = 5

        obj = Subject()
        metrics.register_weak_provider("p", obj, lambda o: {"s.n": o.n})
        assert metrics.sample()[0]["s.n"] == 5
        del obj
        gc.collect()
        assert "s.n" not in metrics.sample()[0]


class TestSnapshotAndExporters:
    def test_snapshot_structure(self):
        perf.enable()
        metrics.enable()
        perf.incr("sat.conflicts", 3)
        metrics.set_gauge("bdd.nodes", 17)
        metrics.observe("sat.lbd", 4)
        obs.enable()
        with obs.span("smt.solve"):
            snap = metrics.snapshot()
        assert snap["counters"]["sat.conflicts"] == 3
        assert snap["gauges"]["bdd.nodes"] == 17
        assert snap["histograms"]["sat.lbd"]["count"] == 1
        assert snap["elapsed_seconds"] >= 0

    def test_json_round_trip_and_partial(self, tmp_path):
        from repro.report import load_snapshot

        trace = tmp_path / "t.jsonl"
        obs.enable(jsonl=str(trace))
        metrics.enable()
        metrics.set_gauge("g", 1)
        metrics.write_snapshot(partial=True)
        obs.disable()
        data = json.loads(trace.read_text().splitlines()[-1])
        assert data["type"] == "snapshot" and data["partial"] is True
        assert data["gauges"]["g"] == 1
        assert load_snapshot(trace) == data

    def test_memory_gauges_report_rss(self):
        gauges = metrics.memory_gauges()
        assert gauges.get("proc.rss_bytes", 0) > 0


class TestLiveSubsystemGauges:
    """Structural gauges wired into the real subsystems."""

    def test_sat_solver_registers_lbd_and_clause_db(self):
        import random

        from repro.smt.sat import SatSolver

        perf.enable()
        metrics.enable()

        rng = random.Random(7)
        n = 60
        clauses = []
        for _ in range(240):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        solver = SatSolver(n, clauses)

        seen: list[dict] = []
        # A probe provider piggybacks on the same registry: sampling inside
        # solve() happens from the heartbeat normally; here we sample once
        # mid-run via the solver's own hook after solving.
        solver.solve()
        gauges = solver.live_gauges()
        assert gauges["sat.conflicts"] >= 0
        assert gauges["sat.clause_db"] > 0
        assert isinstance(gauges["sat.lbd"], metrics.Histogram)
        # Provider must have been unregistered after solve().
        assert "sat.trail" not in metrics.sample()[0]
        del seen

    def test_bdd_manager_weak_gauges(self):
        from repro.eval.maps import MapContext

        metrics.enable()
        ctx = MapContext(3, [(0, 1), (1, 2)])
        gauges, _ = metrics.sample()
        assert gauges.get("bdd.nodes", 0) >= 2  # the two terminal leaves
        del ctx
        gc.collect()
        gauges, _ = metrics.sample()
        assert "bdd.nodes" not in gauges

    def test_interner_stats_shape(self):
        from repro.eval.values import ValueInterner

        interner = ValueInterner()
        interner.intern((1, 2))
        interner.intern((1, 2))
        assert (len(interner._table), interner.hits, interner.misses) == (1, 1, 1)
