"""Kernel telemetry (NV_TELEMETRY): correctness and the zero-cost contract.

The disabled-cost contract is checked *structurally*: the hot-path
bytecode of the BDD kernel must not reference the telemetry module or its
flag at all (table sizes are read on demand at flush time), so the
enabled/disabled wall-time question cannot even arise for per-node work.
"""

import random

from repro import metrics, perf, telemetry
from repro.bdd.manager import BddManager


def _seeded_workload(mgr, seed=7, ops=600, num_vars=8):
    """A deterministic mixed op program that populates every table."""
    rng = random.Random(seed)
    bools = [mgr.var(i) for i in range(num_vars)]
    maps = [mgr.leaf(i) for i in range(4)]
    for _ in range(ops):
        pick = rng.randrange(6)
        if pick == 0:
            bools.append(mgr.bnot(rng.choice(bools)))
        elif pick == 1:
            bools.append(mgr.band(rng.choice(bools), rng.choice(bools)))
        elif pick == 2:
            bools.append(mgr.bxor(rng.choice(bools), rng.choice(bools)))
        elif pick == 3:
            bools.append(mgr.bite(rng.choice(bools), rng.choice(bools),
                                  rng.choice(bools)))
        elif pick == 4:
            maps.append(mgr.apply1(lambda v: (v, v), rng.choice(maps)))
        else:
            maps.append(mgr.apply2(lambda a, b: (a, b), rng.choice(maps),
                                   rng.choice(maps)))
        if len(bools) > 64:
            del bools[: len(bools) - 64]
        if len(maps) > 32:
            del maps[: len(maps) - 32]


class TestObjectEngineTelemetry:
    def test_dict_size_profile(self):
        mgr = BddManager()
        _seeded_workload(mgr, ops=200)
        counters, hists = mgr.telemetry()
        assert counters["table_unique_entries"] == len(mgr._unique)
        assert counters["table_op_and_entries"] == len(mgr._and_cache)
        assert hists["table_entries"].count == sum(
            1 for v in counters.values() if v)


class TestDisabledCost:
    HOT_METHODS = ("mk", "bnot", "band", "bxor", "bite",
                   "apply1", "apply2", "map_ite")

    def test_hot_paths_structurally_untouched(self):
        """No hot-path method references the telemetry module or the flag:
        disabled (and enabled) per-node cost is provably zero because the
        instrumented names never appear in the bytecode."""
        forbidden = {"telemetry", "is_enabled"}
        for name in self.HOT_METHODS:
            names = set(getattr(BddManager, name).__code__.co_names)
            assert not (names & forbidden), (name, names & forbidden)

    def test_compiled_ops_pay_one_check_when_disabled(self):
        """The evaluator's per-call-site attribution is gated on one boolean
        check; with telemetry off, no site stats accumulate."""
        from repro.eval import compile_py

        compile_py.take_site_stats()  # drain
        from repro.eval.maps import MapContext, NVMap
        from repro.lang import types as T

        ctx = MapContext(3, [(0, 1), (1, 2)])
        m = NVMap.create(ctx, T.TInt(4), 0)
        with telemetry.enabled(False):
            compile_py._map_op({}, lambda v: v + 1, m)
        assert compile_py.take_site_stats() == {}
        with telemetry.enabled(True):
            compile_py._map_op({}, lambda v: v + 1, m)
            compile_py._combine_op({}, lambda a: lambda b: (a, b), m, m)
        stats = compile_py.take_site_stats()
        assert len(stats) == 2
        for calls, hits, misses in stats.values():
            assert calls == 1
            assert hits + misses >= 1
        assert compile_py.take_site_stats() == {}  # drained


class TestFlush:
    def test_flush_manager_into_perf_and_metrics(self):
        mgr = BddManager()
        _seeded_workload(mgr, ops=300)
        perf.reset()
        metrics.reset()
        with perf.enabled(), metrics.enabled(), telemetry.enabled(True):
            telemetry.flush_manager(mgr)
            snap = perf.snapshot()
            assert snap["bdd.table_unique_entries"] == len(mgr._unique)
            _gauges, hists = metrics.sample()
            assert "bdd.table_entries" in hists

    def test_flush_noop_when_disabled(self):
        mgr = BddManager()
        _seeded_workload(mgr, ops=50)
        perf.reset()
        with perf.enabled(), telemetry.enabled(False):
            telemetry.flush(mgr)
            assert "bdd.table_unique_entries" not in perf.snapshot()
