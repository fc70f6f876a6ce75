"""Unit tests for the :mod:`repro.perf` counter registry.

The design rules documented in the module — no-op when disabled, snapshot
isolation, re-entrant enable nesting — are what the hot paths rely on, so
each is pinned here.
"""

from __future__ import annotations

import pytest

from repro import perf


@pytest.fixture(autouse=True)
def clean_registry():
    perf.disable()
    perf.reset()
    yield
    perf.disable()
    perf.reset()


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert not perf.is_enabled()

    def test_incr_noop_when_disabled(self):
        perf.incr("x.count", 5)
        assert perf.snapshot() == {}

    def test_merge_noop_when_disabled(self):
        perf.merge({"hits": 3, "seconds": 0.5}, prefix="x.")
        assert perf.snapshot() == {}

    def test_enabled_counters_accumulate(self):
        perf.enable()
        perf.incr("x.count")
        perf.incr("x.count", 2)
        assert perf.snapshot()["x.count"] == 3

    def test_merge_accumulates_with_prefix(self):
        perf.enable()
        perf.merge({"hits": 3}, prefix="sim.")
        perf.merge({"hits": 4}, prefix="sim.")
        assert perf.snapshot()["sim.hits"] == 7

    def test_merge_floats_become_timers(self):
        perf.enable()
        perf.merge({"seconds": 0.25}, prefix="x.")
        perf.merge({"seconds": 0.5}, prefix="x.")
        assert perf.snapshot()["x.seconds"] == pytest.approx(0.75)



class TestNesting:
    def test_enabled_restores_previous_state(self):
        assert not perf.is_enabled()
        with perf.enabled():
            assert perf.is_enabled()
            with perf.enabled(False):
                assert not perf.is_enabled()
            assert perf.is_enabled()
        assert not perf.is_enabled()

    def test_enabled_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with perf.enabled():
                raise RuntimeError("boom")
        assert not perf.is_enabled()


class TestSnapshotIsolation:
    def test_snapshot_is_a_copy(self):
        perf.enable()
        perf.incr("x.count")
        snap = perf.snapshot()
        perf.incr("x.count", 10)
        assert snap["x.count"] == 1

    def test_mutating_snapshot_does_not_affect_registry(self):
        perf.enable()
        perf.incr("x.count")
        snap = perf.snapshot()
        snap["x.count"] = 999
        assert perf.snapshot()["x.count"] == 1

    def test_reset_clears_but_keeps_enabled_state(self):
        perf.enable()
        perf.incr("x.count")
        perf.reset()
        assert perf.snapshot() == {}
        assert perf.is_enabled()


class TestReporting:
    def test_hit_rate_from_pairs(self):
        stats = {"c_hits": 3, "c_misses": 1}
        assert perf.hit_rate(stats, "c") == pytest.approx(0.75)

    def test_hit_rate_absent(self):
        assert perf.hit_rate({}, "c") is None
        assert perf.hit_rate({"c_hits": 0, "c_misses": 0}, "c") is None

    def test_report_includes_derived_rates(self):
        perf.enable()
        perf.merge({"cache_hits": 9, "cache_misses": 1}, prefix="sim.")
        text = perf.report()
        assert "sim.cache_hits" in text
        assert "90.0%" in text

    def test_report_empty(self):
        assert "no counters" in perf.report()


class TestComponentFlushes:
    def test_simulator_flushes_when_enabled(self):
        from repro.srp.network import NetworkFunctions
        from repro.srp.simulate import simulate

        funcs = NetworkFunctions(
            2, ((0, 1), (1, 0)),
            init=lambda u: 0 if u == 0 else None,
            trans=lambda e, x: None if x is None else x + 1,
            merge=lambda u, x, y: y if x is None else (x if y is None else min(x, y)))
        perf.enable()
        simulate(funcs)
        snap = perf.snapshot()
        assert snap["sim.activations"] > 0
        assert "sim.merge_cache_misses" in snap

    def test_simulator_silent_when_disabled(self):
        from repro.srp.network import NetworkFunctions
        from repro.srp.simulate import simulate

        funcs = NetworkFunctions(
            1, (), init=lambda u: 0,
            trans=lambda e, x: x, merge=lambda u, x, y: x)
        simulate(funcs)
        assert perf.snapshot() == {}


class TestThreadSafety:
    """The heartbeat samples perf.snapshot() from its own thread while hot
    paths merge() from the main thread — the registry lock must make both
    linearizable (no lost updates, no dict-changed-size errors)."""

    def test_concurrent_merge_and_snapshot(self):
        import threading

        perf.enable()
        stop = threading.Event()
        errors: list[BaseException] = []
        WRITERS, ROUNDS, STEP = 4, 200, 7

        def writer(tag: int) -> None:
            try:
                for i in range(ROUNDS):
                    perf.incr(f"w{tag}.count", STEP)
                    perf.merge({"shared.total": STEP, f"w{tag}.keys": 1},
                               prefix="mt.")
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def reader() -> None:
            try:
                while not stop.is_set():
                    snap = perf.snapshot()
                    # A snapshot must be internally consistent enough to
                    # iterate and serialize while writers are running.
                    assert all(isinstance(v, (int, float))
                               for v in snap.values())
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer, args=(t,))
                   for t in range(WRITERS)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=30)
        stop.set()
        for t in readers:
            t.join(timeout=30)
        assert not errors
        snap = perf.snapshot()
        # Exact totals: nothing was lost to racing read-modify-writes.
        assert snap["mt.shared.total"] == WRITERS * ROUNDS * STEP
        for t in range(WRITERS):
            assert snap[f"w{t}.count"] == ROUNDS * STEP
            assert snap[f"mt.w{t}.keys"] == ROUNDS

    def test_concurrent_timers(self):
        import threading

        perf.enable()
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                for _ in range(50):
                    perf.merge({"mt.span_seconds": 0.5})
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert perf.snapshot()["mt.span_seconds"] == 4 * 50 * 0.5
