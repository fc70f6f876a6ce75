"""Unit tests for the parallel work ledger (repro.ledger): lifecycle
bookkeeping, the summary math (utilization, queue wait, the LPT bound),
and publishing into the live registries."""

import pytest

from repro import ledger, metrics, obs, perf


@pytest.fixture(autouse=True)
def clean_registries():
    for mod in (obs, metrics, perf):
        mod.disable()
        mod.reset()
    yield
    for mod in (obs, metrics, perf):
        mod.disable()
        mod.reset()


def _synthetic_round():
    """Two workers, four units with hand-picked epochs: worker 0 runs two
    1s units back to back, worker 1 runs a 2s unit then a 1s unit."""
    led = ledger.Ledger("test", workers=2)
    led.t0 = 1000.0
    for u in range(4):
        led.submit(u, label=f"u{u}", task_bytes=100, t=1000.0)
    led.record_exec(0, 0, 1000.5, 1001.5, result_bytes=10)
    led.record_exec(1, 0, 1001.5, 1002.5, result_bytes=10)
    led.record_exec(2, 1, 1000.5, 1002.5, result_bytes=10)
    led.record_exec(3, 1, 1002.5, 1003.5, result_bytes=10)
    led.finish()
    led.t1 = 1004.0  # 4s window
    return led


class TestSummaryMath:
    def test_counts_and_window(self):
        s = _synthetic_round().summary()
        assert s["units"] == 4
        assert s["units_done"] == 4
        assert s["units_error"] == 0
        assert s["units_lost"] == 0
        assert s["window_seconds"] == pytest.approx(4.0)

    def test_busy_idle_utilization(self):
        s = _synthetic_round().summary()
        assert s["busy_seconds"] == pytest.approx(5.0)  # 1+1+2+1
        # capacity = 2 workers * 4s = 8s
        assert s["idle_seconds"] == pytest.approx(3.0)
        assert s["utilization_pct"] == pytest.approx(62.5)

    def test_queue_wait(self):
        s = _synthetic_round().summary()
        # units 0 and 2 waited 0.5s; unit 1 waited 1.5s; unit 3 waited 2.5s
        assert s["queue_wait_max_seconds"] == pytest.approx(2.5)
        assert s["queue_wait_mean_seconds"] == pytest.approx(1.25)

    def test_lpt_bound_and_gap(self):
        s = _synthetic_round().summary()
        # LPT bound = max(longest unit 2s, total work 5s / 2 workers) = 2.5s
        assert s["longest_unit_seconds"] == pytest.approx(2.0)
        assert s["lpt_bound_seconds"] == pytest.approx(2.5)
        # observed window 4s over a 2.5s bound -> +60% gap
        assert s["lpt_gap_pct"] == pytest.approx(60.0)

    def test_serialization_totals(self):
        s = _synthetic_round().summary()
        assert s["task_bytes"] == 400
        assert s["result_bytes"] == 40


class TestLifecycleEdges:
    def test_unexecuted_units_become_lost(self):
        led = ledger.Ledger("test", workers=2)
        led.submit(0)
        led.submit(1)
        led.record_exec(0, 0, 1.0, 2.0)
        led.finish()
        s = led.summary()
        assert s["units_done"] == 1
        assert s["units_lost"] == 1

    def test_mark_error(self):
        led = ledger.Ledger("test", workers=1)
        led.submit(0)
        led.mark_error(0, worker=0)
        led.finish()
        s = led.summary()
        assert s["units_error"] == 1
        assert s["units_done"] == 0

    def test_exec_report_for_unsubmitted_unit_tolerated(self):
        led = ledger.Ledger("test", workers=1)
        led.record_exec(7, 0, 1.0, 2.0)
        assert led.summary()["units_done"] == 1

    def test_empty_round(self):
        led = ledger.Ledger("test", workers=2)
        led.finish()
        s = led.summary()
        assert s["units"] == 0
        assert s["lpt_bound_seconds"] == 0.0
        assert "lpt_gap_pct" not in s


class TestFlush:
    def test_publishes_counter_gauges_histograms_event(self):
        perf.enable()
        metrics.enable()
        obs.enable()
        led = _synthetic_round()
        summary = led.flush()
        assert perf.snapshot()["parallel.ledger_units"] == 4
        gauges, hists = metrics.sample()
        assert gauges[ledger.GAUGE_UTILIZATION] == summary["utilization_pct"]
        assert gauges[ledger.GAUGE_TASK_BYTES] == 400
        assert gauges[ledger.GAUGE_LPT_GAP] == summary["lpt_gap_pct"]
        assert hists[ledger.HIST_QUEUE_WAIT].count == 4
        assert hists[ledger.HIST_UNIT_SECONDS].count == 4

    def test_flush_safe_when_registries_disabled(self):
        led = _synthetic_round()
        summary = led.flush()  # must not raise
        assert summary["units_done"] == 4

