"""Heartbeat sampler tests: ticks, rates, the budget, the status line, a
real multi-second SAT solve (slow), and the SIGINT partial-dump path
(subprocess)."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import metrics, obs, perf
from repro.heartbeat import Heartbeat


@contextlib.contextmanager
def running(hb: Heartbeat):
    hb.start()
    try:
        yield hb
    finally:
        hb.stop()


@pytest.fixture(autouse=True)
def clean_registries():
    obs.disable()
    obs.reset()
    metrics.disable()
    metrics.reset()
    perf.disable()
    perf.reset()
    yield
    obs.disable()
    obs.reset()
    metrics.disable()
    metrics.reset()
    perf.disable()
    perf.reset()


def _enable_all():
    perf.enable()
    metrics.enable()


class TestTicks:
    def test_final_tick_on_sub_period_run(self):
        _enable_all()
        samples = []
        with running(Heartbeat(period=60.0, on_tick=samples.append)):
            pass  # far shorter than the period
        assert len(samples) == 1
        assert samples[0]["final"] is True
        assert samples[0]["tick"] == 0

    def test_periodic_ticks_and_rates(self):
        _enable_all()
        state = {"n": 0}
        metrics.register_provider("fake", lambda: {"sim.activations": state["n"]})
        samples = []
        with running(Heartbeat(period=0.02, on_tick=samples.append)):
            for _ in range(50):
                state["n"] += 100
                time.sleep(0.002)
        assert len(samples) >= 2
        # Some tick saw a positive activation rate.
        assert any(s.get("sim.activations_per_sec", 0) > 0 for s in samples)
        # Elapsed is monotone across ticks.
        elapsed = [s["elapsed"] for s in samples]
        assert elapsed == sorted(elapsed)

    def test_negative_counter_delta_clamped(self):
        _enable_all()
        state = {"n": 1000}
        metrics.register_provider("fake", lambda: {"sim.messages": state["n"]})
        hb = Heartbeat(period=60.0)
        hb.start()
        state["n"] = 1  # registry "reset" mid-run
        sample = hb.tick()
        hb.stop()
        assert sample["sim.messages_per_sec"] == 0.0

    def test_progress_events_reach_the_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.enable(jsonl=str(trace))
        _enable_all()
        with running(Heartbeat(period=60.0)):
            pass
        obs.disable()
        recs = [json.loads(line) for line in trace.read_text().splitlines()]
        prog = [r for r in recs
                if r.get("type") == "event" and r.get("name") == "progress"]
        assert len(prog) >= 1
        assert "elapsed" in prog[0]["attrs"]

    @staticmethod
    def _assert_periodic_phase(label, span_name=None):
        """The sampler thread labels its ticks with the innermost span the
        starting thread holds open (spans are the phases), else ``label``."""
        _enable_all()
        obs.enable()
        phases, ticked = [], threading.Event()

        def on_tick(sample):
            if not sample.get("final"):
                phases.append((threading.current_thread().name, sample["phase"]))
                ticked.set()

        with obs.span(span_name) if span_name else contextlib.nullcontext(), \
                running(Heartbeat(period=0.01, label=label, on_tick=on_tick)):
            assert ticked.wait(timeout=10)
        assert phases[0] == ("repro-heartbeat", span_name or label)

    def test_sampler_thread_reads_the_open_span(self):
        self._assert_periodic_phase("verify", "smt.solve")

    def test_no_open_span_falls_back_to_the_label(self):
        self._assert_periodic_phase("simulate")

    def test_histograms_in_sample_are_cumulative_buckets(self):
        _enable_all()
        metrics.register_provider(
            "fake", lambda: {"sat.lbd": metrics.Histogram.from_values([2, 3, 9])})
        hb = Heartbeat(period=60.0)
        hb.start()
        sample = hb.tick()
        hb.stop()
        buckets = sample["sat.lbd"]
        assert buckets[-1][1] == 3
        assert [c for _, c in buckets] == sorted(c for _, c in buckets)


class TestBudgetAndStatus:
    def test_overall_budget_warns_once(self):
        _enable_all()
        out = io.StringIO()
        hb = Heartbeat(period=60.0, label="solve", budget=0.0, stream=out)
        hb.start()
        time.sleep(0.01)
        hb.tick()
        hb.tick()
        hb.stop()
        text = out.getvalue()
        assert text.count("exceeded its 0.0s wall-time budget") == 1

    def test_budget_event_in_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.enable(jsonl=str(trace))
        _enable_all()
        out = io.StringIO()
        hb = Heartbeat(period=60.0, budget=0.0, stream=out)
        hb.start()
        time.sleep(0.01)
        hb.tick()
        hb.stop()
        obs.disable()
        recs = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(r.get("name") == "progress.budget_exceeded" for r in recs)

    def test_status_line_written_to_stream(self):
        _enable_all()
        metrics.register_provider("fake", lambda: {"sim.worklist_depth": 42})
        out = io.StringIO()  # not a tty -> plain lines
        hb = Heartbeat(period=60.0, progress=True, stream=out, label="sim")
        hb.start()
        hb.tick()
        hb.stop()
        text = out.getvalue()
        assert "[sim]" in text
        assert "worklist 42" in text

    def test_straggler_warning_once_per_worker(self):
        """A worker whose straggler-age gauge exceeds the threshold gets
        exactly one warning (per worker), and the status line shows the
        busy/total worker counts."""
        _enable_all()
        metrics.register_provider("fakepool", lambda: {
            "parallel.workers": 2, "parallel.workers_busy": 2,
            "parallel.straggler_age_seconds": 7.5,
            "parallel.straggler_worker": 1})
        out = io.StringIO()
        hb = Heartbeat(period=60.0, progress=True, stream=out,
                       straggler_after=5.0)
        hb.start()
        hb.tick()
        hb.tick()
        hb.stop()
        text = out.getvalue()
        assert text.count("worker 1 has made no progress for") == 1
        assert "workers 2/2" in text

    def test_no_straggler_warning_below_threshold(self):
        _enable_all()
        metrics.register_provider("fakepool", lambda: {
            "parallel.workers": 2, "parallel.workers_busy": 1,
            "parallel.straggler_age_seconds": 1.0,
            "parallel.straggler_worker": 0})
        out = io.StringIO()
        hb = Heartbeat(period=60.0, stream=out, straggler_after=5.0)
        hb.start()
        hb.tick()
        hb.stop()
        assert "no progress" not in out.getvalue()

    def test_straggler_event_in_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        obs.enable(jsonl=str(trace))
        _enable_all()
        metrics.register_provider("fakepool", lambda: {
            "parallel.straggler_age_seconds": 99.0,
            "parallel.straggler_worker": 0})
        out = io.StringIO()
        hb = Heartbeat(period=60.0, stream=out, straggler_after=5.0)
        hb.start()
        hb.tick()
        hb.stop()
        obs.disable()
        recs = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(r.get("name") == "progress.straggler" for r in recs)

    def test_disabled_metrics_still_tick_without_error(self):
        # Heartbeat over a disabled registry degrades to perf-only samples.
        perf.enable()
        samples = []
        with running(Heartbeat(period=60.0, on_tick=samples.append)):
            pass
        assert samples


@pytest.mark.slow
class TestRealSolve:
    def test_heartbeat_samples_a_live_sat_solve(self):
        """Run a genuinely hard random 3-SAT instance (phase-transition
        density) with a fast heartbeat; the ticks must surface live solver
        state: conflict rates, trail/clause-DB gauges, the LBD histogram."""
        import random

        from repro.smt.sat import SatSolver

        _enable_all()
        rng = random.Random(20200615)
        n = 180
        clauses = []
        for _ in range(int(4.26 * n)):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        solver = SatSolver(n, clauses)

        samples = []
        with running(Heartbeat(period=0.02, on_tick=samples.append)):
            result = solver.solve(max_conflicts=15_000)
        assert result is not None or solver.conflicts >= 15_000
        assert len(samples) >= 2
        live = [s for s in samples if "sat.trail" in s]
        assert live, "no tick sampled the live solver gauges"
        assert any(s.get("sat.conflicts_per_sec", 0) > 0 for s in samples)
        assert any(isinstance(s.get("sat.lbd"), list) and s["sat.lbd"]
                   for s in live)
        assert any(s.get("sat.clause_db", 0) > len(clauses) - 1 for s in live)


class TestSigintDump:
    SCRIPT = """
import sys, time, json
from pathlib import Path
from repro import metrics, obs, perf
from repro.heartbeat import Heartbeat

trace, mjson, ready = sys.argv[1:4]
obs.enable(jsonl=trace)
perf.enable()
metrics.enable()
hb = Heartbeat(period=0.05, metrics_json=mjson, install_sigint=True,
               stream=open("/dev/null", "w"))
hb.start()
try:
    with obs.span("analysis.long_solve", nodes=99):
        with obs.span("smt.solve"):
            Path(ready).write_text("ready")
            time.sleep(30)
except KeyboardInterrupt:
    sys.exit(130)
"""

    def test_sigint_dumps_partial_trace_and_metrics(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        mjson = tmp_path / "m.json"
        ready = tmp_path / "ready"
        script = tmp_path / "prog.py"
        script.write_text(self.SCRIPT)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script), str(trace), str(mjson), str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            deadline = time.time() + 20
            while not ready.exists():
                assert time.time() < deadline, "subprocess never became ready"
                assert proc.poll() is None, proc.stderr.read().decode()
                time.sleep(0.02)
            time.sleep(0.15)  # let a heartbeat or two fire
            proc.send_signal(signal.SIGINT)
            rc = proc.wait(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert rc == 130, proc.stderr.read().decode()

        recs = [json.loads(line) for line in trace.read_text().splitlines()]
        partial = [r for r in recs if r.get("partial")]
        assert any(r.get("name") == "analysis.long_solve" for r in partial), \
            "open span missing from the partial dump"
        data = json.loads(mjson.read_text())
        assert data["partial"] is True
        assert data["phase"] == "smt.solve"
