"""Tests for the :mod:`repro.parallel` process-pool subsystem: job
resolution, chunking, serial/parallel equivalence of the pool itself, error
propagation, worker counter aggregation, and the cross-process tracing
layer (dispatch linking, per-chunk telemetry on the error path, a killed
worker, clock-skew correction, the work ledger)."""

import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import metrics, obs, parallel, perf

SQUARE = "tests.parallel_factories:make_square"
RECORD = "tests.parallel_factories:make_record"
FAILING = "tests.parallel_factories:make_failing"
SLEEPY = "tests.parallel_factories:make_sleepy"
TRACER = "tests.parallel_factories:make_tracer"
KILLER = "tests.parallel_factories:make_killer"
UNPICKLABLE = "tests.parallel_factories:make_unpicklable"
PID_LOGGER = "tests.parallel_factories:make_pid_logger"


@pytest.fixture
def clean_obs():
    """Tests that enable tracing/metrics start and end clean."""
    for mod in (obs, metrics, perf):
        mod.disable()
        mod.reset()
    yield
    for mod in (obs, metrics, perf):
        mod.disable()
        mod.reset()


def _sink_records(sink):
    return [json.loads(line) for line in sink.getvalue().strip().splitlines()
            if line]


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("NV_JOBS", "7")
        assert parallel.resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("NV_JOBS", "5")
        assert parallel.resolve_jobs(None) == 5

    def test_cpu_capped_default(self, monkeypatch):
        monkeypatch.delenv("NV_JOBS", raising=False)
        assert 1 <= parallel.resolve_jobs(None) <= parallel.MAX_DEFAULT_JOBS

    def test_below_one_is_an_error(self, monkeypatch):
        monkeypatch.delenv("NV_JOBS", raising=False)
        for jobs in (0, -3):
            with pytest.raises(parallel.ParallelError, match="at least 1"):
                parallel.resolve_jobs(jobs)


class TestChunking:
    def test_covers_all_units_in_order(self):
        for total in (0, 1, 5, 17, 100):
            for jobs in (1, 2, 4):
                chunks = parallel.chunk_units(total, jobs)
                flat = [i for chunk in chunks for i in chunk]
                assert flat == list(range(total))


class TestRunSharded:
    def test_serial_path(self):
        out = parallel.run_sharded(SQUARE, {}, range(6), jobs=1)
        assert out == [i * i for i in range(6)]

    def test_parallel_matches_serial(self):
        serial = parallel.run_sharded(SQUARE, {"offset": 2}, range(13), jobs=1)
        fanned = parallel.run_sharded(SQUARE, {"offset": 2}, range(13), jobs=2)
        assert fanned == serial

    def test_chunks_of_object_results(self):
        """20 units over 2 workers are chunks of 3: the results of one
        chunk travel in one pickle stream and share its memo."""
        out = parallel.run_sharded(RECORD, {}, range(20), jobs=2)
        assert out == [{"unit": i, "square": i * i} for i in range(20)]

    def test_no_more_workers_than_units(self, tmp_path):
        """Two units at ``jobs=4`` start two workers (four before: two of
        them built their state and stopped without a unit)."""
        log = tmp_path / "pids"
        out = parallel.run_sharded(PID_LOGGER, {"path": str(log)}, range(2),
                                   jobs=4)
        assert out == [0, 1]
        pids = log.read_text().split()
        assert len(pids) == len(set(pids)) == 2

    def test_generator_units(self):
        out = parallel.run_sharded(SQUARE, {}, (i for i in range(5)), jobs=2)
        assert out == [i * i for i in range(5)]

    def test_worker_error_propagates(self):
        with pytest.raises(parallel.ParallelError) as exc:
            parallel.run_sharded(FAILING, {"bad_unit": 3}, range(6), jobs=2)
        assert "\n" not in str(exc.value)
        assert str(exc.value).endswith("ValueError: unit 3 exploded")
        assert "Traceback" in exc.value.remote_traceback

    def test_serial_error_propagates(self):
        with pytest.raises(ValueError):
            parallel.run_sharded(FAILING, {"bad_unit": 1}, range(3), jobs=1)

    def test_worker_counters_aggregate(self):
        perf.reset()
        perf.enable()
        try:
            parallel.run_sharded(SQUARE, {}, range(8), jobs=2)
            snap = perf.snapshot()
        finally:
            perf.disable()
            perf.reset()
        # Every unit increments testpool.units inside a worker; the pool
        # flushes worker counters back to the parent on shutdown.
        assert snap.get("testpool.units") == 8
        assert snap.get("parallel.sharded_runs") == 1
        assert snap.get("parallel.units") == 8


class TestUnpicklableResult:
    def test_is_one_error_naming_the_unit(self):
        """A result that will not pickle is its unit's error.  It used to
        hang the parent: the queue's feeder thread dropped the message and
        the worker stayed alive, so the liveness poll never fired.  Run in
        a child so a hang is a timeout, not a stuck suite."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]))
        code = ("from repro import parallel\n"
                "try:\n"
                f"    parallel.run_sharded({UNPICKLABLE!r}, None, range(4),"
                " jobs=2)\n"
                "except parallel.ParallelError as exc:\n"
                "    print(exc)\n")
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its workers
            proc.wait()
            raise
        assert proc.returncode == 0, err
        message = out.strip()
        assert re.fullmatch(r"worker [01] failed on unit [0-3]: \w+: .+",
                            message), message
        assert "pickle" in message.lower()


class TestDispatchLinking:
    def test_worker_spans_parent_to_dispatch(self, clean_obs):
        """The tentpole property: worker unit spans land in the parent's
        trace as *children of the dispatch span*, each stamped with its
        worker lane (``proc``) and the dispatch id it carried out."""
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        parallel.run_sharded(TRACER, {}, range(8), jobs=2,
                             label="testpool")
        obs.disable()
        recs = _sink_records(sink)
        (dispatch,) = [r for r in recs if r.get("name") == "testpool.sharded"
                       and not r.get("partial")]
        units = [r for r in recs if r.get("name") == "testpool.unit"
                 and not r.get("partial")]
        assert len(units) == 8
        assert {u["parent"] for u in units} == {dispatch["id"]}
        assert {u["attrs"]["proc"] for u in units} <= {0, 1}
        assert all(u["attrs"]["dispatch"] == dispatch["id"] for u in units)
        # Nested worker spans hang off their unit span, not the dispatch.
        work = [r for r in recs if r.get("name") == "testpool.work"
                and not r.get("partial")]
        assert len(work) == 8
        assert {w["parent"] for w in work} <= {u["id"] for u in units}

    def test_remapped_ids_unique(self, clean_obs):
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        parallel.run_sharded(TRACER, {}, range(6), jobs=2,
                             label="testpool")
        obs.disable()
        spans = [r for r in _sink_records(sink)
                 if r.get("type") == "span" and not r.get("partial")]
        ids = [r["id"] for r in spans]
        assert len(ids) == len(set(ids))
        id_set = set(ids)
        assert all(r["parent"] == 0 or r["parent"] in id_set for r in spans)

    def test_unit_labels_stamped(self, clean_obs):
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        parallel.run_sharded(SQUARE, {}, range(3), jobs=2,
                             label="testpool",
                             unit_labels=["a.nv", "b.nv", "c.nv"])
        obs.disable()
        units = [r for r in _sink_records(sink)
                 if r.get("name") == "testpool.unit" and not r.get("partial")]
        assert sorted(u["attrs"]["unit_label"] for u in units) == \
            ["a.nv", "b.nv", "c.nv"]


class TestStreamingDeltas:
    def test_error_path_flushes_before_raise(self, clean_obs):
        """A worker that raises sends its counters with the error, so the
        work it did is not lost."""
        perf.enable()
        with pytest.raises(parallel.ParallelError):
            parallel.run_sharded(FAILING, {"bad_unit": 0, "delay": 2.0},
                                 range(6), jobs=2)
        snap = perf.snapshot()
        # The erroring worker counted unit 0 before raising; its error
        # message delivered that counter despite the failure.  bad_unit=0
        # is in the first chunk a worker pulls, the other worker is still
        # asleep in its first unit, and the pool is terminated once the
        # error arrives, so nothing else can have arrived.
        assert snap.get("testpool.units") == 1

    def test_sigkilled_worker_is_one_error(self, clean_obs):
        """kill -9 a worker mid-unit: the liveness poll turns it into one
        ``ParallelError`` naming the dead worker, instead of a hang."""
        obs.enable()
        with pytest.raises(parallel.ParallelError) as exc:
            parallel.run_sharded(KILLER, {"kill_unit": 0, "delay": 0.1},
                                 range(4), jobs=2, label="testpool")
        assert "died" in str(exc.value)

    def test_clock_skew_corrected_for_late_worker(self, clean_obs,
                                                  monkeypatch):
        """A worker that starts late (import cost, spawn) must have its
        spans placed by its *own* trace epoch — its unit spans sit well
        after the instant the pool started."""
        worker_main = parallel._worker_main

        def late_worker_main(*args):
            time.sleep(0.4)
            worker_main(*args)

        # A forked worker runs the patched entry point; spawn would pickle it.
        monkeypatch.setattr(parallel, "_worker_main", late_worker_main)
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        parallel.run_sharded(SQUARE, {}, range(4), jobs=2,
                             label="testpool")
        obs.disable()
        recs = _sink_records(sink)
        (dispatch,) = [r for r in recs if r.get("name") == "testpool.sharded"]
        t_pool = dispatch["t0"]
        units = [r for r in recs
                 if r.get("name") == "testpool.unit" and not r.get("partial")]
        assert len(units) == 4
        # Every unit ran after the artificial 0.4s startup delay; an offset
        # taken at pool creation would have placed them near t_pool.
        assert all(u["t0"] >= t_pool + 0.3 for u in units)


class TestWorkLedger:
    def test_ledger_event_summarises_round(self, clean_obs):
        sink = io.StringIO()
        obs.enable(jsonl=sink)
        metrics.enable()
        parallel.run_sharded(SLEEPY, {"delay": 0.02}, range(6), jobs=2)
        obs.disable()
        (led,) = [r for r in _sink_records(sink)
                  if r.get("name") == "parallel.ledger"]
        a = led["attrs"]
        assert a["units"] == 6
        assert a["units_done"] == 6
        assert a["units_lost"] == 0
        assert a["workers"] == 2
        assert 0.0 < a["utilization_pct"] <= 100.0
        assert a["busy_seconds"] > 0.0
        gauges, hists = metrics.sample()
        assert gauges.get("parallel.utilization_pct") == a["utilization_pct"]
        assert hists["parallel.unit_seconds"].count == 6
        assert hists["parallel.queue_wait_seconds"].count == 6

    def test_ledger_counts_serial_path_too(self, clean_obs):
        perf.enable()
        parallel.run_sharded(SLEEPY, {"delay": 0.0}, range(5), jobs=1)
        assert perf.snapshot().get("parallel.ledger_units") == 5

    def test_no_ledger_when_observability_disabled(self):
        # No registry enabled: the ledger must not run (zero overhead).
        out = parallel.run_sharded(SQUARE, {}, range(4), jobs=2)
        assert out == [i * i for i in range(4)]
