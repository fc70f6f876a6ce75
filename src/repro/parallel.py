"""Process-pool execution subsystem (``repro.parallel``).

The paper's three heaviest workloads — all-prefix simulation (fig 14),
fault-tolerance scenario checking (fig 13b), and per-destination SMT
verification (fig 12) — decompose into *embarrassingly independent* units:
prefixes, failure-scenario batches, destination slices.  This module is the
shared fan-out engine the analysis drivers run those units through:

* **Warm persistent workers.**  A :class:`WorkerPool` starts ``jobs``
  processes once per run.  Each worker receives one picklable *payload*
  (typically a parsed NV :class:`~repro.lang.ast.Program` — plain record
  ASTs pickle cheaply) and calls a module-level *factory* exactly once to
  build its per-process state.  Unpicklable hash-consed structures — BDD
  managers, interned routes, interpreter closures — are **rebuilt
  worker-side** by that factory; they never cross the process boundary.
* **Chunked work queue with dynamic stealing.**  Units are enqueued as
  chunks on one shared queue; free workers pull the next chunk as soon as
  they finish, so an unlucky shard (one slow prefix, one hard SAT slice)
  never stalls the rest of the pool behind a static partition.
* **Deterministic merging.**  Every result carries its unit index; the
  parent reassembles the result list in canonical unit order, so parallel
  output is byte-identical to ``--jobs 1`` regardless of completion order.
* **Serial fallback.**  ``jobs=1`` (or a single unit) runs everything
  in-process through the *same* factory/unit code path — no multiprocessing
  import, no queues, no pickling.
* **Distributed tracing.**  The parent's dispatch span id travels to the
  workers inside each task; workers wrap every unit in a ``<label>.unit``
  span carrying it, and the parent ingests worker records as *children of
  the dispatch span* with a ``proc=N`` lane attribute — ``repro report``
  renders one causally-linked flame chart with per-worker lanes instead of
  floating worker fragments.
* **Streaming telemetry.**  Each worker runs a small flusher thread that
  periodically (``NV_STREAM_SECONDS``, default 0.5s; only when some
  observability registry is on) ships *incremental* deltas over the result
  channel: perf-counter diffs since the previous flush, newly closed trace
  records, and a ``"partial": true`` snapshot of its open spans.  A hung or
  SIGKILL-ed worker therefore leaves evidence of what it was doing, SIGINT
  partial dumps include worker partials, and the heartbeat can surface live
  per-worker progress and straggler warnings.  The same flush runs on the
  worker *error path* before the error is reported, so parent-side counter
  aggregation stays exact even when a unit raises.
* **Work ledger** (:mod:`repro.ledger`).  Every ``map()`` round records
  per-unit lifecycle (submitted → queued → pickled/bytes → executing →
  result/bytes → ingested) and publishes pool utilization, per-worker
  busy/idle time, serialization overhead and the queue-wait distribution as
  a ``parallel.ledger`` trace event plus metrics gauges/histograms.
* **First-answer racing** (:func:`race`) for SAT portfolios: N workers
  attack the same problem with different seeds; the first answer wins and
  the losers are cancelled (terminated) immediately.

Worker selection: ``jobs`` argument > ``NV_JOBS`` environment variable >
``os.cpu_count()`` capped at :data:`MAX_DEFAULT_JOBS`.  The ``fork`` start
method is preferred (milliseconds of startup, payload shared copy-on-write);
``spawn`` platforms work too but pay an interpreter+import startup cost per
worker — see README "Parallel execution".
"""

from __future__ import annotations

import io
import os
import threading
import time
from typing import Any, Callable, Iterator, Sequence

from . import ledger as ledger_mod
from . import metrics, obs, perf, telemetry

#: Default cap on the worker count when it is derived from ``os.cpu_count()``
#: (explicit ``jobs=``/``NV_JOBS`` values may exceed it).
MAX_DEFAULT_JOBS = 8

#: Default cadence (seconds) of the worker-side streaming telemetry flush;
#: override with ``NV_STREAM_SECONDS`` (0 disables streaming — the final
#: shutdown/error flush still runs).
DEFAULT_STREAM_SECONDS = 0.5

#: Gauge names the parent maintains while a sharded run is in flight; the
#: heartbeat surfaces them as ``shards done/total`` progress.
GAUGE_DONE = "parallel.units_done"
GAUGE_TOTAL = "parallel.units_total"

#: Live pool gauges published by the pool's metrics provider (sampled by
#: the heartbeat): worker counts and the age of the stalest busy worker,
#: which drives the heartbeat's straggler warning.
GAUGE_WORKERS = "parallel.workers"
GAUGE_WORKERS_BUSY = "parallel.workers_busy"
GAUGE_STRAGGLER_AGE = "parallel.straggler_age_seconds"
GAUGE_STRAGGLER_WORKER = "parallel.straggler_worker"


class ParallelError(RuntimeError):
    """A worker failed; carries the remote traceback text."""

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: explicit argument, else ``NV_JOBS``, else
    ``os.cpu_count()`` capped at :data:`MAX_DEFAULT_JOBS` (never < 1)."""
    if jobs is None:
        env = os.environ.get("NV_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ParallelError(f"NV_JOBS={env!r} is not an integer")
        else:
            jobs = min(os.cpu_count() or 1, MAX_DEFAULT_JOBS)
    return max(1, int(jobs))


def stream_period() -> float:
    """The streaming-flush cadence in seconds (``NV_STREAM_SECONDS``, else
    :data:`DEFAULT_STREAM_SECONDS`); 0 disables periodic streaming."""
    env = os.environ.get("NV_STREAM_SECONDS", "").strip()
    if env:
        try:
            return max(0.0, float(env))
        except ValueError:
            pass
    return DEFAULT_STREAM_SECONDS


def chunk_units(num_units: int, jobs: int,
                chunk_size: int | None = None) -> list[list[int]]:
    """Split unit indices into chunks for the work queue.

    The default chunk size targets ~4 chunks per worker so the dynamic
    queue can rebalance around slow units, without paying one IPC round
    trip per unit.
    """
    if num_units <= 0:
        return []
    if chunk_size is None:
        chunk_size = max(1, -(-num_units // max(1, jobs * 4)))
    chunk_size = max(1, int(chunk_size))
    return [list(range(i, min(i + chunk_size, num_units)))
            for i in range(0, num_units, chunk_size)]


def _resolve_ref(ref: str) -> Callable[..., Any]:
    """Import ``"pkg.module:attr"`` — the spawn-safe way to name a worker
    factory (callables themselves may not pickle; module paths always do)."""
    import importlib

    if ":" not in ref:
        raise ParallelError(f"worker ref {ref!r} must be 'module:attribute'")
    mod_name, attr = ref.split(":", 1)
    fn = getattr(importlib.import_module(mod_name), attr, None)
    if fn is None:
        raise ParallelError(f"worker ref {ref!r} does not resolve")
    return fn


def _format_exc(exc: BaseException) -> str:
    import traceback

    return "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))


def _pickled_size(value: Any) -> int:
    """Byte size of ``value``'s pickle, 0 if it will not pickle (the real
    send will raise a clearer error than this probe should)."""
    import pickle

    try:
        return len(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - measurement only, never fatal
        return 0


def default_start_method() -> str:
    """``fork`` when the platform offers it (fast, copy-on-write payload),
    else ``spawn``."""
    import multiprocessing as mp

    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

class _WorkerTelemetry:
    """Worker-side observability state plus the streaming flusher thread.

    Owns the worker's registries (reset + re-enabled to mirror the parent's
    flags), the in-memory trace buffer, and the *delta* bookkeeping that
    makes incremental flushes exact: each flush ships only the perf-counter
    diff since the previous flush and only the trace lines written since
    the previous drain, so the parent can blindly merge every delta without
    double counting.  The final flush (clean shutdown *or* error path)
    additionally carries the metric histograms and marks the telemetry
    closed — the flusher thread can never emit after it.
    """

    def __init__(self, wid: int, flags: dict[str, Any],
                 result_q: Any) -> None:
        self.wid = wid
        self.flags = flags
        self.result_q = result_q
        self.lock = threading.Lock()
        self.trace_buf: io.StringIO | None = None
        self._buf_pos = 0
        self._flushed_perf: dict[str, int | float] = {}
        self._closed = False
        self.units_done = 0
        self.current_unit: int | None = None
        self._progress_dirty = False
        # Inherit the parent's observability enablement.  Under fork the
        # registries arrive pre-populated with the parent's counts; reset
        # so flushes report only *this worker's* work (otherwise the
        # parent-side aggregation would double-count its own history).
        perf.reset()
        if flags.get("perf"):
            perf.enable()
        else:
            perf.disable()
        obs.reset()
        if flags.get("trace"):
            self.trace_buf = io.StringIO()
            obs.enable(jsonl=self.trace_buf)
        else:
            obs.disable()
        metrics.reset()
        if flags.get("metrics"):
            metrics.enable()
        else:
            metrics.disable()
        # NV_TELEMETRY read at import does not see parent-side programmatic
        # enables (and spawn workers re-read a possibly-unset env), so the
        # parent's live flag travels with the rest.
        if flags.get("telemetry"):
            telemetry.enable()
        else:
            telemetry.disable()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        period = float(flags.get("stream_period") or 0.0)
        observing = (flags.get("perf") or flags.get("trace")
                     or flags.get("metrics"))
        if period > 0 and observing:
            self._thread = threading.Thread(
                target=self._stream_loop, args=(period,), daemon=True,
                name=f"repro-worker-{wid}-flush")
            self._thread.start()

    # -- progress ------------------------------------------------------

    def begin_unit(self, idx: int) -> None:
        with self.lock:
            self.current_unit = idx
            self._progress_dirty = True

    def end_unit(self) -> None:
        with self.lock:
            self.current_unit = None
            self.units_done += 1
            self._progress_dirty = True

    # -- flushing ------------------------------------------------------

    def _stream_loop(self, period: float) -> None:
        while not self._stop.wait(period):
            try:
                self.flush()
            except Exception:  # noqa: BLE001 - streaming never kills work
                pass

    def _drain_lines(self) -> list[str]:
        """Complete trace lines written since the previous drain.  The obs
        sink writes whole ``line + "\\n"`` strings under its lock, so
        everything up to the last newline is a complete record."""
        if self.trace_buf is None:
            return []
        chunk = self.trace_buf.getvalue()[self._buf_pos:]
        cut = chunk.rfind("\n")
        if cut < 0:
            return []
        self._buf_pos += cut + 1
        return [ln for ln in chunk[:cut].splitlines() if ln]

    def flush(self, final: bool = False) -> None:
        """Ship one telemetry delta to the parent.

        Periodic flushes also write a ``"partial": true`` snapshot of the
        worker's open spans first, so a worker that hangs or dies mid-unit
        has already left evidence of what it was executing (the report
        dedups partials superseded by the completed span).  ``final``
        flushes add the metric histograms, mark the telemetry closed and
        join the flusher thread.
        """
        with self.lock:
            if self._closed:
                return
            if final:
                self._closed = True
                self._stop.set()
            payload: dict[str, Any] = {}
            if self.flags.get("perf"):
                snap = perf.snapshot()
                # Never-reported keys ship even at zero: a worker that
                # merged `skipped: 0` must create that counter parent-side
                # exactly as the serial path would.
                diff = {k: v - self._flushed_perf.get(k, 0)
                        for k, v in snap.items()
                        if v != self._flushed_perf.get(k, 0)
                        or k not in self._flushed_perf}
                if diff:
                    payload["perf"] = diff
                    self._flushed_perf = snap
            if self.trace_buf is not None:
                if not final:
                    obs.flush_partial()
                lines = self._drain_lines()
                if lines:
                    payload["lines"] = lines
            if final and self.flags.get("metrics"):
                _, live_hists = metrics.sample()
                hists = {name: h.to_dict()
                         for name, h in live_hists.items()}
                if hists:
                    payload["hists"] = hists
            if payload or self._progress_dirty or final:
                payload["units_done"] = self.units_done
                payload["current_unit"] = self.current_unit
                payload["final"] = final
                self._progress_dirty = False
                self.result_q.put(("delta", self.wid, payload))
        if final and self._thread is not None:
            self._thread.join(timeout=2.0)


def _worker_main(wid: int, worker_ref: str, payload: Any,
                 flags: dict[str, Any], task_q: Any, result_q: Any) -> None:
    """Entry point of one pool worker process.

    Protocol on ``result_q``:

    * ``("delta", wid, payload)`` — incremental telemetry flush; ``payload``
      may carry ``perf`` (counter diffs), ``lines`` (trace records),
      ``hists`` (final flush only), and always carries ``units_done`` /
      ``current_unit`` progress plus a ``final`` marker;
    * ``("chunk", wid, [(unit_index, result), ...], meta)`` per completed
      chunk — ``meta`` (or ``None``) carries per-unit epoch timestamps and
      the result pickle size for the parent-side work ledger;
    * ``("error", wid, unit_index, traceback_text)`` then exit on failure,
      always *preceded by a final telemetry delta* so counters for the work
      already done are not lost;
    * ``("done", wid)`` on the shutdown sentinel (after the final delta).
    """
    delay = os.environ.get("NV_TEST_WORKER_START_DELAY", "").strip()
    if delay:  # test hook: simulate slow worker startup (clock-skew tests)
        try:
            time.sleep(float(delay))
        except ValueError:
            pass
    tele = _WorkerTelemetry(wid, flags, result_q)
    try:
        fn = _resolve_ref(worker_ref)(payload)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        tele.flush(final=True)
        result_q.put(("error", wid, -1, _format_exc(exc)))
        return
    _worker_loop(wid, fn, flags, tele, task_q, result_q)


def _worker_loop(wid: int, fn: Callable[[Any], Any], flags: dict[str, Any],
                 tele: _WorkerTelemetry, task_q: Any, result_q: Any) -> None:
    """Pull task chunks until the shutdown sentinel, running every unit
    inside a ``<label>.unit`` span that carries the parent's dispatch span
    id (the causal link the parent's ingest re-roots worker trees with)."""
    label = flags.get("label", "parallel")
    ledger_on = bool(flags.get("ledger"))
    bytes_on = bool(flags.get("bytes"))
    while True:
        task = task_q.get()
        if task is None:
            break
        dispatch_id, pairs = task
        out: list[tuple[int, Any]] = []
        times: list[tuple[int, float, float]] = []
        try:
            for idx, unit, unit_label in pairs:
                tele.begin_unit(idx)
                t0 = time.time()
                if obs.is_enabled():
                    attrs: dict[str, Any] = {"unit": idx,
                                             "dispatch": dispatch_id}
                    if unit_label is not None:
                        attrs["unit_label"] = unit_label
                    with obs.span(f"{label}.unit", **attrs):
                        result = fn(unit)
                else:
                    result = fn(unit)
                out.append((idx, result))
                if ledger_on:
                    times.append((idx, t0, time.time()))
                tele.end_unit()
        except BaseException as exc:  # noqa: BLE001
            # Flush counters and partial traces BEFORE reporting the error:
            # parent-side aggregation and budgets stay exact for the units
            # this worker did complete.
            tele.flush(final=True)
            result_q.put(("error", wid, pairs[len(out)][0],
                          _format_exc(exc)))
            return
        meta: dict[str, Any] | None = None
        if ledger_on:
            meta = {"t": times}
            if bytes_on:
                meta["result_bytes"] = _pickled_size(out)
        result_q.put(("chunk", wid, out, meta))
    tele.flush(final=True)
    result_q.put(("done", wid))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class WorkerPool:
    """A pool of warm worker processes bound to one factory + payload.

    Use :func:`run_sharded` unless you need to push several unit batches
    through the same warm workers (amortising worker startup and the
    worker-side program rebuild across rounds)::

        with WorkerPool("repro.analysis.fault:_shard_factory", payload,
                        jobs=4) as pool:
            first = pool.map(units_a)
            second = pool.map(units_b)
    """

    def __init__(self, worker_ref: str, payload: Any, *,
                 jobs: int | None = None,
                 start_method: str | None = None,
                 label: str = "parallel") -> None:
        self.worker_ref = worker_ref
        self.payload = payload
        self.jobs = resolve_jobs(jobs)
        self.label = label
        self._serial_fn: Callable[[Any], Any] | None = None
        self._procs: list[Any] = []
        self._task_q: Any = None
        self._result_q: Any = None
        #: Ledger of the most recently completed :meth:`map` round (or the
        #: serial equivalent); ``run_sharded`` surfaces its summary.
        self.last_ledger: ledger_mod.Ledger | None = None
        #: Fallback parent-timeline offset for ingested worker records: the
        #: instant the pool was created.  Per-worker offsets derived from
        #: each worker's trace ``meta`` header (its ``t_epoch`` vs ours)
        #: are preferred — workers start hundreds of ms after pool creation
        #: (import + factory cost, more under spawn), so this fallback
        #: lands their spans early on the timeline.
        self._t_offset = obs.now()
        self._t_offsets: dict[int, float] = {}
        #: Per-worker persistent id remap tables, so records streamed over
        #: several deltas keep stable remapped ids (partial span snapshots
        #: dedup against their completed record).
        self._id_maps: dict[int, dict[int, int]] = {}
        self._dispatch_id = 0
        #: Live per-worker progress (updated from streamed deltas); read by
        #: the pool's metrics provider for heartbeat straggler detection.
        self._worker_state: dict[int, dict[str, Any]] = {}
        self._unregister_provider = metrics.register_provider(
            "parallel.pool", self._provider_sample)
        if self.jobs <= 1:
            return
        import multiprocessing as mp

        ctx = mp.get_context(start_method or default_start_method())
        self._task_q = ctx.Queue()
        self._result_q = ctx.Queue()
        self._flags = {
            "perf": perf.is_enabled(), "trace": obs.is_enabled(),
            "metrics": metrics.is_enabled(), "label": label,
            "telemetry": telemetry.is_enabled(),
            "ledger": self._ledger_on(), "bytes": self._bytes_on(),
            "stream_period": stream_period(),
        }
        for wid in range(self.jobs):
            self._worker_state[wid] = {
                "units_done": 0, "current_unit": None,
                "last_progress": time.monotonic(), "busy": False}
            p = ctx.Process(
                target=_worker_main,
                args=(wid, worker_ref, payload, self._flags,
                      self._task_q, self._result_q),
                daemon=True, name=f"repro-worker-{wid}")
            p.start()
            self._procs.append(p)

    @staticmethod
    def _ledger_on() -> bool:
        """Ledger accounting rides on any observability channel being up —
        it is pure parent-side bookkeeping plus one epoch pair per unit."""
        return perf.is_enabled() or obs.is_enabled() or metrics.is_enabled()

    @staticmethod
    def _bytes_on() -> bool:
        """Pickle-size probing doubles serialization cost, so it only runs
        when a consumer (trace event or metrics gauge) will surface it."""
        return obs.is_enabled() or metrics.is_enabled()

    # -- live pool gauges ----------------------------------------------

    def _provider_sample(self) -> dict[str, float]:
        """Metrics provider: worker/busy counts plus the age of the
        stalest busy worker (seconds since it last reported progress) —
        the signal the heartbeat's straggler warning keys on."""
        gauges = {GAUGE_WORKERS: float(self.jobs)}
        busy = [wid for wid, st in self._worker_state.items()
                if st.get("busy")]
        gauges[GAUGE_WORKERS_BUSY] = float(len(busy))
        if busy:
            now = time.monotonic()
            age, wid = max(
                (now - self._worker_state[w]["last_progress"], w)
                for w in busy)
            gauges[GAUGE_STRAGGLER_AGE] = round(age, 3)
            gauges[GAUGE_STRAGGLER_WORKER] = float(wid)
        return gauges

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Send shutdown sentinels, collect the workers' final telemetry
        deltas, and reap the processes.  Idempotent."""
        if not self._procs:
            self._unregister_provider()
            return
        procs, self._procs = self._procs, []
        try:
            for _ in procs:
                self._task_q.put(None)
            pending = len(procs)
            while pending:
                msg = self._get_result(procs)
                kind, wid = msg[0], msg[1]
                if kind == "delta":
                    self._ingest_delta(wid, msg[2])
                elif kind in ("done", "error"):
                    pending -= 1
        except ParallelError:
            for p in procs:
                if p.is_alive():
                    p.terminate()
        finally:
            for p in procs:
                p.join(timeout=10.0)
                if p.is_alive():  # pragma: no cover - wedged worker
                    p.terminate()
                    p.join(timeout=5.0)
            self._unregister_provider()

    def terminate(self) -> None:
        """Hard-kill all workers (used on error paths).  Telemetry deltas
        already sitting in the result queue are drained first — a worker
        that flushed before failing keeps its counters."""
        procs, self._procs = self._procs, []
        self._drain_deltas()
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)
        self._unregister_provider()

    def _drain_deltas(self) -> None:
        """Consume without blocking whatever telemetry is already queued."""
        if self._result_q is None:
            return
        import queue as queue_mod

        while True:
            try:
                msg = self._result_q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return
            if msg and msg[0] == "delta":
                self._ingest_delta(msg[1], msg[2])

    # -- telemetry ingestion -------------------------------------------

    def _worker_offset(self, wid: int, records: list[dict[str, Any]]) -> float:
        """Parent-timeline offset for one worker's trace records.

        Prefer the offset derived from the worker's own ``meta`` header
        (its ``t_epoch`` minus our origin epoch — exact, immune to worker
        startup latency); fall back to the pool-creation instant when the
        header has not arrived (streaming can only see it in the first
        delta).  Cached per worker so later deltas stay consistent.
        """
        cached = self._t_offsets.get(wid)
        if cached is not None:
            return cached
        offset = self._t_offset
        origin = obs.origin_epoch()
        if origin:
            for rec in records:
                if rec.get("type") == "meta" and "t_epoch" in rec:
                    offset = float(rec["t_epoch"]) - origin
                    break
        self._t_offsets[wid] = offset
        return offset

    def _ingest_delta(self, wid: int, payload: dict[str, Any]) -> None:
        """Merge one streamed worker delta into the parent registries."""
        diff = payload.get("perf")
        if diff:
            perf.merge(diff)
        for name, data in (payload.get("hists") or {}).items():
            metrics.record_histogram(name, metrics.Histogram.from_dict(data))
        lines = payload.get("lines") or []
        if lines and obs.is_enabled():
            import json

            records = []
            for ln in lines:
                try:
                    records.append(json.loads(ln))
                except ValueError:  # pragma: no cover - truncated line
                    continue
            if records:
                obs.ingest(records,
                           t_offset=self._worker_offset(wid, records),
                           id_map=self._id_maps.setdefault(wid, {0: 0}),
                           parent_span=self._dispatch_id, proc=wid)
        st = self._worker_state.get(wid)
        if st is not None:
            units_done = payload.get("units_done", st["units_done"])
            current = payload.get("current_unit")
            if (units_done != st["units_done"]
                    or current != st["current_unit"]):
                st["last_progress"] = time.monotonic()
            st["units_done"] = units_done
            st["current_unit"] = current
            st["busy"] = current is not None

    # -- execution -----------------------------------------------------

    def _get_result(self, procs: list[Any]) -> tuple:
        """One message off the result queue, watching worker liveness so a
        crashed worker (OOM kill, segfault) raises instead of hanging."""
        import queue as queue_mod

        while True:
            try:
                return self._result_q.get(timeout=1.0)
            except queue_mod.Empty:
                dead = [p for p in procs if not p.is_alive()
                        and p.exitcode not in (0, None)]
                if dead:
                    raise ParallelError(
                        f"worker {dead[0].name} died with exit code "
                        f"{dead[0].exitcode}")

    def map(self, units: Sequence[Any], chunk_size: int | None = None,
            unit_labels: Sequence[str] | None = None) -> list[Any]:
        """Run every unit through the pool; results in unit order.

        Progress is published while chunks complete: the parent bumps the
        ``parallel.units_done``/``parallel.units_total`` gauges (rendered
        by the heartbeat's ``--progress`` line as ``shards d/t``) and emits
        one ``parallel.chunk_done`` trace event per chunk.  When any
        observability registry is enabled the round is also accounted in a
        work ledger (:attr:`last_ledger`) covering queue wait, per-worker
        busy time, utilization and serialization bytes.  ``unit_labels``
        optionally names units (prefix, batch, destination) for unit spans
        and ledger records.
        """
        units = list(units)
        labels = list(unit_labels) if unit_labels is not None else None
        dispatch = obs.current()
        self._dispatch_id = dispatch.id if dispatch is not None else 0
        if self.jobs <= 1 or len(units) <= 1 or not self._procs:
            return self._map_serial(units, labels)

        led = ledger_mod.Ledger(self.label, len(self._procs)) \
            if self._ledger_on() else None
        bytes_on = led is not None and self._bytes_on()
        chunks = chunk_units(len(units), self.jobs, chunk_size)
        for chunk in chunks:
            pairs = [(i, units[i], labels[i] if labels else None)
                     for i in chunk]
            task = (self._dispatch_id, pairs)
            if led is not None:
                task_bytes = _pickled_size(task) if bytes_on else 0
                share = task_bytes // max(1, len(chunk))
                for i in chunk:
                    led.submit(i, label=labels[i] if labels else None,
                               task_bytes=share)
            self._task_q.put(task)
        total = len(units)
        done = 0
        metrics.set_gauge(GAUGE_TOTAL, total)
        metrics.set_gauge(GAUGE_DONE, 0)
        results: dict[int, Any] = {}
        procs = self._procs
        remaining = len(chunks)
        while remaining:
            msg = self._get_result(procs)
            kind, wid = msg[0], msg[1]
            if kind == "delta":
                self._ingest_delta(wid, msg[2])
                continue
            if kind == "error":
                idx, tb = msg[2], msg[3]
                if led is not None:
                    led.mark_error(idx, wid)
                    led.finish()
                    led.flush()
                    self.last_ledger = led
                self.terminate()
                raise ParallelError(
                    f"worker {wid} failed on unit {idx}:\n{tb}",
                    remote_traceback=tb)
            if kind == "chunk":
                pairs, meta = msg[2], msg[3]
                for idx, value in pairs:
                    results[idx] = value
                done += len(pairs)
                remaining -= 1
                if led is not None and meta is not None:
                    stamps = meta.get("t") or []
                    share = (meta.get("result_bytes", 0)
                             // max(1, len(stamps)))
                    for idx, t0, t1 in stamps:
                        led.record_exec(idx, wid, t0, t1,
                                        result_bytes=share)
                st = self._worker_state.get(wid)
                if st is not None:
                    st["last_progress"] = time.monotonic()
                metrics.set_gauge(GAUGE_DONE, done)
                obs.event("parallel.chunk_done", worker=wid,
                          done=done, total=total, label=self.label)
            elif kind == "done":  # pragma: no cover - early sentinel
                pass
        for st in self._worker_state.values():
            st["busy"] = False
        if led is not None:
            led.finish()
            led.flush()
            self.last_ledger = led
        return [results[i] for i in range(total)]

    def _map_serial(self, units: list[Any],
                    labels: list[str] | None) -> list[Any]:
        """The in-process path (jobs=1 or a single unit): same factory/unit
        code, same per-unit spans and ledger accounting as the workers run,
        so serial and sharded traces have the same shape."""
        if self._serial_fn is None:
            self._serial_fn = _resolve_ref(self.worker_ref)(self.payload)
        led = ledger_mod.Ledger(self.label, 1) if self._ledger_on() else None
        tracing = obs.is_enabled()
        out: list[Any] = []
        for i, unit in enumerate(units):
            t0 = time.time()
            if led is not None:
                led.submit(i, label=labels[i] if labels else None, t=t0)
            if tracing:
                attrs: dict[str, Any] = {"unit": i}
                if labels:
                    attrs["unit_label"] = labels[i]
                with obs.span(f"{self.label}.unit", **attrs):
                    out.append(self._serial_fn(unit))
            else:
                out.append(self._serial_fn(unit))
            if led is not None:
                led.record_exec(i, 0, t0, time.time())
        if led is not None:
            led.finish()
            led.flush()
            self.last_ledger = led
        return out


def run_sharded(worker_ref: str, payload: Any, units: Sequence[Any], *,
                jobs: int | None = None, chunk_size: int | None = None,
                start_method: str | None = None,
                label: str = "parallel",
                unit_labels: Sequence[str] | None = None) -> list[Any]:
    """Fan ``units`` out over a fresh warm pool; results in unit order.

    ``worker_ref`` is a ``"module:attribute"`` path to a module-level
    *factory*: ``factory(payload) -> (unit -> result)``.  The factory runs
    once per worker (and once in-process for the ``jobs=1`` serial path);
    its return value is the per-unit function.  Payload, units and results
    must pickle; everything else is rebuilt worker-side by the factory.
    ``unit_labels`` optionally gives units human-readable names (file,
    prefix, batch) that show up in unit spans and the work ledger.
    """
    units = list(units)
    with metrics.phase(f"{label}.sharded"), \
            obs.span(f"{label}.sharded", units=len(units),
                     jobs=resolve_jobs(jobs)) as sp:
        pool = WorkerPool(worker_ref, payload, jobs=jobs,
                          start_method=start_method, label=label)
        with pool:
            out = pool.map(units, chunk_size=chunk_size,
                           unit_labels=unit_labels)
        if sp is not None:
            sp.attrs["completed"] = len(out)
            if pool.last_ledger is not None:
                s = pool.last_ledger.summary()
                for key in ("utilization_pct", "busy_seconds",
                            "task_bytes", "result_bytes"):
                    sp.attrs[key] = s[key]
    perf.merge({"sharded_runs": 1, "units": len(out)}, prefix="parallel.")
    return out


# ----------------------------------------------------------------------
# First-answer racing (SAT portfolio support)
# ----------------------------------------------------------------------

class _NoCommon:
    """Sentinel: :func:`race` called without a shared payload — workers
    keep their historical one-argument signature.  A class (not an
    instance) so identity survives pickling under the spawn start
    method."""


_NO_COMMON = _NoCommon


def _race_main(idx: int, worker_ref: str, payload: Any,
               result_q: Any, common: Any = _NO_COMMON) -> None:
    try:
        fn = _resolve_ref(worker_ref)
        result = (fn(payload) if common is _NO_COMMON
                  else fn(payload, common))
        result_q.put(("ok", idx, result))
    except BaseException as exc:  # noqa: BLE001
        result_q.put(("error", idx, _format_exc(exc)))


def race(worker_ref: str, payloads: Sequence[Any], *,
         jobs: int | None = None,
         start_method: str | None = None,
         common: Any = _NO_COMMON) -> tuple[int, Any]:
    """Race ``worker(payload_i)`` across processes; first answer wins.

    Returns ``(winner_index, result)`` and terminates the losers
    immediately — the SAT portfolio's cancel-on-first-answer semantics.
    With ``jobs=1`` (or one payload) only ``payloads[0]`` runs, in-process:
    the serial path is deterministic by construction.

    ``common`` (optional) is a racer-independent payload shared by every
    contender, passed as the worker's second positional argument.  Put the
    bulk of the instance there (e.g. a large clause database raced under
    per-racer strategy configs): under the default ``fork`` start method
    it reaches children by copy-on-write inheritance rather than being
    serialised per racer — this is what keeps portfolio racing cheap to
    launch on top of an incrementally accumulated encoding.

    Unlike :func:`run_sharded`, racers are short-lived dedicated processes
    (not pool workers): cancelling a loser means killing it mid-solve,
    which must never take a warm pool down with it.

    The race's lifecycle is ledgered on the trace/metrics channels:
    ``parallel.race_started`` / ``parallel.race_won`` events carry the
    contender count and the winning wall time, and the wall time feeds the
    ``parallel.race_wall_seconds`` histogram.
    """
    payloads = list(payloads)
    if not payloads:
        raise ParallelError("race() needs at least one payload")
    jobs = resolve_jobs(jobs)
    t_start = time.time()
    if jobs <= 1 or len(payloads) == 1:
        if common is _NO_COMMON:
            result = _resolve_ref(worker_ref)(payloads[0])
        else:
            result = _resolve_ref(worker_ref)(payloads[0], common)
        wall = time.time() - t_start
        obs.event("parallel.race_won", winner=0, contenders=1,
                  wall_seconds=round(wall, 6))
        metrics.observe("parallel.race_wall_seconds", wall)
        perf.merge({"races": 1}, prefix="parallel.")
        return 0, result

    import multiprocessing as mp

    ctx = mp.get_context(start_method or default_start_method())
    result_q = ctx.Queue()
    procs = []
    for idx, payload in enumerate(payloads[:jobs]):
        p = ctx.Process(target=_race_main,
                        args=(idx, worker_ref, payload, result_q, common),
                        daemon=True, name=f"repro-racer-{idx}")
        p.start()
        procs.append(p)
    obs.event("parallel.race_started", contenders=len(procs))
    import queue as queue_mod

    errors: list[str] = []
    try:
        while True:
            try:
                kind, idx, result = result_q.get(timeout=1.0)
            except queue_mod.Empty:
                if all(not p.is_alive() for p in procs):
                    raise ParallelError(
                        "every portfolio racer died without an answer:\n"
                        + "\n".join(errors))
                continue
            if kind == "ok":
                wall = time.time() - t_start
                obs.event("parallel.race_won", winner=idx,
                          contenders=len(procs),
                          wall_seconds=round(wall, 6))
                metrics.observe("parallel.race_wall_seconds", wall)
                perf.merge({"races": 1}, prefix="parallel.")
                return idx, result
            errors.append(result)
            if len(errors) == len(procs):
                raise ParallelError(
                    "every portfolio racer failed:\n" + "\n".join(errors))
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)


def iter_progress(total: int) -> Iterator[int]:  # pragma: no cover - helper
    """Yield 0..total-1 while keeping the shard-progress gauges fresh (for
    serial loops that want the same heartbeat progress as the pool)."""
    metrics.set_gauge(GAUGE_TOTAL, total)
    for i in range(total):
        metrics.set_gauge(GAUGE_DONE, i)
        yield i
    metrics.set_gauge(GAUGE_DONE, total)
