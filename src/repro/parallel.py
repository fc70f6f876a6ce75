"""Process-pool execution subsystem (``repro.parallel``).

Per-prefix fault tolerance (fig 13c), the one-simulation-per-scenario
baseline, per-destination SMT verification (fig 12) and the fragments of a
partitioned verification decompose into *embarrassingly independent*
units: prefixes, concrete failure scenarios, destination slices,
fragments.  (The fig 5 meta-protocol does not: its scenarios share
diagrams, so it runs once, in-process; several simulations run one after
another, in-process, because sharding them never paid.)  This module is
the shared fan-out engine the analysis drivers run those units through,
one function, :func:`run_sharded`:

* **Warm workers.**  A sharded run starts ``jobs`` processes.  Each
  worker receives one picklable *payload* (typically a parsed NV
  :class:`~repro.lang.ast.Program` — plain record ASTs pickle cheaply) and
  calls a module-level *factory* exactly once to build its per-process
  state.  Unpicklable hash-consed structures — BDD managers, interned
  routes, interpreter closures — are **rebuilt worker-side** by that
  factory; they never cross the process boundary.
* **Chunked work queue.**  Units are enqueued as chunks on one shared
  queue; free workers pull the next chunk as soon as they finish, so one
  slow prefix or hard SAT slice never stalls the rest of the pool behind a
  static partition.
* **Deterministic merging.**  Every result carries its unit index; the
  parent reassembles the result list in canonical unit order, so parallel
  output is byte-identical to ``--jobs 1`` regardless of completion order.
* **Serial fallback.**  ``jobs=1`` (or a single unit) runs everything
  in-process through the *same* factory/unit code path — no multiprocessing
  import, no queues, no pickling.
* **One message per chunk.**  A worker reports once per finished chunk and
  once when it stops, nothing else, and runs no thread of its own.  Each
  message carries the chunk's pickled results and the worker's telemetry
  since its previous message: perf-counter diffs, the trace records it
  wrote, its trace epoch and, when the work ledger is on, per-unit epoch
  stamps.  A unit that raises, or a result that will not pickle, is one
  ``"error"`` message with the same telemetry, so counters stay exact on
  the error path too.
* **Distributed tracing.**  The parent's dispatch span id travels to the
  workers inside each task; workers wrap every unit in a ``<label>.unit``
  span carrying it, and the parent ingests worker records as *children of
  the dispatch span* with a ``proc=N`` lane attribute, shifted onto its
  timeline by the difference of the two trace epochs — ``repro report``
  renders one flame chart with per-worker lanes.
* **Work ledger** (:mod:`repro.ledger`).  When any observability registry
  is on, every run records per-unit lifecycle and publishes pool
  utilization, serialization bytes and the queue-wait distribution as a
  ``parallel.ledger`` trace event plus metrics gauges/histograms.

Worker selection: ``jobs`` argument > ``NV_JOBS`` environment variable >
``os.cpu_count()`` capped at :data:`MAX_DEFAULT_JOBS`.  Workers are forked
where the platform offers ``fork`` (milliseconds of startup, payload shared
copy-on-write), else spawned — see README "Parallel execution".
"""

from __future__ import annotations

import io
import os
import time
from typing import Any, Callable, Sequence

from . import ledger as ledger_mod
from . import metrics, obs, perf

#: Default cap on the worker count when it is derived from ``os.cpu_count()``
#: (explicit ``jobs=``/``NV_JOBS`` values may exceed it).
MAX_DEFAULT_JOBS = 8

#: Gauge names the parent maintains while a sharded run is in flight; the
#: heartbeat surfaces them as ``shards done/total`` progress.
GAUGE_DONE = "parallel.units_done"
GAUGE_TOTAL = "parallel.units_total"


class ParallelError(RuntimeError):
    """A worker failed.  The message is one line; the remote traceback text
    rides on :attr:`remote_traceback`."""

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: explicit argument, else ``NV_JOBS``, else
    ``os.cpu_count()`` capped at :data:`MAX_DEFAULT_JOBS`.  A count below 1
    is an error, like one that is not an integer."""
    if jobs is not None:
        source = f"--jobs {jobs}"
    else:
        env = os.environ.get("NV_JOBS", "").strip()
        if not env:
            return min(os.cpu_count() or 1, MAX_DEFAULT_JOBS)
        source = f"NV_JOBS={env!r}"
        try:
            jobs = int(env)
        except ValueError:
            raise ParallelError(f"{source} is not an integer")
    if jobs < 1:
        raise ParallelError(f"{source}: the worker count must be at least 1")
    return jobs


def chunk_units(num_units: int, jobs: int) -> list[list[int]]:
    """Split unit indices into chunks for the work queue: about four chunks
    per worker, so the queue can rebalance around slow units without
    paying one message per unit."""
    size = max(1, -(-num_units // max(1, jobs * 4)))
    return [list(range(i, min(i + size, num_units)))
            for i in range(0, num_units, size)]


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


def _format_exc(exc: BaseException) -> tuple[str, str]:
    """``(traceback text, one-line summary)`` of a worker-side exception:
    the summary is ``ExcType: message`` with the message's line breaks
    folded, what a :class:`ParallelError` message quotes."""
    import traceback

    text = "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))
    message = " ".join(str(exc).splitlines())
    name = type(exc).__name__
    return text, f"{name}: {message}" if message else name


def _run_unit(fn: Callable[[Any], Any], label: str, idx: int, unit: Any,
              unit_label: str | None, **attrs: Any) -> Any:
    """``fn(unit)``, inside a ``<label>.unit`` span when tracing — the same
    span in a worker and on the serial path, so both traces have one
    shape."""
    if not obs.is_enabled():
        return fn(unit)
    if unit_label is not None:
        attrs["unit_label"] = unit_label
    with obs.span(f"{label}.unit", unit=idx, **attrs):
        return fn(unit)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _worker_main(wid: int, worker_ref: str, payload: Any,
                 flags: dict[str, Any], task_q: Any, result_q: Any) -> None:
    """Entry point of one pool worker process.

    Each task is a pickled ``(dispatch span id, [(unit index, unit, unit
    label), ...])`` chunk; ``None`` stops the worker.  Protocol on
    ``result_q``, every message ending in the telemetry since the previous
    one (see :func:`_ingest`):

    * ``("chunk", wid, body, telemetry)`` per finished chunk, ``body`` the
      pickled ``(unit index, result)`` pairs;
    * ``("error", wid, unit_index, (traceback_text, summary), telemetry)``
      when the factory (unit ``-1``) or a unit raises, or a result will not
      pickle; the worker then exits;
    * ``("done", wid, telemetry)`` on the stop sentinel, with the metric
      histograms added.
    """
    import pickle

    # Under fork the registries arrive holding the parent's counts; reset
    # them so this worker reports only its own work.
    for mod, on in ((perf, flags["perf"]), (metrics, flags["metrics"])):
        mod.reset()
        if on:
            mod.enable()
        else:
            mod.disable()
    obs.reset()
    trace_buf = io.StringIO() if flags["trace"] else None
    if trace_buf is not None:
        obs.enable(jsonl=trace_buf)
    else:
        obs.disable()
    sent_perf: dict[str, int | float] = {}
    stamps: list[tuple[int, float, float]] = []

    def telemetry(final: bool = False) -> dict[str, Any]:
        nonlocal sent_perf
        tele: dict[str, Any] = {}
        if flags["perf"]:
            snap = perf.snapshot()
            # A key never sent ships even at zero: a worker that merged
            # `skipped: 0` must create that counter parent-side exactly as
            # the serial path would.
            tele["perf"] = {k: v - sent_perf.get(k, 0) for k, v in snap.items()
                            if k not in sent_perf or v != sent_perf[k]}
            sent_perf = snap
        if trace_buf is not None:
            tele["lines"] = trace_buf.getvalue().splitlines()
            trace_buf.seek(0)
            trace_buf.truncate()
            tele["epoch"] = obs.origin_epoch()
        if stamps:
            tele["t"] = stamps[:]
            stamps.clear()
        if final and flags["metrics"]:
            tele["hists"] = {name: h.to_dict()
                             for name, h in metrics.sample()[1].items()}
        return tele

    try:
        fn = _resolve_ref(worker_ref)(payload)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        result_q.put(("error", wid, -1, _format_exc(exc), telemetry(True)))
        return
    label = flags["label"]
    while True:
        task = task_q.get()
        if task is None:
            break
        dispatch_id, pairs = pickle.loads(task)
        body = io.BytesIO()
        pickler = pickle.Pickler(body, pickle.HIGHEST_PROTOCOL)
        try:
            for idx, unit, unit_label in pairs:
                t0 = time.time()
                result = _run_unit(fn, label, idx, unit, unit_label,
                                   dispatch=dispatch_id)
                if flags["ledger"]:
                    stamps.append((idx, t0, time.time()))
                # Pickled here, unit by unit: a result that will not pickle
                # is this unit's error, not a message the queue drops.
                pickler.dump((idx, result))
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            result_q.put(("error", wid, idx, _format_exc(exc),
                          telemetry(True)))
            return
        result_q.put(("chunk", wid, body.getvalue(), telemetry()))
    result_q.put(("done", wid, telemetry(True)))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def _ingest(wid: int, tele: dict[str, Any], dispatch_id: int,
            led: ledger_mod.Ledger | None, result_bytes: int = 0) -> None:
    """Merge one worker message's telemetry into the parent registries:
    counter diffs, histograms, trace records (one :func:`obs.ingest` call,
    re-rooted under the dispatch span and shifted by the worker's trace
    epoch) and ledger stamps, sharing ``result_bytes`` among them."""
    perf.merge(tele.get("perf", {}))
    for name, data in tele.get("hists", {}).items():
        metrics.record_histogram(name, metrics.Histogram.from_dict(data))
    if tele.get("lines") and obs.is_enabled():
        import json

        obs.ingest([json.loads(ln) for ln in tele["lines"]],
                   t_offset=tele["epoch"] - obs.origin_epoch(),
                   parent_span=dispatch_id, proc=wid)
    if led is not None:
        stamps = tele.get("t", ())
        for idx, t0, t1 in stamps:
            led.record_exec(idx, wid, t0, t1,
                            result_bytes=result_bytes // len(stamps))


def _next_message(result_q: Any, procs: list[Any]) -> tuple:
    """One message off the result queue, watching worker liveness so a
    crashed worker (OOM kill, segfault) raises instead of hanging."""
    import queue

    while True:
        try:
            return result_q.get(timeout=1.0)
        except queue.Empty:
            dead = [p for p in procs if not p.is_alive()
                    and p.exitcode not in (0, None)]
            if dead:
                raise ParallelError(
                    f"worker {dead[0].name} died with exit code "
                    f"{dead[0].exitcode}")


def _run_pool(worker_ref: str, payload: Any, units: list[Any],
              labels: list[str] | None, jobs: int, label: str,
              led: ledger_mod.Ledger | None) -> list[Any]:
    """Run every unit through ``jobs`` fresh worker processes; results in
    unit order.  The parent bumps the ``parallel.units_done`` /
    ``parallel.units_total`` gauges (the heartbeat's ``shards d/t``) and
    emits one ``parallel.chunk_done`` trace event per chunk."""
    import multiprocessing as mp
    import pickle

    dispatch = obs.current()
    dispatch_id = dispatch.id if dispatch is not None else 0
    tasks = []
    for chunk in chunk_units(len(units), jobs):
        task = pickle.dumps(
            (dispatch_id, [(i, units[i], labels[i] if labels else None)
                           for i in chunk]), pickle.HIGHEST_PROTOCOL)
        tasks.append(task)
        if led is not None:
            for i in chunk:
                led.submit(i, label=labels[i] if labels else None,
                           task_bytes=len(task) // len(chunk))
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                         else "spawn")
    task_q, result_q = ctx.Queue(), ctx.Queue()
    flags = {"perf": perf.is_enabled(), "trace": obs.is_enabled(),
             "metrics": metrics.is_enabled(), "label": label,
             "ledger": led is not None}
    procs = [ctx.Process(target=_worker_main,
                         args=(wid, worker_ref, payload, flags, task_q,
                               result_q),
                         daemon=True, name=f"repro-worker-{wid}")
             for wid in range(jobs)]
    for p in procs:
        p.start()
    for task in tasks + [None] * jobs:
        task_q.put(task)
    total = len(units)
    metrics.set_gauge(GAUGE_TOTAL, total)
    metrics.set_gauge(GAUGE_DONE, 0)
    results: dict[int, Any] = {}
    try:
        running = jobs
        while running:
            msg = _next_message(result_q, procs)
            kind, wid = msg[0], msg[1]
            if kind == "chunk":
                _ingest(wid, msg[3], dispatch_id, led, len(msg[2]))
                # One unpickler for the chunk: its records share one memo.
                reader = io.BytesIO(msg[2])
                unpickler = pickle.Unpickler(reader)
                while reader.tell() < len(msg[2]):
                    idx, value = unpickler.load()
                    results[idx] = value
                metrics.set_gauge(GAUGE_DONE, len(results))
                obs.event("parallel.chunk_done", worker=wid,
                          done=len(results), total=total, label=label)
                continue
            _ingest(wid, msg[-1], dispatch_id, led)
            running -= 1
            # A factory error once every result is in loses nothing.
            if kind == "error" and len(results) < total:
                idx, (tb, summary) = msg[2], msg[3]
                if led is not None:
                    led.mark_error(idx, wid)
                    led.finish()
                    led.flush()
                obs.event("parallel.worker_error", worker=wid, unit=idx,
                          error=summary, traceback=tb)
                raise ParallelError(
                    f"worker {wid} failed on unit {idx}: {summary}",
                    remote_traceback=tb)
    except BaseException:
        for p in procs:
            p.terminate()
        raise
    finally:
        for p in procs:
            p.join(timeout=10.0)
            if p.is_alive():  # pragma: no cover - wedged worker
                p.terminate()
                p.join(timeout=5.0)
    return [results[i] for i in range(total)]


def _run_serial(worker_ref: str, payload: Any, units: list[Any],
                labels: list[str] | None, label: str,
                led: ledger_mod.Ledger | None) -> list[Any]:
    """The in-process path (jobs=1 or a single unit): same factory, unit
    spans and ledger accounting as the workers run."""
    fn = _resolve_ref(worker_ref)(payload)
    out: list[Any] = []
    for i, unit in enumerate(units):
        unit_label = labels[i] if labels else None
        t0 = time.time()
        if led is not None:
            led.submit(i, label=unit_label, t=t0)
        out.append(_run_unit(fn, label, i, unit, unit_label))
        if led is not None:
            led.record_exec(i, 0, t0, time.time())
    return out


def run_sharded(worker_ref: str, payload: Any, units: Sequence[Any], *,
                jobs: int | None = None, label: str = "parallel",
                unit_labels: Sequence[str] | None = None) -> list[Any]:
    """Fan ``units`` out over fresh worker processes; results in unit order.

    ``worker_ref`` is a ``"module:attribute"`` path to a module-level
    *factory*: ``factory(payload) -> (unit -> result)``.  The factory runs
    once per worker (and once in-process for the ``jobs=1`` serial path);
    its return value is the per-unit function.  Payload, units and results
    must pickle; everything else is rebuilt worker-side by the factory.
    ``unit_labels`` optionally gives units human-readable names (file,
    prefix, batch) that show up in unit spans and the work ledger.
    """
    units = list(units)
    labels = list(unit_labels) if unit_labels is not None else None
    jobs = resolve_jobs(jobs)
    # Ledger accounting rides on any observability channel being up.
    observing = perf.is_enabled() or obs.is_enabled() or metrics.is_enabled()
    with obs.span(f"{label}.sharded", units=len(units), jobs=jobs) as sp:
        if jobs <= 1 or len(units) <= 1:
            led = ledger_mod.Ledger(label, 1) if observing else None
            out = _run_serial(worker_ref, payload, units, labels, label, led)
        else:
            led = ledger_mod.Ledger(label, jobs) if observing else None
            out = _run_pool(worker_ref, payload, units, labels, jobs, label,
                            led)
        if led is not None:
            led.finish()
            summary = led.flush()
        if sp is not None:
            sp.attrs["completed"] = len(out)
            if led is not None:
                for key in ("utilization_pct", "busy_seconds",
                            "task_bytes", "result_bytes"):
                    sp.attrs[key] = summary[key]
    perf.merge({"sharded_runs": 1, "units": len(out)}, prefix="parallel.")
    return out
