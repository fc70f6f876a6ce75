"""Per-unit work attribution for the parallel engine (``repro.ledger``).

The process pool tells us *that* a sharded analysis finished; this module
answers *where its wall-clock went*.  Each work unit that passes through
:func:`repro.parallel.run_sharded` gets one :class:`UnitRecord` tracking
its lifecycle — submitted → queued → pickled (task bytes) → executing on a
worker → result bytes back → ingested — and the :class:`Ledger` aggregates
the records into the pool-level accounting the ROADMAP's scaling claims
need: utilization (busy vs idle worker time), queue-wait distribution,
serialization overhead, and the LPT lower bound on makespan (how close the
dynamic chunk queue came to the best possible schedule for the observed
unit durations).

The summary is published through every observability channel at once:

* ``obs.event("parallel.ledger", ...)`` — one event in the trace, rendered
  as its own section by ``repro report``;
* gauges (``parallel.utilization_pct``, ``parallel.task_bytes``, ...) and
  histograms (``parallel.queue_wait_seconds``, ``parallel.unit_seconds``)
  in :mod:`repro.metrics`, exported by ``--metrics-json`` / ``--prometheus``;
* one deterministic perf counter (``parallel.ledger_units``) so the
  parallel-equivalence gate can assert the ledger covered the shard plan.

Unit timestamps are wall-clock (``time.time()``) epochs: workers live on
the same host, so epochs are directly comparable across the process
boundary without the per-worker skew handling trace timelines need.
"""

from __future__ import annotations

import time
from typing import Any

from . import metrics, obs, perf
from ._struct import field, struct

#: Gauge/histogram/counter names the ledger publishes.
GAUGE_UTILIZATION = "parallel.utilization_pct"
GAUGE_TASK_BYTES = "parallel.task_bytes"
GAUGE_RESULT_BYTES = "parallel.result_bytes"
GAUGE_BUSY_SECONDS = "parallel.busy_seconds"
GAUGE_IDLE_SECONDS = "parallel.idle_seconds"
GAUGE_LPT_GAP = "parallel.lpt_gap_pct"
HIST_QUEUE_WAIT = "parallel.queue_wait_seconds"
HIST_UNIT_SECONDS = "parallel.unit_seconds"
COUNTER_UNITS = "ledger_units"  # perf counter, merged under "parallel."


@struct
class UnitRecord:
    """Lifecycle of one work unit through the pool."""

    unit: int
    label: str | None = None
    worker: int = -1            # -1 until a worker reports execution
    t_submitted: float = 0.0    # epoch seconds at enqueue
    t_started: float = 0.0      # epoch seconds the worker began the unit
    t_finished: float = 0.0     # epoch seconds the worker finished it
    task_bytes: int = 0         # this unit's share of its chunk's pickle
    result_bytes: int = 0       # this unit's share of the result pickle
    status: str = "submitted"   # submitted | done | error | lost

    @property
    def queue_wait(self) -> float:
        """Seconds between enqueue and a worker picking the unit up."""
        if self.t_started <= 0.0 or self.t_submitted <= 0.0:
            return 0.0
        return max(0.0, self.t_started - self.t_submitted)

    @property
    def exec_seconds(self) -> float:
        """Seconds the unit spent executing on its worker."""
        if self.t_finished <= 0.0 or self.t_started <= 0.0:
            return 0.0
        return max(0.0, self.t_finished - self.t_started)


class Ledger:
    """Collects :class:`UnitRecord` entries for one sharded run and
    aggregates them into the pool-level summary.  Parent-side only: workers
    report raw per-unit timestamps (in chunk metadata), the parent owns the
    bookkeeping."""

    def __init__(self, label: str = "parallel", workers: int = 1) -> None:
        self.label = label
        self.workers = max(1, int(workers))
        self.units: dict[int, UnitRecord] = {}
        self.t0 = time.time()
        self.t1: float | None = None

    # -- recording -----------------------------------------------------

    def submit(self, unit: int, *, label: str | None = None,
               task_bytes: int = 0, t: float | None = None) -> UnitRecord:
        rec = UnitRecord(unit=unit, label=label, task_bytes=task_bytes,
                         t_submitted=time.time() if t is None else t)
        self.units[unit] = rec
        return rec

    def record_exec(self, unit: int, worker: int, t_started: float,
                    t_finished: float, result_bytes: int = 0) -> None:
        """A worker reported executing ``unit`` (epoch timestamps)."""
        rec = self.units.get(unit)
        if rec is None:
            rec = self.units[unit] = UnitRecord(unit=unit)
        rec.worker = worker
        rec.t_started = t_started
        rec.t_finished = t_finished
        rec.result_bytes = result_bytes
        rec.status = "done"

    def mark_error(self, unit: int, worker: int) -> None:
        rec = self.units.get(unit)
        if rec is None:
            rec = self.units[unit] = UnitRecord(unit=unit)
        rec.worker = worker
        rec.status = "error"

    def finish(self) -> None:
        """Close the accounting window; units never executed become
        ``lost`` (their worker died or the round was aborted)."""
        self.t1 = time.time()
        for rec in self.units.values():
            if rec.status == "submitted":
                rec.status = "lost"

    # -- aggregation ---------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Scalar aggregate of the round — the ``parallel.ledger`` event
        payload (every value JSON-safe)."""
        t1 = self.t1 if self.t1 is not None else time.time()
        window = max(0.0, t1 - self.t0)
        recs = list(self.units.values())
        done = [r for r in recs if r.status == "done"]
        busy = sum(r.exec_seconds for r in done)
        waits = [r.queue_wait for r in done]
        durs = [r.exec_seconds for r in done]
        longest = max(durs) if durs else 0.0
        # LPT-style lower bound on makespan for the observed unit durations:
        # no schedule on `workers` machines beats max(longest unit, total
        # work / workers).  The gap between the observed window and this
        # bound is schedule overhead the chunk queue could still reclaim.
        lpt_bound = max(longest, busy / self.workers) if done else 0.0
        capacity = self.workers * window
        summary: dict[str, Any] = {
            "label": self.label,
            "workers": self.workers,
            "units": len(recs),
            "units_done": len(done),
            "units_error": sum(1 for r in recs if r.status == "error"),
            "units_lost": sum(1 for r in recs if r.status == "lost"),
            "window_seconds": round(window, 6),
            "busy_seconds": round(busy, 6),
            "idle_seconds": round(max(0.0, capacity - busy), 6),
            "utilization_pct": round(100.0 * busy / capacity, 2)
            if capacity > 0 else 0.0,
            "queue_wait_max_seconds": round(max(waits), 6) if waits else 0.0,
            "queue_wait_mean_seconds": round(sum(waits) / len(waits), 6)
            if waits else 0.0,
            "longest_unit_seconds": round(longest, 6),
            "lpt_bound_seconds": round(lpt_bound, 6),
            "task_bytes": sum(r.task_bytes for r in recs),
            "result_bytes": sum(r.result_bytes for r in recs),
        }
        if lpt_bound > 0:
            summary["lpt_gap_pct"] = round(
                100.0 * (window - lpt_bound) / lpt_bound, 2)
        return summary

    # -- publishing ----------------------------------------------------

    def flush(self) -> dict[str, Any]:
        """Publish the round's accounting into the live registries and the
        trace; returns the summary dict (also attached to the dispatching
        span by :func:`repro.parallel.run_sharded`)."""
        summary = self.summary()
        perf.merge({COUNTER_UNITS: summary["units_done"]},
                   prefix="parallel.")
        if metrics.is_enabled():
            metrics.set_gauge(GAUGE_UTILIZATION, summary["utilization_pct"])
            metrics.set_gauge(GAUGE_BUSY_SECONDS, summary["busy_seconds"])
            metrics.set_gauge(GAUGE_IDLE_SECONDS, summary["idle_seconds"])
            metrics.set_gauge(GAUGE_TASK_BYTES, summary["task_bytes"])
            metrics.set_gauge(GAUGE_RESULT_BYTES, summary["result_bytes"])
            if "lpt_gap_pct" in summary:
                metrics.set_gauge(GAUGE_LPT_GAP, summary["lpt_gap_pct"])
            for rec in self.units.values():
                if rec.status != "done":
                    continue
                metrics.observe(HIST_QUEUE_WAIT, rec.queue_wait)
                metrics.observe(HIST_UNIT_SECONDS, rec.exec_seconds)
        obs.event("parallel.ledger", **summary)
        return summary
