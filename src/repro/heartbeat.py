"""Background progress heartbeat for long-running analyses.

The paper's evaluation phases — CDCL solves that spin for minutes, MTBDD
fixpoints whose unique tables balloon — are opaque while they run.  The
:class:`Heartbeat` fixes that with a daemon sampler thread that, every
``period`` seconds:

* snapshots the :mod:`repro.perf` counters and :mod:`repro.metrics` gauges
  (live solver/simulator/BDD state, sampled via registered providers);
* computes **rates** from the deltas since the previous tick
  (``sat.conflicts_per_sec``, ``sim.activations_per_sec``,
  ``bdd.apply_ops_per_sec``, ...);
* emits a ``progress`` event into the :mod:`repro.obs` trace timeline, so a
  ``--trace-json`` file interleaves heartbeats with the run's spans;
* labels the sample with the run's current phase — the innermost open
  :mod:`repro.obs` span of the thread that started the heartbeat, else
  ``label`` (the CLI turns span recording on with the heartbeat);
* optionally renders a one-line status to stderr (``--progress``);
* warns (once) when the heartbeat's overall wall-time ``budget`` is
  exceeded.

On SIGINT the heartbeat dumps the **partial** trace (open spans flushed via
``obs.flush_partial``) and a partial metrics snapshot before the default
``KeyboardInterrupt`` machinery runs, so a killed multi-minute solve still
leaves an analysable record — exactly the "know where state explosion
happens while it happens" discipline of the fast symbolic engines in
PAPERS.md.

The thread only exists while a heartbeat is started; the disabled-mode cost
of this module is zero (nothing imports it on the hot path).
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, TextIO

from . import metrics, obs, perf

#: Counter/gauge names whose per-second rates are derived each tick.
RATE_KEYS: tuple[str, ...] = (
    "sat.conflicts", "sat.decisions", "sat.propagations",
    "sim.activations", "sim.messages",
    "bdd.apply_ops", "bdd.op_ops", "bdd.nodes",
)

#: Gauges surfaced verbatim on progress events / the status line.
STATUS_GAUGES: tuple[str, ...] = (
    "sat.learnts", "sat.clause_db", "sat.trail",
    "sim.worklist_depth", "sim.interned_routes",
    "bdd.nodes", "bdd.op_cache_entries",
    "parallel.units_done", "parallel.units_total",
    "proc.rss_bytes",
)


def _fmt_count(v: float) -> str:
    if v >= 1e9:
        return f"{v / 1e9:.1f}G"
    if v >= 1e6:
        return f"{v / 1e6:.1f}M"
    if v >= 1e3:
        return f"{v / 1e3:.1f}k"
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.2f}"
    return str(int(v))


class Heartbeat:
    """Periodic sampler of the live metrics registry.

    Use as a context manager or via :meth:`start`/:meth:`stop`.  ``stop``
    always emits one final tick, so even sub-period runs record at least one
    ``progress`` event.
    """

    def __init__(self, period: float = 1.0, *, progress: bool = False,
                 stream: TextIO | None = None, label: str = "run",
                 budget: float | None = None,
                 metrics_json: str | Path | None = None,
                 install_sigint: bool = False,
                 on_tick: Callable[[dict[str, Any]], None] | None = None
                 ) -> None:
        self.period = max(0.005, float(period))
        self.progress = progress
        self.stream = stream
        self.label = label
        self.budget = budget
        self.metrics_json = metrics_json
        self.install_sigint = install_sigint
        self.on_tick = on_tick
        self.ticks = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._t0 = 0.0
        #: The thread whose innermost open span labels each sample (the
        #: one that called :meth:`start`; ``None``: the ticking thread).
        self._owner: int | None = None
        self._prev: dict[str, float] = {}
        self._prev_t = 0.0
        self._budget_warned = False
        self._dumped = False
        self._prev_sigint: Any = None
        self._status_open = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "Heartbeat":
        if self._thread is not None:
            return self
        self._t0 = time.monotonic()
        self._owner = threading.get_ident()
        self._prev_t = self._t0
        self._prev = self._numbers()
        self._stop.clear()
        if self.install_sigint and threading.current_thread() is threading.main_thread():
            self._prev_sigint = signal.getsignal(signal.SIGINT)
            signal.signal(signal.SIGINT, self._on_sigint)
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-heartbeat")
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=max(1.0, 4 * self.period))
        self._thread = None
        self.tick(final=True)
        if self._status_open:
            stream = self.stream or sys.stderr
            try:
                stream.write("\n")
                stream.flush()
            except (ValueError, OSError):  # pragma: no cover - closed stream
                pass
            self._status_open = False
        if self._prev_sigint is not None:
            try:
                signal.signal(signal.SIGINT, self._prev_sigint)
            except (ValueError, TypeError):  # pragma: no cover
                pass
            self._prev_sigint = None

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            try:
                self.tick()
            except Exception:  # pragma: no cover - sampler must never kill a run
                pass

    def _numbers(self) -> dict[str, float]:
        """The merged numeric view: perf counters overlaid with live gauges
        (fresher while a subsystem is mid-flight)."""
        merged: dict[str, float] = {}
        for k, v in perf.snapshot().items():
            merged[k] = float(v)
        gauges, _ = metrics.sample()
        # Derived op totals so rate keys exist even pre-flush.
        merged.update(gauges)
        return merged

    def tick(self, final: bool = False) -> dict[str, Any]:
        """One heartbeat sample: compute rates, emit the ``progress`` event,
        update the status line, check the budget.  Returns the sample dict."""
        now = time.monotonic()
        dt = max(1e-9, now - self._prev_t)
        elapsed = now - self._t0
        gauges, hists = metrics.sample()
        numbers: dict[str, float] = {}
        for k, v in perf.snapshot().items():
            numbers[k] = float(v)
        numbers.update(gauges)

        rates: dict[str, float] = {}
        for key in RATE_KEYS:
            cur = numbers.get(key)
            if cur is None:
                continue
            delta = cur - self._prev.get(key, 0.0)
            if delta < 0:  # registry reset mid-run; restart the window
                delta = 0.0
            rates[key + "_per_sec"] = round(delta / dt, 3)

        ph = obs.current(self._owner)
        sample: dict[str, Any] = {
            "phase": ph.name if ph else self.label,
            "elapsed": round(elapsed, 3),
            "tick": self.ticks,
        }
        if final:
            sample["final"] = True
        sample.update(rates)
        for key in STATUS_GAUGES:
            if key in gauges:
                sample[key] = gauges[key]
        for name, hist in hists.items():
            sample[name] = [[le, c] for le, c in hist.buckets()]

        obs.event("progress", **sample)
        if self.on_tick is not None:
            self.on_tick(sample)
        self._check_budget(elapsed)
        if self.progress:
            self._render_status(sample, elapsed)

        self._prev = numbers
        self._prev_t = now
        self.ticks += 1
        return sample

    # ------------------------------------------------------------------
    # Budget and status line
    # ------------------------------------------------------------------

    def _check_budget(self, elapsed: float) -> None:
        if self.budget is not None and elapsed > self.budget \
                and not self._budget_warned:
            self._budget_warned = True
            obs.event("progress.budget_exceeded", phase=self.label,
                      elapsed=round(elapsed, 3), budget=self.budget)
            stream = self.stream or sys.stderr
            self._end_status(stream)
            print(f"[heartbeat] warning: {self.label} exceeded its "
                  f"{self.budget:.1f}s wall-time budget", file=stream)

    def _render_status(self, sample: dict[str, Any], elapsed: float) -> None:
        stream = self.stream or sys.stderr
        parts = [f"[{sample['phase']}] {elapsed:6.1f}s"]
        for key, label in (("sat.conflicts_per_sec", "conflicts/s"),
                           ("sim.activations_per_sec", "activations/s"),
                           ("bdd.apply_ops_per_sec", "apply/s")):
            v = sample.get(key)
            if v:
                parts.append(f"{label} {_fmt_count(v)}")
        for key, label in (("sat.learnts", "learnts"),
                           ("sim.worklist_depth", "worklist"),
                           ("bdd.nodes", "bdd-nodes")):
            v = sample.get(key)
            if v is not None:
                parts.append(f"{label} {_fmt_count(v)}")
        total = sample.get("parallel.units_total")
        if total:
            done = sample.get("parallel.units_done", 0)
            parts.append(f"shards {int(done)}/{int(total)}")
        rss = sample.get("proc.rss_bytes")
        if rss:
            parts.append(f"rss {rss / (1 << 20):.0f}MB")
        line = " | ".join(parts)
        try:
            if stream.isatty():
                stream.write("\r" + line + "\x1b[K")
                self._status_open = True
            else:
                stream.write(line + "\n")
            stream.flush()
        except (ValueError, OSError):  # pragma: no cover - closed stream
            pass

    def _end_status(self, stream: TextIO) -> None:
        if self._status_open:
            try:
                stream.write("\n")
            except (ValueError, OSError):  # pragma: no cover
                pass
            self._status_open = False

    # ------------------------------------------------------------------
    # SIGINT partial dump
    # ------------------------------------------------------------------

    def dump_partial(self) -> None:
        """Flush open spans into the trace sink and write a partial metrics
        snapshot.  Idempotent (SIGINT handler and CLI both call it)."""
        if self._dumped:
            return
        self._dumped = True
        obs.flush_partial()
        if self.metrics_json is not None:
            try:
                metrics.write_json(self.metrics_json, partial=True)
            except OSError:  # pragma: no cover - unwritable dump path
                pass

    def _on_sigint(self, signum: int, frame: Any) -> None:
        stream = self.stream or sys.stderr
        self._end_status(stream)
        print("[heartbeat] interrupted — dumping partial trace/metrics",
              file=stream)
        self._stop.set()
        self.dump_partial()
        prev = self._prev_sigint
        if callable(prev):
            prev(signum, frame)
        else:  # pragma: no cover - SIG_DFL/SIG_IGN fallbacks
            raise KeyboardInterrupt
