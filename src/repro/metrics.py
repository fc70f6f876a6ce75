"""Live metrics: typed instruments, structural gauges, and the run's snapshot.

:mod:`repro.perf` (PR 1) answers *how much work was done* after a run;
:mod:`repro.obs` (PR 2) answers *where the time went* after a run.  This
module is the **live** half of the observability stack: it can answer those
questions *while* a CDCL solve spins for minutes or an MTBDD fixpoint's
unique table balloons — the in-flight visibility the paper's long-running
evaluation phases (§6, figs 12-14) otherwise lack.

Three instrument kinds:

* **Gauges** — instantaneous values (``bdd.nodes``, ``sim.worklist_depth``).
  Set directly with :func:`set_gauge`, or — the common case — sampled on
  demand from a *provider*: a callable registered by a live subsystem
  (:func:`register_provider`) that reports its current structural state
  (SAT clause-DB size, interner population, worklist depth) each time
  :func:`sample` runs.  Providers registered with
  :func:`register_weak_provider` hold their subject weakly and vanish with
  it, so a ``BddManager`` can self-register without keeping itself alive.
* **Histograms** — log2-bucketed distributions (:class:`Histogram`), e.g.
  the learnt-clause LBD ("glue") distribution of a running SAT solve.
  Providers may return histograms; code can also :func:`observe` into a
  named registry histogram.
* **Memory** — :func:`memory_gauges` reports the process RSS
  (``/proc/self/statm`` with a ``resource`` fallback).

**Kernel telemetry** rides on the same switch: :func:`flush_kernel`, called
next to the analysis drivers' ``perf.merge(manager.stats(), ...)``, adds
the BDD manager's table-size profile (``bdd.table_*`` counters, the
``bdd.table_entries`` histogram) and the compiled evaluator's per-call-site
``memo.*`` counters, and the CDCL solver records its restart-interval
histograms (``sat.interval_*``) — whenever the registry is enabled.  The
BDD hot paths never look at the switch: sizes are read at flush time.

A snapshot's ``phase`` is the innermost open :mod:`repro.obs` span of the
main thread (spans are the phases).

The run's record: :func:`write_snapshot` appends the combined counters +
gauges + histograms :func:`snapshot` to the ``--trace-json`` stream as its
last record, ``{"type": "snapshot", ...}``, which ``repro report`` reads.

Design rules (mirroring ``repro.perf``/``repro.obs``, enforced by
``tests/test_metrics.py``): near-zero overhead when disabled — every entry
point is a single module-global boolean check, and subsystems only register
providers when the registry is enabled at their construction/run time.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping

from . import obs, perf

_enabled: bool = False
_lock = threading.RLock()
_origin: float = 0.0
_gauges: dict[str, float] = {}
_hists: dict[str, "Histogram"] = {}
#: name -> provider callable; a provider returning ``None`` is dropped.
_providers: dict[str, Callable[[], Mapping[str, Any] | None]] = {}


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------

class Histogram:
    """A log2-bucketed histogram of non-negative values.

    Bucket ``i`` counts observations ``v`` with ``bound(i-1) < v <=
    bound(i)`` where ``bound(i) = 2**i`` (bucket 0 is ``v <= 1``).  Sixty
    buckets cover every int64-sized observation, so the memory cost is
    constant and a reader never needs dynamic bucket negotiation —
    the same trick KATch-style symbolic engines use for their structural
    size metrics.
    """

    __slots__ = ("counts", "count", "sum")

    MAX_BUCKETS = 64

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0

    @staticmethod
    def bucket_of(value: float) -> int:
        if value <= 1:
            return 0
        return int(value - 1).bit_length() if float(value).is_integer() \
            else _float_bucket(value)

    def observe(self, value: float) -> None:
        b = self.bucket_of(value)
        self.counts[b] = self.counts.get(b, 0) + 1
        self.count += 1
        self.sum += value

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "Histogram":
        h = cls()
        h.observe_many(values)
        return h

    def merge(self, other: "Histogram") -> None:
        for b, c in other.counts.items():
            self.counts[b] = self.counts.get(b, 0) + c
        self.count += other.count
        self.sum += other.sum

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs."""
        out: list[tuple[float, int]] = []
        running = 0
        for b in sorted(self.counts):
            running += self.counts[b]
            out.append((float(1 << b), running))
        return out

    def to_dict(self) -> dict[str, Any]:
        return {"buckets": [[le, c] for le, c in self.buckets()],
                "count": self.count, "sum": self.sum}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        h = cls()
        prev = 0
        for le, cum in data.get("buckets", []):
            h.counts[max(0, int(le).bit_length() - 1)] = cum - prev
            prev = cum
        h.count = int(data.get("count", prev))
        h.sum = float(data.get("sum", 0.0))
        return h


def _float_bucket(value: float) -> int:
    b = 0
    bound = 1.0
    while value > bound and b < Histogram.MAX_BUCKETS:
        bound *= 2.0
        b += 1
    return b


# ----------------------------------------------------------------------
# Registry lifecycle
# ----------------------------------------------------------------------

def enable() -> None:
    """Turn the metrics registry on."""
    global _enabled, _origin
    _origin = time.time()
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


@contextmanager
def enabled(on: bool = True) -> Iterator[None]:
    """Context manager: set the enabled state, restoring on exit."""
    global _enabled
    prev = _enabled
    if on:
        enable()
    else:
        _enabled = False
    try:
        yield
    finally:
        _enabled = prev


def reset() -> None:
    """Drop all gauges, histograms and providers (enabled state
    unchanged)."""
    with _lock:
        _gauges.clear()
        _hists.clear()
        _providers.clear()


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------

def set_gauge(name: str, value: float) -> None:
    """Record an instantaneous value.  No-op when disabled."""
    if not _enabled:
        return
    with _lock:
        _gauges[name] = value


def observe(name: str, value: float) -> None:
    """Add one observation to the named registry histogram.  No-op when
    disabled."""
    if not _enabled:
        return
    with _lock:
        h = _hists.get(name)
        if h is None:
            h = _hists[name] = Histogram()
        h.observe(value)


def observe_many(name: str, values: Iterable[float]) -> None:
    if not _enabled:
        return
    with _lock:
        h = _hists.get(name)
        if h is None:
            h = _hists[name] = Histogram()
        h.observe_many(values)


def record_histogram(name: str, hist: Histogram) -> None:
    """Merge a finished histogram (e.g. a solver's final LBD distribution)
    into the registry.  No-op when disabled."""
    if not _enabled:
        return
    with _lock:
        h = _hists.get(name)
        if h is None:
            _hists[name] = hist
        else:
            h.merge(hist)


def register_provider(name: str,
                      fn: Callable[[], Mapping[str, Any] | None]
                      ) -> Callable[[], None]:
    """Register a live gauge provider.  ``fn()`` is called at every
    :func:`sample` and returns a mapping of gauge name to number (or
    :class:`Histogram`); returning ``None`` unregisters it.  The returned
    callable unregisters explicitly (idempotent) — run it in a ``finally``.

    When disabled this is a no-op returning a do-nothing callable, so hot
    subsystems can call it unconditionally at setup time.
    """
    if not _enabled:
        return lambda: None
    with _lock:
        _providers[name] = fn

    def unregister() -> None:
        with _lock:
            if _providers.get(name) is fn:
                del _providers[name]

    return unregister


def register_weak_provider(name: str, obj: Any,
                           fn: Callable[[Any], Mapping[str, Any] | None]
                           ) -> Callable[[], None]:
    """Like :func:`register_provider` but holds ``obj`` weakly: the provider
    silently drops out once ``obj`` is garbage-collected.  Lets long-lived
    structures (a ``BddManager``) self-register without a lifetime pact."""
    if not _enabled:
        return lambda: None
    import weakref

    ref = weakref.ref(obj)

    def sample() -> Mapping[str, Any] | None:
        target = ref()
        if target is None:
            return None
        return fn(target)

    return register_provider(name, sample)


def memory_gauges() -> dict[str, float]:
    """Process memory gauges: the current RSS."""
    rss = _read_rss_bytes()
    return {} if rss is None else {"proc.rss_bytes": rss}


_PAGE_SIZE: int | None = None


def _read_rss_bytes() -> float | None:
    global _PAGE_SIZE
    try:
        with open("/proc/self/statm", "rb") as f:
            fields = f.read().split()
        if _PAGE_SIZE is None:
            import resource
            _PAGE_SIZE = resource.getpagesize()
        return float(int(fields[1]) * _PAGE_SIZE)
    except (OSError, ValueError, IndexError, ImportError):
        try:
            import resource
            # ru_maxrss is KiB on Linux — a high-water mark, better than
            # nothing on platforms without /proc.
            return float(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
        except Exception:  # pragma: no cover - exotic platforms
            return None


# ----------------------------------------------------------------------
# Kernel telemetry
# ----------------------------------------------------------------------

def flush_kernel(manager: Any | None = None) -> None:
    """Flush kernel telemetry: a BDD ``manager``'s table-size profile
    (``bdd.table_*`` counters into :mod:`repro.perf`, the
    ``bdd.table_entries`` histogram here) and the compiled evaluator's
    per-call-site memo attribution (``memo.<site>.calls/hits/misses``
    counters plus a hit-rate histogram), which is taken and cleared.
    No-op when disabled."""
    if not _enabled:
        return
    if manager is not None:
        counters, hists = manager.telemetry()
        perf.merge(counters, prefix="bdd.")
        for name, hist in hists.items():
            record_histogram("bdd." + name, hist)
    # A process that never compiled a program has no call sites to report.
    compile_py = sys.modules.get("repro.eval.compile_py")
    if compile_py is None:
        return
    for site, (calls, hits, misses) in compile_py.take_site_stats().items():
        perf.merge({f"memo.{site}.calls": calls,
                    f"memo.{site}.hits": hits,
                    f"memo.{site}.misses": misses})
        if hits + misses:
            observe("memo.site_hit_rate_pct",
                    round(100.0 * hits / (hits + misses), 3))


# ----------------------------------------------------------------------
# Sampling and snapshots
# ----------------------------------------------------------------------

def sample() -> tuple[dict[str, float], dict[str, Histogram]]:
    """Poll every provider and return ``(gauges, histograms)``.

    Static gauges (:func:`set_gauge`) are included; provider values
    override them on name collision (providers are fresher).  Dead or
    exhausted providers (returning ``None``) are dropped.
    """
    gauges: dict[str, float] = {}
    hists: dict[str, Histogram] = {}
    with _lock:
        gauges.update(_gauges)
        hists.update(_hists)
        providers = list(_providers.items())
    dead: list[str] = []
    for name, fn in providers:
        try:
            values = fn()
        except Exception:  # a dying subsystem must not kill the sampler
            values = None
        if values is None:
            dead.append(name)
            continue
        for key, value in values.items():
            if isinstance(value, Histogram):
                hists[key] = value
            else:
                gauges[key] = value
    if dead:
        with _lock:
            for name in dead:
                _providers.pop(name, None)
    gauges.update(memory_gauges())
    return gauges, hists


def snapshot() -> dict[str, Any]:
    """One combined, JSON-ready snapshot: perf counters, sampled gauges,
    histograms, the current phase, and wall-clock timestamps."""
    gauges, hists = sample()
    ph = obs.current(threading.main_thread().ident)
    return {
        "time": time.time(),
        "elapsed_seconds": round(time.time() - _origin, 6) if _origin else 0.0,
        "phase": ph.name if ph else None,
        "counters": perf.snapshot(),
        "gauges": gauges,
        "histograms": {name: h.to_dict() for name, h in hists.items()},
    }


def write_snapshot(partial: bool = False) -> None:
    """Append :func:`snapshot` to the trace sink as a ``{"type":
    "snapshot", ...}`` record; ``partial`` marks an interrupted run.  The
    CLI writes it once, as the last record of a ``--trace-json`` file."""
    record: dict[str, Any] = {"type": "snapshot", **snapshot()}
    if partial:
        record["partial"] = True
    obs.write(record)
