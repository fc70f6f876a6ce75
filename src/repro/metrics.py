"""Live metrics: typed instruments, structural gauges, and exporters.

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
  (``/proc/self/statm`` with a ``resource`` fallback) and, when
  ``tracemalloc`` is tracing, the current/peak traced heap.  Per-span
  high-water marks live in :mod:`repro.obs` (``obs.track_memory``).

Phases (:func:`phase`) name the currently-running long operation *across
threads* — unlike ``obs.current()``, whose span stacks are thread-local —
so the background heartbeat (:mod:`repro.heartbeat`) can label its samples
and enforce per-phase wall-time budgets.

Exporters: :func:`to_prometheus` renders a snapshot in the Prometheus text
exposition format; :func:`to_json`/:func:`write_json` dump the combined
counters + gauges + histograms snapshot for ``repro report``.

Design rules (mirroring ``repro.perf``/``repro.obs``, enforced by
``tests/test_metrics.py``): near-zero overhead when disabled — every entry
point is a single module-global boolean check, and subsystems only register
providers when the registry is enabled at their construction/run time.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from . import perf

if TYPE_CHECKING:
    from pathlib import Path

_enabled: bool = False
_lock = threading.RLock()
_origin: float = 0.0
_gauges: dict[str, float] = {}
_hists: dict[str, "Histogram"] = {}
#: name -> provider callable; a provider returning ``None`` is dropped.
_providers: dict[str, Callable[[], Mapping[str, Any] | None]] = {}
#: Stack of (name, t0, budget_seconds, warned_flag_list) phase frames.
_phases: list[list[Any]] = []


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------

class Histogram:
    """A log2-bucketed histogram of non-negative values.

    Bucket ``i`` counts observations ``v`` with ``bound(i-1) < v <=
    bound(i)`` where ``bound(i) = 2**i`` (bucket 0 is ``v <= 1``).  Sixty
    buckets cover every int64-sized observation, so the memory cost is
    constant and the exporters never need dynamic bucket negotiation —
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
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style."""
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, sum={self.sum})"


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

def enable(memory: bool = False) -> None:
    """Turn the metrics registry on.  ``memory=True`` additionally starts
    ``tracemalloc`` so heap gauges and per-span high-water marks become
    available (a real cost — only request it when you want it)."""
    global _enabled, _origin
    _origin = time.time()
    _enabled = True
    if memory:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()


def disable(stop_memory: bool = True) -> None:
    global _enabled
    _enabled = False
    if stop_memory and (tracemalloc := _live_tracemalloc()) is not None:
        tracemalloc.stop()


def _live_tracemalloc() -> Any:
    """The ``tracemalloc`` module while it is tracing, else ``None``.  Tracing
    starts through the module, so a process that never imported it (every
    untraced run, every worker of one) is not tracing and does not load it."""
    if "tracemalloc" in sys.modules:
        import tracemalloc

        if tracemalloc.is_tracing():
            return tracemalloc
    return None


def is_enabled() -> bool:
    return _enabled


@contextmanager
def enabled(on: bool = True, memory: bool = False) -> Iterator[None]:
    """Context manager: set the enabled state, restoring on exit."""
    global _enabled
    prev = _enabled
    if on:
        enable(memory=memory)
    else:
        _enabled = False
    try:
        yield
    finally:
        _enabled = prev
        if memory and not prev and (tracemalloc := _live_tracemalloc()) is not None:
            tracemalloc.stop()


def reset() -> None:
    """Drop all gauges, histograms, providers and phases (enabled state
    unchanged)."""
    with _lock:
        _gauges.clear()
        _hists.clear()
        _providers.clear()
        _phases.clear()


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
    """Process memory gauges: current RSS plus (when tracing) tracemalloc's
    current and peak traced-heap sizes."""
    out: dict[str, float] = {}
    rss = _read_rss_bytes()
    if rss is not None:
        out["proc.rss_bytes"] = rss
    tracemalloc = _live_tracemalloc()
    if tracemalloc is not None:
        cur, peak = tracemalloc.get_traced_memory()
        out["mem.traced_bytes"] = cur
        out["mem.traced_peak_bytes"] = peak
    return out


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
# Phases
# ----------------------------------------------------------------------

@contextmanager
def phase(name: str, budget_seconds: float | None = None) -> Iterator[None]:
    """Name the long-running operation currently in flight (visible from any
    thread, unlike ``obs`` spans).  ``budget_seconds`` arms a wall-time
    budget the heartbeat warns about when exceeded.  No-op when disabled."""
    if not _enabled:
        yield
        return
    frame = [name, time.monotonic(), budget_seconds, False]
    with _lock:
        _phases.append(frame)
    try:
        yield
    finally:
        with _lock:
            if frame in _phases:
                _phases.remove(frame)


def current_phase() -> tuple[str, float, float | None, bool] | None:
    """The innermost open phase: ``(name, elapsed_seconds, budget, warned)``
    or ``None``."""
    with _lock:
        if not _phases:
            return None
        name, t0, budget, warned = _phases[-1]
        return name, time.monotonic() - t0, budget, warned


def mark_phase_warned() -> None:
    """Record that the innermost phase's budget warning has been emitted
    (the heartbeat warns once per phase)."""
    with _lock:
        if _phases:
            _phases[-1][3] = True


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
    ph = current_phase()
    return {
        "time": time.time(),
        "elapsed_seconds": round(time.time() - _origin, 6) if _origin else 0.0,
        "phase": ph[0] if ph else None,
        "counters": perf.snapshot(),
        "gauges": gauges,
        "histograms": {name: h.to_dict() for name, h in hists.items()},
    }


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def _prom_name(name: str, prefix: str = "nv_") -> str:
    out = [c if (c.isalnum() or c == "_") else "_" for c in name]
    base = prefix + "".join(out)
    if base and base[0].isdigit():  # pragma: no cover - defensive
        base = "_" + base
    return base


def _prom_num(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def _esc_help(text: str) -> str:
    """Escape HELP docstring text per the 0.0.4 exposition format:
    backslash and line feed only (quotes are NOT escaped in HELP)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _esc_label(value: str) -> str:
    """Escape a label value per the 0.0.4 exposition format: backslash,
    double-quote, and line feed."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def to_prometheus(snap: Mapping[str, Any] | None = None) -> str:
    """Render a snapshot in the Prometheus text exposition format (0.0.4).

    Perf counters become ``counter`` samples, gauges become ``gauge``
    samples, histograms become the standard ``_bucket``/``_sum``/``_count``
    triple with cumulative ``le`` labels.  Metric names are sanitised by
    :func:`_prom_name`; the raw (unsanitised) name rides along in the HELP
    text and so must be escaped per the spec (0.0.4: ``\\`` and newline in
    HELP, plus ``"`` in label values) — NV identifiers can contain quotes
    and backslashes via record projections and symbolic names.
    """
    if snap is None:
        snap = snapshot()
    lines: list[str] = []
    for name, value in sorted(snap.get("counters", {}).items()):
        pname = _prom_name(name)
        kind = "counter"
        lines.append(f"# HELP {pname} repro.perf counter {_esc_help(name)}")
        lines.append(f"# TYPE {pname} {kind}")
        lines.append(f"{pname} {_prom_num(value)}")
    for name, value in sorted(snap.get("gauges", {}).items()):
        pname = _prom_name(name)
        lines.append(f"# HELP {pname} repro.metrics gauge {_esc_help(name)}")
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_prom_num(value)}")
    for name, hist in sorted(snap.get("histograms", {}).items()):
        data = hist.to_dict() if isinstance(hist, Histogram) else hist
        pname = _prom_name(name)
        lines.append(f"# HELP {pname} repro.metrics histogram {_esc_help(name)}")
        lines.append(f"# TYPE {pname} histogram")
        for le, cum in data.get("buckets", []):
            lines.append(
                f'{pname}_bucket{{le="{_esc_label(_prom_num(le))}"}} {cum}')
        lines.append(f'{pname}_bucket{{le="+Inf"}} {data.get("count", 0)}')
        lines.append(f"{pname}_sum {data.get('sum', 0.0)}")
        lines.append(f"{pname}_count {data.get('count', 0)}")
    return "\n".join(lines) + "\n"


def to_json(snap: Mapping[str, Any] | None = None, *,
            partial: bool = False) -> str:
    if snap is None:
        snap = snapshot()
    out = dict(snap)
    if partial:
        out["partial"] = True
    import json

    return json.dumps(out, indent=2, sort_keys=True, default=repr) + "\n"


def _write_text(path: str | os.PathLike[str], text: str) -> Path:
    from pathlib import Path

    p = Path(path)
    p.write_text(text, encoding="utf-8")
    return p


def write_json(path: str | os.PathLike[str],
               snap: Mapping[str, Any] | None = None, *,
               partial: bool = False) -> Path:
    return _write_text(path, to_json(snap, partial=partial))


def write_prometheus(path: str | os.PathLike[str],
                     snap: Mapping[str, Any] | None = None) -> Path:
    return _write_text(path, to_prometheus(snap))
