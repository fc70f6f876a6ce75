"""Lightweight performance counters and timers (``repro.perf``).

The paper's evaluation (§6) rests on two hot paths: the simulation worklist
and the MTBDD engine.  This module gives every layer a *zero-dependency* way
to report work done — cache hits, activations, SAT conflicts — without
polluting return types or paying for instrumentation when it is off.

Design rules (enforced by the unit tests):

* **Near-zero overhead when disabled.**  Hot loops never call into this
  module directly; components accumulate plain local integers and *flush*
  them once per top-level operation via :func:`merge`, which is a no-op when
  disabled.  The only always-on cost is integer attribute increments inside
  the components themselves.
* **Snapshot isolation.**  :func:`snapshot` returns a plain dict copy;
  mutating it (or incrementing counters afterwards) never affects previously
  taken snapshots.
* **Nesting.**  :func:`enabled` is a re-entrant context manager that saves
  and restores the previous enabled state, so analyses can be composed.

Counter naming convention: ``<layer>.<metric>``, e.g. ``sim.activations``,
``bdd.op_cache_hits``, ``sat.conflicts``.  Derived hit rates are computed by
:func:`report` from ``*_hits``/``*_misses`` pairs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

_enabled: bool = False
_counters: dict[str, int] = {}
_timers: dict[str, float] = {}
#: Guards every registry mutation and :func:`snapshot`.  Components flush
#: rarely (once per run), but the heartbeat sampler thread snapshots
#: concurrently — without the lock a ``dict(_counters)`` copy racing a
#: ``merge`` can raise ``RuntimeError: dictionary changed size during
#: iteration``.  The hot paths never touch this lock (they accumulate
#: plain local integers), so the design rule above still holds.
_lock = threading.RLock()


def enable() -> None:
    """Turn the global registry on (counters start accumulating)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn the global registry off (flushes become no-ops)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


@contextmanager
def enabled(on: bool = True) -> Iterator[None]:
    """Context manager: set the enabled state, restoring the previous one on
    exit.  Nests arbitrarily."""
    global _enabled
    prev = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = prev


def reset() -> None:
    """Clear all accumulated counters and timers (enabled state unchanged)."""
    with _lock:
        _counters.clear()
        _timers.clear()


def incr(name: str, n: int = 1) -> None:
    """Add ``n`` to a counter.  No-op when disabled."""
    if _enabled:
        with _lock:
            _counters[name] = _counters.get(name, 0) + n


def merge(stats: Mapping[str, int | float], prefix: str = "") -> None:
    """Flush a component's locally-accumulated stats into the registry.

    This is the hot-path-friendly entry point: the component does plain
    integer arithmetic while running and calls ``merge`` once at the end.
    No-op when disabled.  Thread-safe: concurrent merges (and snapshots
    from the heartbeat sampler) serialize on the registry lock.
    """
    if not _enabled:
        return
    with _lock:
        get = _counters.get
        for key, value in stats.items():
            name = prefix + key
            if isinstance(value, float):
                _timers[name] = _timers.get(name, 0.0) + value
            else:
                _counters[name] = get(name, 0) + value


def snapshot() -> dict[str, int | float]:
    """An isolated copy of every counter and timer currently accumulated."""
    with _lock:
        out: dict[str, int | float] = dict(_counters)
        out.update(_timers)
    return out


def hit_rate(stats: Mapping[str, int | float], base: str) -> float | None:
    """The hit rate of a ``<base>_hits``/``<base>_misses`` counter pair, or
    None if the pair is absent/empty."""
    hits = stats.get(base + "_hits")
    misses = stats.get(base + "_misses")
    if hits is None and misses is None:
        return None
    total = (hits or 0) + (misses or 0)
    if total == 0:
        return None
    return (hits or 0) / total


def report(stats: Mapping[str, int | float] | None = None) -> str:
    """Human-readable rendering of a snapshot, with derived cache hit rates.

    ``stats`` defaults to the live registry contents.  Counters are grouped
    by their ``<layer>.`` prefix; within each group, plain counters come
    first, then that group's derived hit rates, then its timers — so a
    layer's work and where its time went read as one block instead of being
    interleaved alphabetically across layers.  Value columns widen to fit
    (no more overflowing ``{:12d}`` fields once counters pass 1e12) and use
    thousands separators.
    """
    if stats is None:
        stats = snapshot()
    if not stats:
        return "perf: no counters recorded (is repro.perf enabled?)"

    groups: dict[str, list[str]] = {}
    for name in stats:
        layer = name.split(".", 1)[0] if "." in name else "(other)"
        groups.setdefault(layer, []).append(name)

    name_w = max(max(len(n) + 9 for n in stats), 40)  # room for " hit rate"
    val_w = max((len(f"{v:,d}") for v in stats.values()
                 if not isinstance(v, float)), default=0)
    val_w = max(val_w, 12)

    lines = ["perf counters:"]
    for layer in sorted(groups):
        names = sorted(groups[layer])
        counters = [n for n in names if not isinstance(stats[n], float)]
        timers = [n for n in names if isinstance(stats[n], float)]
        lines.append(f"  {layer}:")
        for n in counters:
            lines.append(f"    {n:<{name_w}s} {stats[n]:>{val_w},d}")
        seen: set[str] = set()
        for n in counters:
            for suffix in ("_hits", "_misses"):
                if n.endswith(suffix):
                    base = n[: -len(suffix)]
                    if base not in seen:
                        seen.add(base)
                        rate = hit_rate(stats, base)
                        if rate is not None:
                            lines.append(f"    {base + ' hit rate':<{name_w}s}"
                                         f" {rate:>{val_w - 1}.1%}")
        for n in timers:
            lines.append(f"    {n:<{name_w}s} {stats[n]:>{val_w}.6f}s")
    return "\n".join(lines)
