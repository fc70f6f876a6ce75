"""Kernel-depth telemetry behind the ``NV_TELEMETRY`` flag.

:mod:`repro.perf` counts *how much* work each layer did; this module
answers *why the kernels behave the way they do*: table-size profiles of
the BDD manager, per-call-site memo hit-rate attribution in the compiled
evaluator, and propagation/conflict-rate interval deltas in the CDCL core
— so a kernel investigation is a matter of reading a run report.

Design rule (the same contract as :mod:`repro.perf`/:mod:`repro.obs`,
enforced by ``tests/bdd/test_telemetry.py``): **zero cost on the hot
path when disabled**.  Table sizes are read on demand at flush time, so
``apply2``'s bytecode is untouched either way.

Enable with ``NV_TELEMETRY=1`` (read at import; tests flip it with
:func:`enable`/:func:`disable` or the :func:`enabled` context manager).
Flush points: the analysis drivers call :func:`flush_manager` /
:func:`flush_call_sites` next to their existing ``perf.merge`` flushes,
so telemetry lands in the same snapshot the observatory records.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator

from . import metrics, perf

_enabled: bool = os.environ.get("NV_TELEMETRY", "").strip() not in ("", "0")


def is_enabled() -> bool:
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


@contextmanager
def enabled(on: bool = True) -> Iterator[None]:
    """Context manager: set the telemetry flag, restoring on exit."""
    global _enabled
    prev = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = prev


def flush_manager(manager: Any, prefix: str = "bdd.") -> None:
    """Flush a BDD manager's kernel telemetry (table-size histogram into
    :mod:`repro.metrics`, per-table entry counters into :mod:`repro.perf`).
    No-op when telemetry is disabled."""
    if not _enabled:
        return
    counters, hists = manager.telemetry()
    perf.merge(counters, prefix=prefix)
    for name, hist in hists.items():
        metrics.record_histogram(prefix + name, hist)


def flush_call_sites(prefix: str = "memo.") -> None:
    """Flush (and reset) the compiled evaluator's per-call-site memo
    hit-rate attribution into :mod:`repro.perf` counters and a hit-rate
    histogram.  No-op when telemetry is disabled or nothing was compiled."""
    if not _enabled:
        return
    from .eval import compile_py  # deferred: compile_py imports this module

    stats = compile_py.take_site_stats()
    for site, (calls, hits, misses) in stats.items():
        perf.merge({f"{prefix}{site}.calls": calls,
                    f"{prefix}{site}.hits": hits,
                    f"{prefix}{site}.misses": misses})
        total = hits + misses
        if total:
            metrics.observe(f"{prefix}site_hit_rate_pct",
                            round(100.0 * hits / total, 3))


def flush(manager: Any | None = None, prefix: str = "bdd.") -> None:
    """Convenience: flush a manager (when given) plus the compiled
    evaluator's call-site stats in one call."""
    if not _enabled:
        return
    if manager is not None:
        flush_manager(manager, prefix=prefix)
    flush_call_sites()
