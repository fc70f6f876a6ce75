"""Worker factories for :mod:`tests.test_parallel`.

They live in a real module (not a test file) so :func:`repro.parallel`
workers can resolve them by ``"module:attr"`` reference in spawned
processes as well as forked ones.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any

from repro import obs, perf


def make_square(payload: dict[str, Any]):
    offset = payload.get("offset", 0)

    def run(i: int) -> int:
        perf.merge({"units": 1}, prefix="testpool.")
        return (i + offset) * (i + offset)

    return run


def make_record(payload: dict[str, Any]):
    """Returns a small dict per unit: results of one chunk then share
    pickled objects (the key strings)."""
    return lambda i: {"unit": i, "square": i * i}


def make_failing(payload: dict[str, Any]):
    """Counts a ``testpool.units`` per unit *before* the bad unit raises,
    so error-path flush tests can assert the counter survived.  The other
    units then sleep ``delay`` seconds, so a test can have the error reach
    the parent before any healthy chunk does."""
    bad = payload["bad_unit"]
    delay = payload.get("delay", 0.0)

    def run(i: int) -> int:
        perf.merge({"units": 1}, prefix="testpool.")
        if i == bad:
            raise ValueError(f"unit {i} exploded")
        time.sleep(delay)
        return i

    return run


def make_sleepy(payload: dict[str, Any]):
    """Sleeps ``delay`` seconds per unit — wall time workloads (ledger and
    critical-path tests) can reason about."""
    delay = payload.get("delay", 0.05)

    def run(i: int) -> int:
        perf.merge({"units": 1}, prefix="testpool.")
        time.sleep(delay)
        return i

    return run


def make_tracer(payload: dict[str, Any]):
    """Opens a nested span + event per unit (trace-merge tests)."""

    def run(i: int) -> int:
        perf.merge({"units": 1}, prefix="testpool.")
        with obs.span("testpool.work", unit=i):
            obs.event("testpool.tick", unit=i)
        return i

    return run


def make_killer(payload: dict[str, Any]):
    """SIGKILLs its own process on ``kill_unit`` after ``delay`` seconds,
    mid-unit: the parent must notice the dead worker instead of waiting
    for its chunk forever."""
    kill = payload.get("kill_unit")
    delay = payload.get("delay", 0.5)

    def run(i: int) -> int:
        if i == kill:
            time.sleep(delay)
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    return run


def make_unpicklable(payload: Any):
    """Returns a local closure per unit: a result no pickle can carry."""
    return lambda u: (lambda: u)
