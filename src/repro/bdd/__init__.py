"""Hash-consed BDD/MTBDD engine (paper §5.1, fig 11).

Two interchangeable engines implement the same manager API:

* :class:`~repro.bdd.arena.ArenaBddManager` (default) — flat int-array
  arena with open-addressed unique/op tables: ~3x lower retained memory,
  cheap snapshots, and vectorised bulk analyses when numpy is available.
* :class:`~repro.bdd.manager.BddManager` — the original object engine,
  kept as the executable semantic spec and cross-checked against the
  arena by ``tests/bdd/test_arena_equivalence.py``; its dict/list hot
  paths run on CPython's C internals, so it still wins on scalar op
  throughput (see EXPERIMENTS.md, PR 6).

Select with ``NV_BDD_ENGINE=object|arena`` (see :func:`make_manager`).
"""

import os

from .arena import ArenaBddManager
from .manager import BddManager, LEAF_LEVEL

__all__ = ["ArenaBddManager", "BddManager", "LEAF_LEVEL", "engine_hint",
           "make_manager"]

_ENGINES = {"object": BddManager, "arena": ArenaBddManager}

#: What the most recently constructed manager was built with (engine, numpy
#: use, frontier thresholds); :func:`engine_hint` renders it as one line.
#: ``repro.observatory`` copies that into the RunRecord env fingerprint so
#: ``repro runs diff`` can attribute a timing delta to an engine-choice
#: difference — fig13b runs ~1.3x slower on ``arena`` than ``object`` when
#: numpy is unavailable (BENCH_pr10.json), which is invisible if records
#: only say "arena".
_last_built: tuple | None = None


def engine_name() -> str:
    """The engine selected by ``NV_BDD_ENGINE`` (default ``arena``)."""
    name = os.environ.get("NV_BDD_ENGINE", "arena").strip().lower() or "arena"
    if name not in _ENGINES:
        raise ValueError(
            f"NV_BDD_ENGINE must be one of {sorted(_ENGINES)}, got {name!r}")
    return name


def engine_hint() -> str | None:
    """One-line description of the manager the last :func:`make_manager`
    call built (``None`` until one has been built in this process)."""
    if _last_built is None:
        return None
    name, use_np, frontier_min, frontier_width = _last_built
    if name != "arena":
        return name
    if not use_np:
        return "arena+scalar"
    # The installed version, read from package metadata only when someone
    # asks: neither numpy nor importlib.metadata (~40 ms) is imported to
    # build a manager.
    from importlib.metadata import version
    return (f"arena+numpy-{version('numpy')}"
            f"(frontier_min={frontier_min},width={frontier_width})")


def make_manager(**kwargs):
    """Construct the BDD manager selected by ``NV_BDD_ENGINE``.

    The environment variable is read per call (not at import), so tests can
    flip engines with ``monkeypatch.setenv``.
    """
    global _last_built
    name = engine_name()
    mgr = _ENGINES[name](**kwargs)
    if name == "arena":
        _last_built = (name, mgr._use_np, mgr._frontier_min,
                       mgr._frontier_width)
    else:
        _last_built = (name, False, 0, 0)
    return mgr
