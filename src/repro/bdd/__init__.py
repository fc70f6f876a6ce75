"""Hash-consed BDD/MTBDD engine (paper §5.1, fig 11).

There is one engine, :class:`~repro.bdd.manager.BddManager`.  Two thin
names remain beside it because the frozen end-to-end benchmark
(``benchmarks/e2e``) calls them: :func:`make_manager` — also the one place
:class:`~repro.eval.maps.MapContext` constructs its manager — and
:func:`engine_hint`, which the benchmark stamps into its result records.
"""

from .manager import BddManager, LEAF_LEVEL

__all__ = ["BddManager", "LEAF_LEVEL", "engine_hint", "make_manager"]


def make_manager(**kwargs) -> BddManager:
    """Construct a BDD manager."""
    return BddManager(**kwargs)


def engine_hint() -> str:
    """Name of the engine :func:`make_manager` builds."""
    return "object"
