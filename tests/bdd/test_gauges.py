"""Regression tests: BDD cache instrumentation never goes stale.

``clear_caches`` must reset the op-cache load, so live heartbeat gauges
and ``stats()`` sampled *after* a clear report the real post-clear sizes,
not the pre-clear load.
"""

from repro import metrics
from repro.bdd import make_manager


def _populate(m):
    """Run enough distinct ops to load every op cache and analysis memo."""
    a, b, c = m.var(0), m.var(1), m.var(2)
    m.band(a, b)
    m.bxor(b, c)
    m.bite(a, b, c)
    m.bnot(m.band(a, c))
    x = m.apply2(lambda p, q: (p, q), m.leaf("l"), m.var(3))
    m.sat_count(a, 4)
    m.leaf_groups(x, 4, m.true)
    return a


def test_clear_caches_resets_op_cache_load():
    m = make_manager()
    _populate(m)
    assert m.op_cache_size() > 0
    assert m.stats()["op_cache_entries"] == m.op_cache_size()

    m.clear_caches()
    assert m.op_cache_size() == 0
    assert m.stats()["op_cache_entries"] == 0

    # Caches must come back to life after a clear (counters resume from 0,
    # not from their stale pre-clear values).
    _populate(m)
    assert m.op_cache_size() > 0


def test_live_gauges_track_clear_caches():
    metrics.reset()
    with metrics.enabled():
        m = make_manager()  # self-registers a weak gauge provider
        _populate(m)
        loaded, _ = metrics.sample()
        assert loaded["bdd.op_cache_entries"] > 0

        m.clear_caches()
        cleared, _ = metrics.sample()
        assert cleared["bdd.op_cache_entries"] == 0
        # Structural gauges are unaffected by a cache clear.
        assert cleared["bdd.nodes"] == loaded["bdd.nodes"]
        assert cleared["bdd.leaves"] == loaded["bdd.leaves"]
        assert cleared["bdd.unique_entries"] == loaded["bdd.unique_entries"]
    metrics.reset()

