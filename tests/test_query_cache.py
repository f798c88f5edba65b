"""Focused tests for the serving layer's LRU cache (repro.query.cache).

Complements the engine-level cache tests in test_query_engine.py with direct
coverage of eviction order, the ``capacity == 0`` disablement contract, and
the counter bookkeeping ``stats()`` reports.
"""

from __future__ import annotations

import pytest

from repro import Relation, compute_closed_cube, open_query_engine
from repro.query.cache import LRUCache


def test_eviction_follows_least_recently_used_order():
    cache = LRUCache(3)
    for key in "abc":
        cache.put(key, key.upper())
    # Touch "a" (get) and "b" (re-put): "c" becomes the eviction victim.
    assert cache.get("a") == "A"
    cache.put("b", "B2")
    cache.put("d", "D")
    assert "c" not in cache
    assert [key for key in "abd" if key in cache] == ["a", "b", "d"]
    assert cache.evictions == 1
    # Next overflow evicts "a" — the oldest untouched entry, not insert order.
    cache.put("e", "E")
    assert "a" not in cache and "b" in cache
    assert cache.evictions == 2


def test_eviction_sequence_is_stable_under_repeated_overflow():
    cache = LRUCache(2)
    evicted = []
    keys = [1, 2, 3, 4, 5]
    for key in keys:
        cache.put(key, key)
        evicted.append(cache.evictions)
    assert evicted == [0, 0, 1, 2, 3]
    assert 4 in cache and 5 in cache and len(cache) == 2


def test_put_refresh_does_not_evict():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # refresh, not insert: no overflow
    assert cache.evictions == 0
    assert cache.get("a") == 10 and cache.get("b") == 2


def test_capacity_zero_disables_storage_and_counts_misses():
    cache = LRUCache(0)
    cache.put("a", 1)
    assert len(cache) == 0
    assert cache.get("a") is None
    assert cache.get("a", default="fallback") == "fallback"
    assert cache.hits == 0 and cache.misses == 2 and cache.evictions == 0
    assert cache.hit_rate == 0.0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        LRUCache(-1)


def test_clear_preserves_counters():
    cache = LRUCache(2)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("missing") is None
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1 and cache.misses == 1


def test_stats_reports_counters_and_hit_rate():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    stats = cache.stats()
    assert stats["capacity"] == 2 and stats["entries"] == 1
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate"] == 0.5


def test_engine_with_zero_cache_answers_correctly_without_caching():
    rows = [("a1", "b1", "c1"), ("a1", "b1", "c2"), ("a1", "b2", "c1")]
    relation = Relation.from_rows(rows, ["A", "B", "C"])
    cube = compute_closed_cube(relation, min_sup=2)
    cached = open_query_engine(cube, cache_size=1024)
    uncached = open_query_engine(cube, cache_size=0)
    cells = [(0, None, None), (0, 0, None), (None, None, 0), (0, None, 0)]
    for cell in cells:
        for _ in range(2):
            assert uncached.point(cell).count == cached.point(cell).count
    assert uncached.cache.hits == 0 and len(uncached.cache) == 0
    # Every repeat went back to closure resolution.
    assert uncached.counters["closure_lookups"] == 2 * len(cells)


def test_engine_eviction_order_drives_closure_lookups():
    rows = [("a1", "b1", "c1"), ("a1", "b1", "c2"), ("a1", "b2", "c1")]
    relation = Relation.from_rows(rows, ["A", "B", "C"])
    engine = open_query_engine(compute_closed_cube(relation, min_sup=1), cache_size=2)
    first, second, third = (0, None, None), (None, 0, None), (None, None, 0)
    engine.point(first)
    engine.point(second)
    engine.point(first)      # refresh: `second` is now least recent
    engine.point(third)      # evicts `second`
    lookups = engine.counters["closure_lookups"]
    engine.point(first)      # still cached
    assert engine.counters["closure_lookups"] == lookups
    engine.point(second)     # evicted: must resolve again
    assert engine.counters["closure_lookups"] == lookups + 1


def test_keys_and_discard_support_targeted_invalidation():
    cache = LRUCache(4)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.keys() == ["a", "b"]
    assert cache.discard("a") is True
    assert cache.discard("a") is False, "discarding a missing key reports it"
    assert "a" not in cache
    stats = cache.stats()
    assert stats["invalidations"] == 1
    assert stats["evictions"] == 0, "discards are not evictions"


def test_engine_publish_drops_only_affected_answers():
    from repro import Relation, compute_closed_cube, open_query_engine
    from repro.core.cube import CellStats

    relation = Relation.from_rows([("a", "x"), ("a", "y"), ("b", "x")])
    engine = open_query_engine(compute_closed_cube(relation, min_sup=1))
    a_cell = (0, None)
    b_cell = (1, None)
    engine.point(a_cell)
    engine.point(b_cell)
    # A changed cell under (a, *) invalidates it but leaves (b, *) cached.
    dropped = engine.publish([((0, 5), CellStats(1, {}, 0))])
    assert dropped == 1
    assert a_cell not in engine.cache
    assert b_cell in engine.cache
    assert engine.version == 1
    # The apex answer depends on every cell, so any change would drop it.
    apex = (None, None)
    engine.point(apex)
    assert engine.publish([((0, 9), CellStats(1, {}, 0))]) >= 1
    assert apex not in engine.cache
