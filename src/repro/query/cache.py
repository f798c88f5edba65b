"""A small, thread-safe LRU result cache for the query engine.

Serving workloads are heavily skewed — a few dashboard cells absorb most of
the traffic — so even a modest least-recently-used cache in front of closure
resolution removes the bulk of the index work.  The cache is a plain
``OrderedDict`` with move-to-front on hit and tail eviction on overflow, plus
hit/miss/eviction counters the benchmark and the engine's ``stats()`` report.

Every operation (including :meth:`LRUCache.stats`, which snapshots all
counters in one consistent view) runs under one internal mutex: concurrent
serving (:mod:`repro.server`) hits these caches from query workers and
maintenance threads at once, and even a plain ``OrderedDict`` corrupts its
linked order under unsynchronised ``move_to_end`` / ``popitem`` interleaving.
The mutex is uncontended in single-threaded use and costs well under the
price of one closure lookup.

A :attr:`LRUCache.generation` counter increments on every ``clear`` and on
every targeted ``discard``; publish paths use it to detect that a cache was
invalidated between reading an entry and writing a derived one (the
serving layer keys its stale-write checks on it).

A capacity of ``0`` disables caching entirely (every ``get`` misses, ``put``
is a no-op), which the throughput benchmark uses to isolate raw index speed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, List, Optional, TypeVar

V = TypeVar("V")

#: Sentinel distinguishing "cached None" from "not cached".
_MISSING = object()


class LRUCache(Generic[V]):
    """Least-recently-used mapping with a fixed capacity and hit counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: Bumped on every invalidation event (``clear`` or ``discard``);
        #: lets publishers detect a concurrent invalidation between a read
        #: and a dependent write.
        self.generation = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Optional[V] = None) -> Optional[V]:
        """Return the cached value for ``key``, refreshing its recency."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value  # type: ignore[return-value]

    def put(self, key: Hashable, value: V) -> None:
        """Insert or refresh ``key``; evict the least-recent entry on overflow."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def keys(self) -> List[Hashable]:
        """Snapshot of the cached keys, least-recently used first.

        Used by targeted invalidation: the serving layer inspects which cached
        answers a set of changed cells can affect and discards only those.
        """
        with self._lock:
            return list(self._entries)

    def discard(self, key: Hashable) -> bool:
        """Drop one entry if present (targeted invalidation, not an eviction).

        Returns ``True`` when the key was cached.  Unlike capacity evictions,
        discards are counted separately in :meth:`stats` so cache-behaviour
        dashboards can tell churn from invalidation.
        """
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.invalidations += 1
            self.generation += 1
            return True

    def put_if_generation(self, key: Hashable, value: V, generation: int) -> bool:
        """Insert ``key`` only if no invalidation happened since ``generation``.

        The publish protocol: a reader snapshots :attr:`generation`
        before resolving an answer against the published cube version and
        writes the derived entry back through this method.  If a publish
        invalidated the cache in between (bumping the generation), the write
        is silently dropped — the resolved answer belongs to a superseded
        version and caching it would serve stale data forever.  Returns
        whether the entry was stored.
        """
        if self.capacity == 0:
            return False
        with self._lock:
            if self.generation != generation:
                return False
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return True

    def bump_generation(self) -> None:
        """Invalidate in-flight :meth:`put_if_generation` writers.

        Publish paths call this even when targeted invalidation dropped no
        entries: a reader may have resolved an answer for a *not-yet-cached*
        cell against the superseded version, and only a generation change
        stops it from writing that answer back after the publish.
        """
        with self._lock:
            self.generation += 1

    def clear(self) -> None:
        """Drop all entries; counters are preserved, the generation advances."""
        with self._lock:
            self._entries.clear()
            self.generation += 1

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (``0.0`` before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """One atomic snapshot of every counter (consistent under concurrency)."""
        with self._lock:
            hits, misses = self.hits, self.misses
            total = hits + misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "generation": self.generation,
                "hit_rate": round(hits / total, 4) if total else 0.0,
            }
