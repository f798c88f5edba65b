"""Closure-query engines: serve point / slice / roll-up queries from a closed cube.

:class:`QueryEngine` fronts one materialised :class:`~repro.core.cube.
CubeResult` with the inverted :class:`~repro.query.index.CubeIndex` and an
:class:`~repro.query.cache.LRUCache` of answers, so that any cell of the cube
lattice — materialised or not — is answered in far less than a full scan:

* point queries resolve the query cell's *closure* (its maximum-count
  materialised specialisation, which by the quotient-cube property carries
  exactly the query cell's aggregate);
* slice queries enumerate the iceberg cells of one cuboid under fixed
  dimension values, driven entirely by the index (no recomputation);
* roll-up queries collapse dimensions of a cell to ``*`` and answer the
  resulting point.

:class:`PartitionedQueryEngine` serves the same queries over a cube computed
by :class:`repro.storage.partition.PartitionedCubeComputer`: it shards the
materialised cells by their value on the partitioning dimension and routes
each query to the shard(s) that can contain its closure, mirroring how the
partitioned *computation* split the data.

Engines track the cube they front: the :class:`QueryEngine` shares the cube's
live closure index — together the cube's versioned append-only store — and
:meth:`QueryEngine.publish` is the one place a served store is written;
:class:`PartitionedQueryEngine.refresh` swaps in only the shards a refresh
touched.

Both engines are safe under concurrent readers and a single publisher: every
query runs under the shared side of an :class:`~repro.concurrency.RWLock`
(:attr:`QueryEngine.lock`), and the maintenance entry points
(:meth:`QueryEngine.publish`, :meth:`QueryEngine.swap_store`,
:meth:`PartitionedQueryEngine.refresh`) take the exclusive side for a short
critical section.  The expensive work of an append — cubing the delta,
evaluating the merge and its closedness repair — happens *before* the
exclusive section and only reads the store; the section itself appends the
prepared slots and repairs the caches, O(changed cells), so the read hot path
never waits on a merge and in-flight queries always see one consistent
version.  :attr:`QueryEngine.version` counts publishes, giving callers (and
the interleaving tests) an exact version to attribute each answer to.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..concurrency import RWLock
from ..core.cell import Cell, make_cell, sort_key
from ..core.cube import CellStats, CubeResult
from ..core.errors import QueryError
from ..core.relation import Relation
from ..vector import kernels
from .cache import LRUCache
from .index import CubeIndex, PinnedIndex
from .queries import PointQuery, Query, QueryAnswer, RollupQuery, SliceQuery

#: What ``execute`` returns: one answer for point/roll-up, a list for a slice.
ExecuteResult = Union[QueryAnswer, List[QueryAnswer]]

#: Default size of the per-engine answer cache.
DEFAULT_CACHE_SIZE = 1024


def _slice_key_cell(key: object) -> Cell:
    """The probe cell of a slice-cache key: its fixed cell."""
    return key[0]  # type: ignore[index]


def invalidate_answers(
    caches: Union[LRUCache, Sequence[LRUCache]],
    num_dims: int,
    changed: Sequence[Cell],
    key_cell: Optional[object] = None,
) -> int:
    """Drop exactly the cached answers a set of changed cells can affect.

    A cached answer for target cell ``t`` is derived from ``t``'s
    materialised specialisations (the closure is the maximum-count one), so it
    can only change when some added/updated cell *specialises* ``t``.  The
    check is the same posting-list intersection a closure lookup uses, run
    against a throwaway :class:`CubeIndex` over just the changed cells — cost
    is proportional to the cache sizes times tiny intersections, not to the
    cube.  Accepts one cache or several keyed by target cell (the probe index
    is built once and shared — the maintenance path invalidates the engine's
    encoded cache and the session's decoded cache in one go).  ``key_cell``
    optionally maps a cache key to the cell the probe should test (the slice
    cache keys on ``(fixed cell, group dims)``).  Returns the total number of
    entries dropped.
    """
    if isinstance(caches, LRUCache):
        caches = [caches]
    if not changed or not any(len(cache) for cache in caches):
        return 0
    probe = CubeIndex(num_dims, [(cell, CellStats(0)) for cell in changed])
    dropped = 0
    for cache in caches:
        for key in cache.keys():
            cell = key if key_cell is None else key_cell(key)
            if probe.specialisation_slots(cell):
                dropped += cache.discard(key)
    return dropped


class QueryEngine:
    """Serve closure queries against one materialised (closed) cube."""

    def __init__(
        self,
        cube: CubeResult,
        cache_size: int = DEFAULT_CACHE_SIZE,
        index: Optional[Union[CubeIndex, PinnedIndex]] = None,
    ) -> None:
        self.cube = cube
        self.index = index if index is not None else cube.closure_index()
        self.cache = LRUCache(cache_size)
        #: Whole slice results keyed by ``(fixed cell, group dims)``.  A
        #: slice enumeration is O(matching cells) even when every member
        #: answer is cached, so dashboard-style repeated roll-ups earn their
        #: own cache.  Invalidation is exact and keys on the *fixed* cell: a
        #: changed cell can alter the slice (grow it, or change a member's
        #: count) only by specialising some target of the slice — and every
        #: target specialises the fixed cell, so by transitivity probing the
        #: fixed cell suffices.
        self.slice_cache: LRUCache[List[QueryAnswer]] = LRUCache(cache_size)
        #: Readers (queries) share this lock; :meth:`publish` /
        #: :meth:`swap_store` take it exclusively for their short critical
        #: sections.  Queries resolve *and* cache their answer inside one
        #: read-held region, so a publish can never interleave between a
        #: stale resolution and its cache write.
        self.lock = RWLock()
        #: Number of publishes this engine has served (see :meth:`publish`).
        self.version = 0
        #: Seconds the latest :meth:`publish` held the write lock.
        self.publish_seconds = 0.0
        #: Best-effort query counters: bumped without extra locking, so a
        #: heavily concurrent workload may undercount slightly.
        self.counters: Dict[str, int] = {
            "point_queries": 0,
            "slice_queries": 0,
            "rollup_queries": 0,
            "closure_lookups": 0,
        }
        # Imported lazily: repro.rollup imports the query package back for
        # QueryAnswer/SliceQuery, so a module-level import here would cycle.
        from ..rollup.recorder import ShapeRecorder

        #: Shape log of executed queries, mined by :mod:`repro.rollup.advisor`.
        self.recorder = ShapeRecorder()
        #: Optional :class:`~repro.rollup.router.RollupRouter`; when set,
        #: consulted after the answer caches and before closure resolution.
        self.router = None

    @property
    def num_dims(self) -> int:
        return self.cube.num_dims

    # ------------------------------------------------------------------ #
    # Point / roll-up                                                     #
    # ------------------------------------------------------------------ #

    def point(self, cell: Sequence[Optional[int]]) -> QueryAnswer:
        """Answer a query on one cell (``None`` entries mean ``*``).

        ``count is None`` in the answer means the cell is empty or below the
        iceberg threshold — information the closed iceberg cube deliberately
        does not carry.
        """
        target = PointQuery(tuple(cell)).target_cell(self.num_dims)
        with self.lock.read():
            return self._point_nolock(target)

    def _point_nolock(self, target: Cell) -> QueryAnswer:
        """Point resolution body; caller must hold the read lock."""
        self.counters["point_queries"] += 1
        self._record_point_shape(target)
        return self._answer_cell(target)

    def rollup(self, cell: Sequence[Optional[int]], dims: Sequence[int]) -> QueryAnswer:
        """Collapse ``dims`` of ``cell`` to ``*`` and answer the result."""
        query = RollupQuery(tuple(cell), tuple(dims))
        target = query.target_cell(self.num_dims)
        with self.lock.read():
            self.counters["rollup_queries"] += 1
            self._record_point_shape(target)
            return self._answer_cell(target)

    def _record_point_shape(self, target: Cell) -> None:
        self.recorder.record(
            tuple(dim for dim, value in enumerate(target) if value is not None)
        )

    def _answer_cell(self, target: Cell) -> QueryAnswer:
        cached = self.cache.get(target)
        if cached is not None:
            return cached
        if self.router is not None:
            routed = self.router.route_point(target)
            if routed is not None:
                self.cache.put(target, routed)
                return routed
        answer = self._resolve_closure(target)
        self.cache.put(target, answer)
        return answer

    def _resolve_closure(self, target: Cell) -> QueryAnswer:
        self.counters["closure_lookups"] += 1
        found = self.index.closure(target)
        if found is None:
            return QueryAnswer(cell=target, count=None)
        closure_cell, stats = found
        return QueryAnswer(
            cell=target,
            count=stats.count,
            measures=tuple(sorted(stats.measures.items())),
            closure=closure_cell,
        )

    # ------------------------------------------------------------------ #
    # Slice                                                               #
    # ------------------------------------------------------------------ #

    def slice(
        self, fixed: Dict[int, int], group_by: Sequence[int] = ()
    ) -> List[QueryAnswer]:
        """Fix some dimensions, group by others; one answer per iceberg cell.

        Returns the cells of the ``fixed + group_by`` cuboid that satisfy the
        iceberg condition and carry the fixed values, in stable cell order.
        Every returned answer has ``found == True`` — cells pruned by the
        iceberg condition simply do not appear, exactly as they would not
        appear in the materialised iceberg cube.
        """
        query = SliceQuery.of(fixed, group_by)
        with self.lock.read():
            return self._slice_nolock(query)

    def _slice_nolock(self, query: SliceQuery) -> List[QueryAnswer]:
        """Slice body (enumeration + answers); caller must hold the read lock."""
        self.counters["slice_queries"] += 1
        key = (query.validate(self.num_dims), tuple(query.group_by))
        fixed_dims = tuple(sorted(query.fixed_mapping()))
        group_dims = tuple(sorted(query.group_by))
        cached = self.slice_cache.get(key)
        if cached is not None:
            self.recorder.record(fixed_dims, group_dims, cost=len(cached) + 1)
            return cached
        if self.router is not None:
            routed = self.router.route_slice(query, self.num_dims)
            if routed is not None:
                # Routed slices are *not* written to the slice cache: the
                # rollup table already is the cache, and keeping them out of
                # it means a table swap alone makes the next read fresh.
                self.recorder.record(fixed_dims, group_dims, cost=len(routed) + 1)
                return routed
        targets = self._slice_targets(query)
        answers = [
            self._answer_cell(target) for target in sorted(targets, key=sort_key)
        ]
        self.slice_cache.put(key, answers)
        self.recorder.record(fixed_dims, group_dims, cost=len(answers) + 1)
        return answers

    def _slice_targets(self, query: SliceQuery) -> Set[Cell]:
        """The distinct cells of the slice's cuboid present in the iceberg cube.

        Every iceberg cell of the target cuboid has a closure in the closed
        cube; that closure specialises the slice's fixed part and fixes every
        group-by dimension with the cell's values.  Projecting the matching
        materialised cells onto ``fixed + group_by`` therefore enumerates the
        slice exactly — no false negatives, and no false positives because
        each projected cell's own closure answer is then resolved by
        :meth:`point` semantics.
        """
        fixed_cell = query.validate(self.num_dims)
        fixed = query.fixed_mapping()
        slots = self.index.specialisation_slots(fixed_cell)
        vectorized = kernels.slice_targets(
            self.index, slots, fixed, query.group_by, self.num_dims
        )
        if vectorized is not None:
            return vectorized
        targets: Set[Cell] = set()
        for slot in slots:
            cell = self.index.cell_at(slot)
            assignment = dict(fixed)
            complete = True
            for dim in query.group_by:
                value = cell[dim]
                if value is None:
                    complete = False
                    break
                assignment[dim] = value
            if complete:
                targets.add(make_cell(self.num_dims, assignment))
        return targets

    # ------------------------------------------------------------------ #
    # Maintenance                                                         #
    # ------------------------------------------------------------------ #

    def clear_caches(self) -> None:
        """Drop every cached answer and slice; counters survive."""
        self.cache.clear()
        self.slice_cache.clear()

    def publish(
        self,
        slots: Sequence[Tuple[Cell, CellStats]],
        extra_caches: Sequence[LRUCache] = (),
        rollups: Optional[Dict[Tuple[int, ...], object]] = None,
    ) -> int:
        """Apply one prepared merge to the store and make it visible.

        ``slots`` is what the maintenance path evaluated off the hot path
        (:func:`repro.incremental.merge.merge_closed_cubes` with
        ``apply=False``): the new statistics of every cell the append added
        or grew.  Under the write lock they are written to the store
        (:meth:`repro.core.cube.CubeResult.apply` — a slot, its postings and
        a columnar-view row per *new* cell, one re-pointed slot per grown
        one; nothing cloned, nothing re-indexed), cached answers those cells
        can affect are discarded from
        the engine's caches and any ``extra_caches`` (e.g. the named layer's
        decoded-answer cache), and :attr:`version` is incremented — all
        O(changed cells).  Readers either complete entirely before the
        section (seeing the previous version) or start after it (seeing the
        new one) — never a mixture.  This is the only place a served store
        is written (``repro.lint`` rule RL004).

        ``rollups``, when given, is the next generation of rollup tables
        (grain -> :class:`~repro.rollup.table.RollupTable`, prepared off the
        hot path from the same delta) and is swapped into the router inside
        the same exclusive section, so a reader can never pair the new cube
        with pre-append rollup answers.  Returns the number of cached answers
        dropped.
        """
        caches: List[LRUCache] = [self.cache, *extra_caches]
        changed = [cell for cell, _stats in slots]
        with self.lock.write():
            started = time.perf_counter()
            self.cube.apply(slots)
            if rollups is not None and self.router is not None:
                self.router.tables = rollups
            dropped = invalidate_answers(caches, self.num_dims, changed)
            dropped += invalidate_answers(
                self.slice_cache, self.num_dims, changed, key_cell=_slice_key_cell
            )
            for cache in caches:
                # Even a zero-drop publish must fence out readers holding
                # answers resolved against the superseded version (see
                # LRUCache.put_if_generation).
                cache.bump_generation()
            self.version += 1
            self.publish_seconds = time.perf_counter() - started
            return dropped

    def swap_store(self, cube: CubeResult) -> None:
        """Swap in a compacted copy of the store (same cells, no new version).

        ``cube`` must hold exactly the live cells of the current one (a
        :meth:`~repro.core.cube.CubeResult.clone`) with its closure index
        already built, both done off the hot path.  Every cached answer stays
        valid — the contents did not change, only the slot numbering — and
        views pinned on the old store keep it alive and keep answering.
        """
        index = cube.closure_index()
        with self.lock.write():
            self.cube = cube
            self.index = index

    # ------------------------------------------------------------------ #
    # Generic execution                                                   #
    # ------------------------------------------------------------------ #

    def execute(self, query: Query) -> ExecuteResult:
        """Dispatch one query object to the matching handler."""
        if isinstance(query, PointQuery):
            return self.point(query.cell)
        if isinstance(query, RollupQuery):
            return self.rollup(query.cell, query.dims)
        if isinstance(query, SliceQuery):
            return self.slice(query.fixed_mapping(), query.group_by)
        raise QueryError(f"unsupported query object: {query!r}")

    def execute_many(self, queries: Iterable[Query]) -> List[ExecuteResult]:
        """Answer a batch of queries, preserving input order."""
        return [self.execute(query) for query in queries]

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        """Serving statistics: index footprint, cache behaviour, counters."""
        return {
            "cells_indexed": len(self.index),
            "postings_entries": self.index.postings_size(),
            "cache": self.cache.stats(),
            "slice_cache": self.slice_cache.stats(),
            "version": self.version,
            "recorder": self.recorder.stats(),
            "rollups": (
                self.router.stats() if self.router is not None else {"enabled": False}
            ),
            **self.counters,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryEngine(cells={len(self.index)}, dims={self.num_dims}, "
            f"cache={self.cache.capacity})"
        )


class PartitionedQueryEngine:
    """Route closure queries across per-partition shards of a closed cube.

    The cube is split by the value each materialised cell fixes on
    ``partition_dim``; cells with ``*`` there form their own shard.  A query
    fixing the partitioning dimension can only have its closure inside that
    value's shard (specialisation preserves fixed values), so it touches one
    shard; a query with ``*`` on the partitioning dimension is resolved as the
    best answer across shards.
    """

    def __init__(
        self,
        cube: CubeResult,
        partition_dim: int,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if not 0 <= partition_dim < cube.num_dims:
            raise QueryError(
                f"partition dimension {partition_dim} outside 0..{cube.num_dims - 1}"
            )
        self.cube = cube
        self.partition_dim = partition_dim
        self.cache = LRUCache(cache_size)
        #: Whole slice results, as on :class:`QueryEngine` (cleared wholesale
        #: on refresh, like the answer cache).
        self.slice_cache: LRUCache[List[QueryAnswer]] = LRUCache(cache_size)
        #: Same reader/publisher discipline as :class:`QueryEngine`: queries
        #: share, :meth:`refresh` is exclusive for its swap section.
        self.lock = RWLock()
        #: Number of refreshes published through this engine.
        self.version = 0
        #: ``None`` keys the shard of cells with ``*`` on the partition dim.
        self.shards: Dict[Optional[int], QueryEngine] = {}
        for value, shard_cube in self._group(cube).items():
            # Shard engines run uncached: answers are cached once, here.
            self.shards[value] = QueryEngine(shard_cube, cache_size=0)

    def _group(
        self, cube: CubeResult, only: Optional[Set[Optional[int]]] = None
    ) -> Dict[Optional[int], CubeResult]:
        """Split a cube's cells into per-partition-value shard cubes.

        ``only`` restricts the grouping to the given partition values (used by
        :meth:`refresh` to rebuild just the shards a refresh touched).
        """
        grouped: Dict[Optional[int], CubeResult] = {}
        partition_dim = self.partition_dim
        for cell, stats in cube.items():
            value = cell[partition_dim]
            if only is not None and value not in only:
                continue
            shard_cube = grouped.get(value)
            if shard_cube is None:
                shard_cube = CubeResult(cube.num_dims, name=f"shard-{value}")
                grouped[value] = shard_cube
            shard_cube.add(cell, stats.count, stats.measures, stats.rep_tid)
        return grouped

    def refresh(
        self,
        cube: CubeResult,
        changed_values: Iterable[Optional[int]],
        extra_caches: Sequence[LRUCache] = (),
    ) -> List[Optional[int]]:
        """Swap in a refreshed cube, rebuilding only the shards it changed.

        ``changed_values`` are the partition-dimension values whose cells may
        differ from the previous cube (typically the partitions a
        :meth:`repro.storage.partition.PartitionedCubeComputer.refresh`
        recomputed); the ``*`` shard is always rebuilt because cells with
        ``*`` on the partitioning dimension aggregate across partitions.
        Untouched shards keep their engines — and their warm indexes.  The
        answer cache (and any ``extra_caches`` derived from it, e.g. the
        named layer's decoded answers) is cleared: any cached answer may
        have routed through a rebuilt shard.  Returns the shard keys that
        were rebuilt.

        The replacement shards are grouped and indexed *before* the write
        lock is taken, so in-flight queries only wait for the reference swaps.
        """
        affected: Set[Optional[int]] = set(changed_values)
        affected.add(None)
        grouped = self._group(cube, only=affected)
        replacements: Dict[Optional[int], Optional[QueryEngine]] = {}
        rebuilt: List[Optional[int]] = []
        for value in affected:
            shard_cube = grouped.get(value)
            if shard_cube is None:
                replacements[value] = None
            else:
                # QueryEngine builds its index eagerly, so the expensive part
                # of each replacement shard happens here, outside the lock.
                replacements[value] = QueryEngine(shard_cube, cache_size=0)
                rebuilt.append(value)
        with self.lock.write():
            self.cube = cube
            for value, engine in replacements.items():
                if engine is None:
                    self.shards.pop(value, None)
                else:
                    self.shards[value] = engine
            self.cache.clear()
            self.slice_cache.clear()
            for cache in extra_caches:
                cache.clear()
            self.version += 1
        return rebuilt

    def clear_caches(self) -> None:
        """Drop every cached answer and slice; counters survive."""
        self.cache.clear()
        self.slice_cache.clear()

    @property
    def num_dims(self) -> int:
        return self.cube.num_dims

    def shard_sizes(self) -> Dict[Optional[int], int]:
        """Materialised cells per shard (the ``None`` shard holds ``*`` cells)."""
        return {value: len(engine.cube) for value, engine in self.shards.items()}

    # ------------------------------------------------------------------ #

    def point(self, cell: Sequence[Optional[int]]) -> QueryAnswer:
        target = PointQuery(tuple(cell)).target_cell(self.num_dims)
        with self.lock.read():
            return self._point_nolock(target)

    def _point_nolock(self, target: Cell) -> QueryAnswer:
        """Routed point resolution body; caller must hold the read lock."""
        cached = self.cache.get(target)
        if cached is not None:
            return cached
        answer = self._route_point(target)
        self.cache.put(target, answer)
        return answer

    def _route_point(self, target: Cell) -> QueryAnswer:
        value = target[self.partition_dim]
        if value is not None:
            shard = self.shards.get(value)
            if shard is None:
                return QueryAnswer(cell=target, count=None)
            return shard._answer_cell(target)
        best: Optional[QueryAnswer] = None
        for shard in self.shards.values():
            answer = shard._answer_cell(target)
            if answer.found and (best is None or answer.count > best.count):
                best = answer
        return best if best is not None else QueryAnswer(cell=target, count=None)

    def rollup(self, cell: Sequence[Optional[int]], dims: Sequence[int]) -> QueryAnswer:
        query = RollupQuery(tuple(cell), tuple(dims))
        target = query.target_cell(self.num_dims)
        with self.lock.read():
            return self._point_nolock(target)

    def slice(
        self, fixed: Dict[int, int], group_by: Sequence[int] = ()
    ) -> List[QueryAnswer]:
        """Slice across shards; routing rules match :meth:`point`."""
        query = SliceQuery.of(fixed, group_by)
        query.validate(self.num_dims)
        with self.lock.read():
            return self._slice_nolock(query)

    def _slice_nolock(self, query: SliceQuery) -> List[QueryAnswer]:
        """Slice body (routing + answers); caller must hold the read lock."""
        key = (query.validate(self.num_dims), tuple(query.group_by))
        cached = self.slice_cache.get(key)
        if cached is not None:
            return cached
        answers = self._route_slice(query)
        self.slice_cache.put(key, answers)
        return answers

    def _route_slice(self, query: SliceQuery) -> List[QueryAnswer]:
        pinned = query.fixed_mapping().get(self.partition_dim)
        if pinned is not None:
            shards: Iterable[QueryEngine] = (
                [self.shards[pinned]] if pinned in self.shards else []
            )
        else:
            shards = list(self.shards.values())
        targets: Set[Cell] = set()
        for shard in shards:
            targets |= shard._slice_targets(query)
        return [
            self._point_nolock(target) for target in sorted(targets, key=sort_key)
        ]

    # ------------------------------------------------------------------ #

    def execute(self, query: Query) -> ExecuteResult:
        if isinstance(query, PointQuery):
            return self.point(query.cell)
        if isinstance(query, RollupQuery):
            return self.rollup(query.cell, query.dims)
        if isinstance(query, SliceQuery):
            return self.slice(query.fixed_mapping(), query.group_by)
        raise QueryError(f"unsupported query object: {query!r}")

    def execute_many(self, queries: Iterable[Query]) -> List[ExecuteResult]:
        """Answer a batch of queries, preserving input order.

        Each query is routed individually: queries pinning the partitioning
        dimension touch one shard, the rest fan out and merge.
        """
        return [self.execute(query) for query in queries]

    def stats(self) -> Dict[str, object]:
        return {
            "partition_dim": self.partition_dim,
            "shards": len(self.shards),
            "shard_sizes": {
                ("*" if value is None else value): size
                for value, size in sorted(
                    self.shard_sizes().items(), key=lambda kv: (kv[0] is None, kv[0])
                )
            },
            "cache": self.cache.stats(),
            "slice_cache": self.slice_cache.stats(),
            "version": self.version,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionedQueryEngine(dim={self.partition_dim}, "
            f"shards={len(self.shards)}, cells={len(self.cube)})"
        )


def open_partitioned_query_engine(
    relation: Relation,
    algorithm: str = "c-cubing-star",
    min_sup: int = 1,
    partition_dim: Optional[int] = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
    memory_budget_tuples: Optional[int] = None,
) -> Tuple[PartitionedQueryEngine, "object"]:
    """Materialise a partitioned closed cube and open a routing engine over it.

    Runs :class:`repro.storage.partition.PartitionedCubeComputer` (Section 6.3)
    on ``relation`` and shards the resulting cube on the same partitioning
    dimension the computation used, so serving mirrors materialisation.
    Returns ``(engine, partition_report)``.
    """
    from ..storage.partition import PartitionedCubeComputer

    computer = PartitionedCubeComputer(
        algorithm=algorithm,
        min_sup=min_sup,
        closed=True,
        memory_budget_tuples=memory_budget_tuples,
    )
    cube, report = computer.compute(relation, partition_dim=partition_dim)
    engine = PartitionedQueryEngine(
        cube, partition_dim=report.partition_dim, cache_size=cache_size
    )
    return engine, report
