"""The named query surface: :class:`ServingCube` and its answer model.

A :class:`ServingCube` is what :meth:`repro.session.CubeSession.build`
returns: a materialised (closed) cube plus a serving engine, fronted by the
schema's value dictionaries so that queries are expressed in dimension
*names* and raw values::

    cube.point({"A": "a1", "C": "c1"})          # one cell, any lattice cell
    cube.slice({"B": "b2"}, group_by=["A"])     # GROUP BY under fixed values
    cube.rollup(["A"])                          # aggregate up to one cuboid
    cube.query_many([...])                      # batched, order-preserving
    cube.explain({"A": "a1"})                   # which closed cell answered
    cube.append(new_rows)                       # incremental maintenance
    cube.save(path); ServingCube.load(path)     # snapshot persistence

Answers come back as :class:`NamedAnswer` — decoded coordinates, count, and
payload measures — never as encoded integers.  Unknown dimension *names* are
an error (:class:`~repro.core.errors.QueryError`); unknown dimension *values*
are not: a value that never appears in the base table simply has an empty
cell, so the answer is a not-found :class:`NamedAnswer`, consistent with how
the closed iceberg cube treats below-threshold cells.

Decoded answers are memoised per target cell in an LRU cache sized like the
engine's answer cache, so hot named traffic costs one dictionary encode plus
two cache hits — the overhead benchmarks/bench_api_overhead.py keeps honest.

Concurrency: queries may run from any number of threads at once.  Each query
resolves against one *published* cube version (the engine's read/write lock
plus the decoded cache's generation counter guarantee no torn or stale
state), and maintenance is serialised by an internal lock.  Every
:meth:`ServingCube.append` evaluates its merge while queries keep reading the
store and lands the changed cells in one short O(delta) exclusive section
(:meth:`repro.query.engine.QueryEngine.publish`), so the read hot path never
waits on a merge.  :meth:`ServingCube.read_snapshot` pins one published
version for repeated reads; :attr:`ServingCube.version` counts publishes.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.cell import Cell
from ..core.cube import CubeResult
from ..core.errors import QueryError
from ..core.measures import MeasureSpec
from ..core.relation import Relation
from ..query.cache import LRUCache
from ..query.engine import (
    DEFAULT_CACHE_SIZE,
    PartitionedQueryEngine,
    QueryEngine,
)
from ..query.index import PinnedIndex
from ..query.queries import QueryAnswer
from .planner import Plan
from .schema import CubeSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..incremental.maintainer import AppendReport
    from ..storage.partition import PartitionReport

#: Decoded coordinates: ``(dimension name, raw value)`` pairs in schema order.
Coordinates = Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class NamedAnswer:
    """One decoded query answer.

    ``coordinates`` fixes the queried cell in names and raw values
    (aggregated ``*`` dimensions are omitted); ``count is None`` means the
    cell is empty or below the iceberg threshold.  ``closure`` names the
    materialised closed cell that carried the answer, when one did.
    """

    coordinates: Coordinates
    count: Optional[int]
    measures: Tuple[Tuple[str, float], ...] = ()
    closure: Optional[Coordinates] = None

    @property
    def found(self) -> bool:
        return self.count is not None

    def coordinates_dict(self) -> Dict[str, object]:
        return dict(self.coordinates)

    def measures_dict(self) -> Dict[str, float]:
        return dict(self.measures)

    def measure(self, name: str) -> float:
        for key, value in self.measures:
            if key == name:
                return value
        raise QueryError(f"answer carries no measure named {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        coords = ", ".join(f"{name}={value!r}" for name, value in self.coordinates)
        return f"NamedAnswer({coords or '*'}: count={self.count})"


@dataclass(frozen=True)
class Explanation:
    """How one point answer came to be (see :meth:`ServingCube.explain`).

    ``covering_cell`` is the materialised closed cell whose aggregate answered
    the query — the quotient-cube closure; ``direct_hit`` says whether the
    queried cell itself was materialised, and ``from_cache`` whether the
    engine's answer cache already held the answer before this call.
    """

    question: Coordinates
    answer: NamedAnswer
    covering_cell: Optional[Coordinates]
    direct_hit: bool
    from_cache: bool
    algorithm: str
    plan: Optional[Plan]

    def describe(self) -> str:
        """Multi-line human-readable account."""
        question = ", ".join(f"{n}={v!r}" for n, v in self.question) or "(apex)"
        lines = [f"query point({question})"]
        if not self.answer.found:
            lines.append(
                "-> not answerable: the cell is empty or below the iceberg "
                "threshold (information the closed iceberg cube discards)"
            )
        else:
            lines.append(f"-> count={self.answer.count}")
            covering = ", ".join(
                f"{n}={v!r}" for n, v in (self.covering_cell or ())
            )
            if self.direct_hit:
                lines.append("-> covered by itself (materialised closed cell)")
            else:
                lines.append(
                    f"-> covered by closed cell ({covering}) — the maximum-count "
                    "materialised specialisation (quotient-cube closure)"
                )
        lines.append(f"-> served from cache: {'yes' if self.from_cache else 'no'}")
        lines.append(f"-> cube computed by {self.algorithm!r}")
        if self.plan is not None:
            lines.append("-> planner: " + self.plan.explain().replace("\n", "\n   "))
        return "\n".join(lines)


#: A batched query specification (see :meth:`ServingCube.query_many`).
QuerySpec = Mapping[str, object]
#: One batched result: a single answer or, for slices/roll-ups, a list.
BatchResult = Union[NamedAnswer, List[NamedAnswer]]


@dataclass(frozen=True)
class ServingConfig:
    """How a serving cube was built — everything maintenance needs to rebuild.

    Stored on every :class:`ServingCube` (and in its snapshots) so that
    :meth:`ServingCube.append` can pick the right maintenance path and
    :meth:`ServingCube.refresh` can recompute with the original settings
    after the relation has grown.
    """

    min_sup: int = 1
    closed: bool = True
    measures: Tuple[MeasureSpec, ...] = ()
    algorithm: str = "auto"
    cache_size: int = DEFAULT_CACHE_SIZE
    dimension_order: object = None
    partitioned: bool = False
    partition_dim: Optional[int] = None


def build_serving_state(relation: Relation, config: ServingConfig) -> Tuple[
    CubeResult,
    Union[QueryEngine, PartitionedQueryEngine],
    str,
    Optional[Plan],
    Optional[float],
    Optional["PartitionReport"],
]:
    """Compute a relation's cube and open its engine, per one config.

    The single build path shared by :meth:`CubeSession.build` and
    :meth:`ServingCube.refresh`, so a refresh (or an append falling back to
    one) can never drift from how the session originally built the cube.
    Returns ``(cube, engine, algorithm, plan, build_seconds,
    partition_report)`` — ``plan`` only when the config asked for ``"auto"``,
    ``partition_report`` only for partitioned configs.
    """
    from ..algorithms.base import AUTO_ALGORITHM, CubingOptions, get_algorithm
    from ..core.errors import AlgorithmError
    from ..core.measures import MeasureSet
    from .planner import plan_algorithm

    plan: Optional[Plan] = None
    algorithm = config.algorithm
    if algorithm.lower() == AUTO_ALGORITHM:
        plan = plan_algorithm(
            relation,
            min_sup=config.min_sup,
            closed=config.closed,
            with_measures=bool(config.measures),
        )
        algorithm = plan.algorithm
    if config.partitioned:
        from ..storage.partition import PartitionedCubeComputer

        if config.measures:
            raise AlgorithmError(
                "partitioned sessions do not carry payload measures yet; "
                "drop .measures(...) or build unpartitioned"
            )
        computer = PartitionedCubeComputer(
            algorithm=algorithm,
            min_sup=config.min_sup,
            closed=config.closed,
            dimension_order=config.dimension_order,
        )
        cube, report = computer.compute(relation, partition_dim=config.partition_dim)
        engine: Union[QueryEngine, PartitionedQueryEngine] = PartitionedQueryEngine(
            cube, partition_dim=report.partition_dim, cache_size=config.cache_size
        )
        return cube, engine, algorithm, plan, None, report
    options = CubingOptions(
        min_sup=config.min_sup,
        closed=config.closed,
        measures=MeasureSet(tuple(config.measures)),
        dimension_order=config.dimension_order,
    )
    result = get_algorithm(algorithm, options).run(relation)
    engine = QueryEngine(result.cube, cache_size=config.cache_size)
    return result.cube, engine, result.algorithm, plan, result.elapsed_seconds, None


class ServingCube:
    """A materialised cube served through the schema's value dictionaries.

    Beyond queries, the cube is *maintainable*: :meth:`append` folds new fact
    rows in (incrementally when exact, recomputing otherwise), :meth:`refresh`
    rebuilds from the grown relation, and :meth:`save` / :meth:`load`
    round-trip the whole serving state through the versioned snapshot format
    (:mod:`repro.storage.snapshot`).
    """

    def __init__(
        self,
        relation: Relation,
        schema: CubeSchema,
        cube: CubeResult,
        engine: Union[QueryEngine, PartitionedQueryEngine],
        algorithm: str,
        plan: Optional[Plan] = None,
        build_seconds: Optional[float] = None,
        config: Optional[ServingConfig] = None,
        partition_report: Optional["PartitionReport"] = None,
    ) -> None:
        self.relation = relation
        self.schema = schema
        self.cube = cube
        self.engine = engine
        self.algorithm = algorithm
        self.plan = plan
        self.build_seconds = build_seconds
        #: Whether the builder supplied an explicit config.  Maintenance
        #: refuses to run on a guessed config: assuming min_sup/closed/
        #: measures that do not match how the cube was really computed would
        #: corrupt it silently (e.g. delta-merging an iceberg cube).
        self.config_known = config is not None
        self.config = config if config is not None else ServingConfig(
            partitioned=isinstance(engine, PartitionedQueryEngine),
            cache_size=engine.cache.capacity,
        )
        #: The computation report of the partitioned driver, kept so that
        #: appends can refresh partition by partition.
        self.partition_report = partition_report
        self._dim_of = {name: dim for dim, name in enumerate(schema.dimensions)}
        self._num_dims = len(schema.dimensions)
        self._encoders = [
            relation.encoder(dim) for dim in range(relation.num_dimensions)
        ]
        #: Decoded answers keyed by encoded target cell.  Invalidated by the
        #: maintenance paths exactly like the engine's answer cache — the hot
        #: named path can return from here without re-entering the engine.
        #: Writes go through ``put_if_generation`` so an answer resolved
        #: against a superseded cube version is never cached after a publish.
        self._decoded: LRUCache[NamedAnswer] = LRUCache(engine.cache.capacity)
        #: Serialises maintenance (append / refresh / save) against itself;
        #: queries never take it.  Reentrant because append's fallback path
        #: calls :meth:`refresh`.
        self._maintenance_lock = threading.RLock()
        #: Lazily created single worker thread behind :meth:`append_async`
        #: (one per cube, so async appends to one cube stay ordered).
        self._append_pool: Optional[ThreadPoolExecutor] = None
        #: Compacting rebuilds of the cube's append-only store so far (see
        #: :meth:`repro.incremental.maintainer.CubeMaintainer._compact_store`).
        self.store_compactions = 0
        #: Last :meth:`enable_rollups` parameters, reused by re-advises with
        #: no arguments (``None`` until rollups are first enabled).
        self._rollup_params: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------ #
    # Name / value translation                                            #
    # ------------------------------------------------------------------ #

    def _dim_index(self, name: str) -> int:
        dim = self._dim_of.get(name)
        if dim is None:
            raise QueryError(
                f"unknown dimension {name!r}; dimensions are "
                f"{list(self.schema.dimensions)}"
            )
        return dim

    def _target_cell(
        self, spec: Mapping[str, object]
    ) -> Tuple[Cell, List[Tuple[str, object]]]:
        """Encode a ``{name: raw value}`` spec; unseen values are reported, not raised."""
        cell: List[Optional[int]] = [None] * self._num_dims
        unseen: List[Tuple[str, object]] = []
        encoders = self._encoders
        for name, raw in spec.items():
            dim = self._dim_index(name)
            code = encoders[dim].get(raw)
            if code is None:
                unseen.append((name, raw))
            else:
                cell[dim] = code
        return tuple(cell), unseen

    def _decode_cell(self, cell: Cell) -> Coordinates:
        relation = self.relation
        names = self.schema.dimensions
        return tuple(
            (names[dim], relation.decode(dim, code))
            for dim, code in enumerate(cell)
            if code is not None
        )

    def _decode_answer(
        self,
        answer: QueryAnswer,
        generation: Optional[int] = None,
        reuse_cached: bool = True,
    ) -> NamedAnswer:
        """Decode one engine answer, memoising through the decoded cache.

        ``generation`` is the decoded cache's generation *captured before the
        engine resolved the answer*; the write-back is dropped when a publish
        invalidated the cache in between (the answer belongs to a superseded
        cube version).  ``None`` means "current" — only safe when no publish
        can be concurrent (the single-threaded fast path never passes it).

        ``reuse_cached=False`` skips the cache *read*: a slice resolves all
        its answers atomically at one version, and substituting a cached
        decode from a newer publish would tear the result set.  (A point
        query is a single answer, so any published version's decode is a
        consistent reply there.)
        """
        decoded = self._decoded
        if reuse_cached:
            cached = decoded.get(answer.cell)
            if cached is not None:
                return cached
        named = NamedAnswer(
            coordinates=self._decode_cell(answer.cell),
            count=answer.count,
            measures=answer.measures,
            closure=(
                self._decode_cell(answer.closure)
                if answer.closure is not None
                else None
            ),
        )
        decoded.put_if_generation(
            answer.cell,
            named,
            decoded.generation if generation is None else generation,
        )
        return named

    def _spec_coordinates(self, spec: Mapping[str, object]) -> Coordinates:
        """A spec as schema-ordered coordinates (the documented invariant)."""
        dim_of = self._dim_of
        return tuple(sorted(spec.items(), key=lambda item: dim_of[item[0]]))

    def _unseen_answer(self, spec: Mapping[str, object]) -> NamedAnswer:
        return NamedAnswer(coordinates=self._spec_coordinates(spec), count=None)

    # ------------------------------------------------------------------ #
    # Queries                                                             #
    # ------------------------------------------------------------------ #

    def point(self, spec: Mapping[str, object]) -> NamedAnswer:
        """Aggregate of one cell: ``{dimension name: raw value}``, rest ``*``.

        Any lattice cell is answerable, materialised or not (quotient-cube
        closure semantics); ``count is None`` means empty or below threshold.
        """
        target, unseen = self._target_cell(spec)
        if unseen:
            return self._unseen_answer(spec)
        # Capture the decoded cache's generation before resolving: if a
        # publish lands in between, the write-back below is dropped instead
        # of caching an answer from the superseded cube version.
        generation = self._decoded.generation
        cached = self._decoded.get(target)
        if cached is not None:
            return cached
        return self._decode_answer(self.engine.point(target), generation)

    def slice(
        self,
        fixed: Mapping[str, object],
        group_by: Sequence[str] = (),
    ) -> List[NamedAnswer]:
        """Fix some dimensions by raw value, group by others — one answer per
        iceberg cell of that cuboid, in stable order."""
        fixed_encoded: Dict[int, int] = {}
        for name, raw in fixed.items():
            dim = self._dim_index(name)
            code = self.relation.try_encode(dim, raw)
            if code is None:
                return []  # a never-seen value matches no cell
            fixed_encoded[dim] = code
        group_dims = [self._dim_index(name) for name in group_by]
        generation = self._decoded.generation
        answers = self.engine.slice(fixed_encoded, group_dims)
        # reuse_cached=False: the engine resolved the whole slice at one
        # published version; mixing in decoded-cache entries from a newer
        # publish would tear the result set (see _decode_answer).
        return [
            self._decode_answer(answer, generation, reuse_cached=False)
            for answer in answers
        ]

    def rollup(self, dims: Sequence[str]) -> List[NamedAnswer]:
        """Roll the whole cube up to the cuboid over ``dims``.

        Equivalent to ``slice({}, group_by=dims)``: every other dimension is
        collapsed to ``*``, one answer per iceberg cell of the target cuboid.
        """
        return self.slice({}, group_by=dims)

    def query_many(self, specs: Iterable[QuerySpec]) -> List[BatchResult]:
        """Answer a batch of query specs, preserving input order.

        Each spec is a mapping with an ``"op"`` key naming the operation
        (``"point"``, ``"slice"``, or ``"rollup"``) plus that operation's
        arguments (``"cell"``, ``"fixed"``/``"group_by"``, ``"dims"``).  A
        mapping without an ``"op"`` entry is shorthand for a point query on
        itself; so is a mapping whose ``"op"`` entry is not one of the three
        operation names, provided the schema has a dimension called ``"op"``
        (on such schemas the operation names win the tie — use the explicit
        ``{"op": "point", "cell": ...}`` envelope to query those values).
        """
        results: List[BatchResult] = []
        for spec in specs:
            op = spec.get("op")
            if op == "point":
                results.append(self.point(spec.get("cell", {})))  # type: ignore[arg-type]
            elif op == "slice":
                results.append(
                    self.slice(
                        spec.get("fixed", {}),  # type: ignore[arg-type]
                        spec.get("group_by", ()),  # type: ignore[arg-type]
                    )
                )
            elif op == "rollup":
                results.append(self.rollup(spec.get("dims", ())))  # type: ignore[arg-type]
            elif op is None or "op" in self._dim_of:
                results.append(self.point(spec))
            else:
                raise QueryError(
                    f"unknown query op {op!r}; expected 'point', 'slice', or "
                    "'rollup' (or a bare {dimension: value} point spec)"
                )
        return results

    # ------------------------------------------------------------------ #
    # Maintenance                                                         #
    # ------------------------------------------------------------------ #

    def append(
        self,
        rows: Sequence[object],
        copy_on_publish: bool = False,
        executor: Optional[Executor] = None,
    ) -> "AppendReport":
        """Fold new fact rows into the served cube.

        Rows use the same shapes as :meth:`repro.session.CubeSession.
        from_rows` (tuples in schema order or mappings by column name); value
        dictionaries grow append-only, so previously returned answers and
        encodings stay valid.  An empty ``rows`` is an explicit no-op: the
        returned report says so and no maintenance path is even consulted.

        The maintenance path is chosen per the cube's configuration and
        reported, never silent:

        * full closed cubes (``min_sup == 1``) take the incremental path —
          one lattice sweep over only the appended tuples, merged in by
          aggregation-based checking (see :mod:`repro.incremental.merge`):
          the merge is evaluated against the live store
          while queries keep reading it, then the changed cells' new
          statistics are appended to the store and exactly the affected
          cached answers invalidated in one short exclusive section —
          O(delta), nothing cloned, nothing re-indexed;
        * partitioned cubes refresh partition by partition, recomputing only
          the partitions the appended tuples touched;
        * iceberg (``min_sup > 1``) and non-closed cubes recompute — they
          have discarded information a delta could resurrect, so incremental
          maintenance cannot be exact.

        Every path is safe beside concurrent queries.  ``copy_on_publish`` is
        accepted for compatibility and no longer selects anything (there is
        one publish path; see ``docs/MIGRATION.md``).  ``executor``
        optionally offloads a partitioned cube's per-partition cubing to a
        :class:`concurrent.futures` executor — with a process pool
        (:func:`repro.incremental.parallel.create_refresh_pool`) that
        compute escapes the GIL entirely; delta merges run in process.

        Queries answered after ``append`` returns are exactly the queries a
        from-scratch rebuild over the grown relation would answer.
        """
        from ..incremental.maintainer import AppendReport, CubeMaintainer

        if not rows:
            return AppendReport(0, "no-op", self.algorithm, 0.0)
        with self._maintenance_lock:
            return CubeMaintainer(self, executor=executor).append(rows)

    def append_async(
        self,
        rows: Sequence[object],
        executor: Optional[Executor] = None,
    ) -> "Future[AppendReport]":
        """Apply :meth:`append` in the background; queries keep flowing.

        Runs ``append(rows, executor=executor)`` on a per-cube single worker
        thread and returns the :class:`concurrent.futures.Future` of its
        :class:`~repro.incremental.maintainer.AppendReport`.  Because the
        worker is singular, async appends to one cube apply in submission
        order; because the merge only reads the store until its short
        publish, concurrent queries never block on it — they serve the
        previous published version until then.  This is the
        synchronous-world sibling of
        :meth:`repro.server.AsyncCubeServer.append`.
        """
        if self._append_pool is None:
            with self._maintenance_lock:
                if self._append_pool is None:
                    self._append_pool = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix="repro-append"
                    )
        return self._append_pool.submit(
            partial(self.append, rows, executor=executor)
        )

    def refresh(self) -> None:
        """Recompute the cube from the (possibly grown) relation, in place.

        The cold counterpart of :meth:`append`'s incremental path, and the
        fallback it degrades to: recomputes through the same
        :func:`build_serving_state` path the session used (re-planning when
        the build asked for ``"auto"``), reopens the engine, and clears both
        answer caches.  The cube keeps serving the old state until the
        recomputation finishes.  Like :meth:`append`, refuses to run on a
        cube constructed without an explicit config — rebuilding under
        guessed settings would not match the cube being replaced.
        """
        if not self.config_known:
            from ..core.errors import IncrementalError

            raise IncrementalError(
                "this ServingCube was constructed without a ServingConfig, so "
                "refresh() cannot know how to rebuild it; build it through "
                "CubeSession (or pass config=...) to enable maintenance"
            )
        with self._maintenance_lock:
            cube, engine, algorithm, plan, build_seconds, report = (
                build_serving_state(self.relation, self.config)
            )
            # Publish ordering for concurrent readers: the rebuilt engine is
            # complete before it becomes reachable, it carries the next
            # version, and the decoded cache's generation advances only after
            # the swap (so readers that resolved against the old engine
            # cannot write back afterwards — see LRUCache.put_if_generation).
            engine.version = self.engine.version + 1
            old_engine = self.engine
            if isinstance(engine, QueryEngine) and isinstance(old_engine, QueryEngine):
                # The workload log and any installed rollups survive a full
                # rebuild: the shape history is about the query stream, not
                # the cube version, and the tables are rebuilt at the same
                # grains over the grown relation before the engine becomes
                # reachable (so the first routed read is already fresh).
                engine.recorder = old_engine.recorder
                if old_engine.router is not None:
                    engine.router = self._rebuilt_router(old_engine.router)
            self.cube = cube
            self.engine = engine
            self.algorithm = algorithm
            if plan is not None:
                self.plan = plan
            if build_seconds is not None:
                self.build_seconds = build_seconds
            if report is not None:
                self.partition_report = report
            self.clear_cache()

    # ------------------------------------------------------------------ #
    # Adaptive rollups                                                    #
    # ------------------------------------------------------------------ #

    def _measure_set(self) -> "MeasureSet":
        from ..core.measures import MeasureSet

        return MeasureSet(tuple(self.config.measures))

    def _rebuilt_router(self, old_router: object) -> object:
        """A fresh router carrying ``old_router``'s grains over the current
        relation (used by :meth:`refresh` to keep rollups across rebuilds)."""
        from ..rollup import RollupRouter, RollupTable

        router = RollupRouter(min_sup=self.config.min_sup)
        router.hits = dict(old_router.hits)
        router.counters = dict(old_router.counters)
        measures = self._measure_set()
        router.tables = {
            grain: RollupTable.build(self.relation, grain, measures)
            for grain in old_router.tables
        }
        return router

    def enable_rollups(
        self,
        budget_bytes: Optional[int] = None,
        top_k: Optional[int] = None,
        min_hits: int = 1,
    ) -> Dict[str, object]:
        """Mine the query log and materialise the hottest rollup grains.

        Runs the :mod:`repro.rollup.advisor` over the engine's
        :class:`~repro.rollup.recorder.ShapeRecorder`, builds the chosen
        tables, and installs (or refreshes) the
        :class:`~repro.rollup.router.RollupRouter` under the engine's write
        lock.  Subsequent queries whose dimension set an installed grain
        covers are answered from the flat tables — exactly (iceberg filtering
        happens at serve time), falling back to the closed-cube engine for
        everything else.  Safe to call repeatedly as the workload drifts;
        omitted parameters reuse the previous call's (or the defaults).
        Returns a JSON-ready report of what was installed and skipped.

        Requires an explicit config (maintenance must know ``min_sup`` and
        the measures) and the single-engine serving path — partitioned cubes
        shard by a dimension value and have no one relation-wide engine to
        route for.
        """
        from ..rollup import (
            DEFAULT_BUDGET_BYTES,
            DEFAULT_TOP_K,
            RollupRouter,
            materialise_rollups,
        )

        if not self.config_known:
            raise QueryError(
                "enable_rollups() needs the cube's real configuration "
                "(min_sup, measures); build through CubeSession or pass "
                "config=... to ServingCube"
            )
        engine = self.engine
        if not isinstance(engine, QueryEngine):
            raise QueryError(
                "rollup routing requires the single-engine serving path; "
                "partitioned cubes are not supported"
            )
        stored = self._rollup_params or {}
        if budget_bytes is None:
            budget_bytes = stored.get("budget_bytes", DEFAULT_BUDGET_BYTES)
        if top_k is None:
            top_k = stored.get("top_k", DEFAULT_TOP_K)
        with self._maintenance_lock:
            choices, tables = materialise_rollups(
                self.relation,
                engine.recorder,
                self._measure_set(),
                budget_bytes=budget_bytes,
                top_k=top_k,
                min_hits=min_hits,
            )
            router = engine.router
            if router is None:
                router = RollupRouter(min_sup=self.config.min_sup)
            with engine.lock.write():
                router.tables = tables
                engine.router = router
            self._rollup_params = {
                "budget_bytes": budget_bytes,
                "top_k": top_k,
                "min_hits": min_hits,
            }
            return {
                "installed": [c.as_dict() for c in choices if c.chosen],
                "skipped": [c.as_dict() for c in choices if not c.chosen],
                "budget_bytes": budget_bytes,
                "top_k": top_k,
                "total_bytes": router.total_bytes(),
            }

    def advise_rollups(
        self,
        budget_bytes: Optional[int] = None,
        top_k: Optional[int] = None,
        min_hits: int = 1,
    ) -> Dict[str, object]:
        """Dry-run the advisor over the current query log; nothing is built.

        The estimation-only sibling of :meth:`enable_rollups` (and the body
        of the server's ``advise`` verb): returns every candidate grain with
        its traffic, estimated size, and whether it would be materialised
        under the given budget and ``top_k``.  Omitted parameters reuse the
        last :meth:`enable_rollups` call's (or the defaults).
        """
        from ..rollup import DEFAULT_BUDGET_BYTES, DEFAULT_TOP_K, advise_rollups

        engine = self.engine
        if not isinstance(engine, QueryEngine):
            raise QueryError(
                "rollup routing requires the single-engine serving path; "
                "partitioned cubes are not supported"
            )
        stored = self._rollup_params or {}
        if budget_bytes is None:
            budget_bytes = stored.get("budget_bytes", DEFAULT_BUDGET_BYTES)
        if top_k is None:
            top_k = stored.get("top_k", DEFAULT_TOP_K)
        choices = advise_rollups(
            self.relation,
            engine.recorder,
            self._measure_set(),
            budget_bytes=budget_bytes,
            top_k=top_k,
            min_hits=min_hits,
        )
        return {
            "budget_bytes": budget_bytes,
            "top_k": top_k,
            "choices": [choice.as_dict() for choice in choices],
        }

    def disable_rollups(self) -> None:
        """Uninstall the router; every query falls back to the engine."""
        engine = self.engine
        if isinstance(engine, QueryEngine) and engine.router is not None:
            with engine.lock.write():
                engine.router = None
        self._rollup_params = None

    def rollup_stats(self) -> Dict[str, object]:
        """Router statistics with grain dimensions decoded to names."""
        engine = self.engine
        if not isinstance(engine, QueryEngine) or engine.router is None:
            return {"enabled": False}
        stats = engine.router.stats()
        names = self.schema.dimensions
        for entry in stats["tables"].values():
            entry["dimensions"] = [names[dim] for dim in entry["dims"]]
        return stats

    # ------------------------------------------------------------------ #
    # Persistence                                                        #
    # ------------------------------------------------------------------ #

    def save(self, path: str, format: str = "v2") -> int:
        """Snapshot the full serving state to ``path``.

        Writes the versioned format of :mod:`repro.storage.snapshot` (schema,
        value dictionaries, closed cells with measure state, configuration);
        returns the snapshot size in bytes.  ``format`` picks the layout:
        ``"v2"`` (default) streams chunked, checksummed frames and persists
        the closure index's posting lists for fast reloads; ``"v1"`` writes
        the original monolithic pickle.  Load with :meth:`load` — both
        formats round-trip.

        Serialised against maintenance: a snapshot taken while an append is
        in flight waits for it, so it always captures a published version.
        """
        from ..storage.snapshot import save_snapshot

        with self._maintenance_lock:
            return save_snapshot(self, path, format=format)

    def save_delta(self, path: str, start_tid: int) -> int:
        """Write the rows appended since ``start_tid`` as a delta segment.

        The incremental counterpart of :meth:`save`: instead of rewriting the
        whole snapshot, persist only the appended column tails (see
        :func:`repro.storage.snapshot.save_delta_segment`).  Reload with
        ``ServingCube.load(base_path, segments=[...])``.  Only
        exact-maintenance configurations (full closed cubes) can be
        segmented; others raise :class:`~repro.core.errors.SnapshotError`.
        Returns the segment size in bytes.
        """
        from ..storage.snapshot import save_delta_segment

        with self._maintenance_lock:
            return save_delta_segment(self, path, start_tid)

    @classmethod
    def load(cls, path: str, segments: Sequence[str] = ()) -> "ServingCube":
        """Rebuild a serving cube from a :meth:`save` snapshot.

        The returned cube answers every query the saved one answered and
        keeps its maintenance abilities — appending and re-snapshotting a
        loaded cube is the intended warm-restart loop.  The snapshot's format
        version is auto-detected; ``segments`` optionally folds
        :meth:`save_delta` segments (in write order) into the base before the
        engine opens.

        Only load trusted files: the snapshot payload is pickle, so loading
        a crafted file executes arbitrary code (see
        :mod:`repro.storage.snapshot`).
        """
        from ..storage.snapshot import load_snapshot

        return load_snapshot(path, segments=segments)

    # ------------------------------------------------------------------ #
    # Versioned reads                                                     #
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Number of cube versions published so far (0 for the initial build).

        Incremented by every append / refresh publish; each answer is
        attributable to exactly one version (the interleaving tests lean on
        this).
        """
        return self.engine.version

    def read_snapshot(self) -> "CubeView":
        """Pin the currently published cube version for repeated reads.

        Returns a :class:`CubeView` whose queries all answer against the one
        version that was published when this was called, regardless of
        appends landing afterwards — the "repeatable read" the concurrent
        server offers alongside the always-latest :meth:`point` path.

        Pinning copies nothing: the cube's store is append-only and keeps the
        statistics appends supersede, so the view is the live store plus two
        lengths it had at this moment — its slot count and its supersession
        log's (:class:`repro.query.index.PinnedIndex`).
        """
        engine = self.engine
        with engine.lock.read():
            version = engine.version
            if isinstance(engine, QueryEngine):
                frozen: Union[QueryEngine, PartitionedQueryEngine] = QueryEngine(
                    engine.cube, cache_size=0, index=PinnedIndex(engine.index)
                )
                # The pin reads the store the live engine appends to, so its
                # readers queue behind the same publishes.
                frozen.lock = engine.lock
            else:
                # Shards are regrouped from the pinned cube: O(cells) per
                # snapshot, the price of repeatable reads on a sharded cube.
                frozen = PartitionedQueryEngine(
                    engine.cube,
                    partition_dim=engine.partition_dim,
                    cache_size=0,
                )
        return CubeView(self, version, frozen)

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def explain(self, spec: Mapping[str, object]) -> Explanation:
        """Answer a point query and report *how* it was answered.

        The explanation names the materialised closed cell that covered the
        answer (the closure), whether the queried cell was itself
        materialised, and whether the engine's cache already held the answer
        when this call arrived.
        """
        target, unseen = self._target_cell(spec)
        if unseen:
            return Explanation(
                question=self._spec_coordinates(spec),
                answer=self._unseen_answer(spec),
                covering_cell=None,
                direct_hit=False,
                from_cache=False,
                algorithm=self.algorithm,
                plan=self.plan,
            )
        generation = self._decoded.generation
        from_cache = target in self.engine.cache
        answer = self.engine.point(target)
        named = self._decode_answer(answer, generation)
        return Explanation(
            question=named.coordinates,
            answer=named,
            covering_cell=named.closure,
            direct_hit=answer.closure == answer.cell,
            from_cache=from_cache,
            algorithm=self.algorithm,
            plan=self.plan,
        )

    def stats(self) -> Dict[str, object]:
        """Serving statistics of the underlying engine, plus build facts."""
        stats = dict(self.engine.stats())
        stats["algorithm"] = self.algorithm
        stats["materialised_cells"] = len(self.cube)
        stats["fact_rows"] = self.relation.num_tuples
        stats["cache_info"] = self.cache_info()
        stats["rollups"] = self.rollup_stats()
        stats["store"] = self.store_stats()
        if self.build_seconds is not None:
            stats["build_seconds"] = self.build_seconds
        return stats

    def store_stats(self) -> Dict[str, int]:
        """Shape of the cube's append-only store.

        The store holds ``slots`` statistics records: one per each of the
        ``live_cells`` materialised cells plus ``superseded`` ones that later
        appends outgrew, kept for pinned views until the next of the
        ``compactions`` rebuilds drops them.  ``limit`` is the published slot
        count a :meth:`read_snapshot` taken now would pin.  A partitioned
        cube keeps no superseded records: its refresh swaps whole shards.
        """
        engine = self.engine
        superseded = engine.index.superseded if isinstance(engine, QueryEngine) else 0
        return {
            "live_cells": len(self.cube),
            "slots": len(self.cube) + superseded,
            "superseded": superseded,
            "compactions": self.store_compactions,
            "limit": len(self.cube),
        }

    def cache_info(self) -> Dict[str, Dict[str, object]]:
        """Hit/miss/eviction/invalidation counters of both serving caches.

        ``"answers"`` is the engine's encoded answer cache, ``"decoded"`` the
        named layer's decoded-answer cache — a straight passthrough of
        :meth:`repro.query.cache.LRUCache.stats` for each, so dashboards can
        watch hit rates and invalidation churn end to end.
        """
        return {
            "answers": self.engine.cache.stats(),
            "decoded": self._decoded.stats(),
        }

    def clear_cache(self) -> None:
        """Drop every cached answer (encoded, slices, and decoded); counters
        survive.

        Called by the maintenance fallbacks (:meth:`refresh`, partition
        refresh) where targeted invalidation has nothing precise to target;
        also useful for benchmarking cold paths.
        """
        self.engine.clear_caches()
        self._decoded.clear()

    def __len__(self) -> int:
        """Number of materialised cells."""
        return len(self.cube)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingCube(dims={list(self.schema.dimensions)}, "
            f"cells={len(self.cube)}, algorithm={self.algorithm!r})"
        )


class CubeView:
    """A pinned read view of one published cube version (repeatable reads).

    Produced by :meth:`ServingCube.read_snapshot`.  Every query on the view
    answers against the cube version that was published at snapshot time: the
    store only ever appends, and what it appended is never mutated, so two
    identical queries on one view always agree, no matter how many appends
    publish in between.

    Views are deliberately cache-free: they exist for consistency, not
    throughput, and must not write stale answers into the live caches.
    """

    def __init__(
        self,
        serving: ServingCube,
        version: int,
        engine: Union[QueryEngine, PartitionedQueryEngine],
    ) -> None:
        self._serving = serving
        #: The published version this view pins.
        self.version = version
        self._engine = engine

    def _decode(self, answer: QueryAnswer) -> NamedAnswer:
        serving = self._serving
        return NamedAnswer(
            coordinates=serving._decode_cell(answer.cell),
            count=answer.count,
            measures=answer.measures,
            closure=(
                serving._decode_cell(answer.closure)
                if answer.closure is not None
                else None
            ),
        )

    def point(self, spec: Mapping[str, object]) -> NamedAnswer:
        """:meth:`ServingCube.point`, answered at the pinned version."""
        target, unseen = self._serving._target_cell(spec)
        if unseen:
            return self._serving._unseen_answer(spec)
        return self._decode(self._engine.point(target))

    def slice(
        self,
        fixed: Mapping[str, object],
        group_by: Sequence[str] = (),
    ) -> List[NamedAnswer]:
        """:meth:`ServingCube.slice`, answered at the pinned version."""
        serving = self._serving
        fixed_encoded: Dict[int, int] = {}
        for name, raw in fixed.items():
            dim = serving._dim_index(name)
            code = serving.relation.try_encode(dim, raw)
            if code is None:
                return []
            fixed_encoded[dim] = code
        group_dims = [serving._dim_index(name) for name in group_by]
        answers = self._engine.slice(fixed_encoded, group_dims)
        return [self._decode(answer) for answer in answers]

    def rollup(self, dims: Sequence[str]) -> List[NamedAnswer]:
        """:meth:`ServingCube.rollup`, answered at the pinned version."""
        return self.slice({}, group_by=dims)

    def query_many(self, specs: Iterable[QuerySpec]) -> List[BatchResult]:
        """:meth:`ServingCube.query_many`, answered at the pinned version.

        Same op-spec dispatch (``"point"`` / ``"slice"`` / ``"rollup"``, bare
        mappings as point shorthand), every answer resolved against this
        view's one pinned version — the batch surface follower servers
        (:mod:`repro.replication`) hand their whole dispatch loop to.
        """
        results: List[BatchResult] = []
        for spec in specs:
            op = spec.get("op")
            if op == "point":
                results.append(self.point(spec.get("cell", {})))  # type: ignore[arg-type]
            elif op == "slice":
                results.append(
                    self.slice(
                        spec.get("fixed", {}),  # type: ignore[arg-type]
                        spec.get("group_by", ()),  # type: ignore[arg-type]
                    )
                )
            elif op == "rollup":
                results.append(self.rollup(spec.get("dims", ())))  # type: ignore[arg-type]
            elif op is None or "op" in self._serving._dim_of:
                results.append(self.point(spec))
            else:
                raise QueryError(
                    f"unknown query op {op!r}; expected 'point', 'slice', or "
                    "'rollup' (or a bare {dimension: value} point spec)"
                )
        return results

    def __len__(self) -> int:
        """Materialised cells at the pinned version."""
        engine = self._engine
        return len(engine.index if isinstance(engine, QueryEngine) else engine.cube)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CubeView(version={self.version}, cells={len(self)})"
