"""Append orchestration: delta-compute → evaluate merge → publish the slots.

:class:`CubeMaintainer` is the engine room behind
:meth:`repro.session.serving.ServingCube.append`.  Given freshly appended raw
rows it:

1. splits and appends them to the serving relation
   (:meth:`~repro.core.relation.Relation.append_rows` — value dictionaries
   grow append-only, so every existing code stays valid),
2. plans a cubing algorithm for the *delta window* only (the same Figure 15
   planner the build used, consulted with the delta's shape — a delta is
   often much denser or smaller than the base, so its best engine differs),
3. computes the delta closed cube over just the appended tuples
   (:meth:`~repro.algorithms.base.CubingAlgorithm.run_delta`),
4. *evaluates* its merge into the served cube with aggregation-based
   closedness repair (:func:`repro.incremental.merge.merge_closed_cubes`
   with ``apply=False``) — this only reads the live store, so queries in
   other threads keep flowing, with a GIL yield between candidate batches —
   and
5. hands the resulting slots to :meth:`repro.query.engine.QueryEngine.
   publish`, which appends them to the store, swaps the rollup tables and
   invalidates exactly the cached answers the changed cells can affect (the
   engine's encoded caches and the session's decoded cache) in one short
   exclusive section.

Every step is O(delta): nothing is cloned and nothing is re-indexed.  What an
append leaves behind is one superseded statistics record per cell it grew
(kept for pinned views); once those outnumber the live cells
(:func:`CubeMaintainer._compact_store`) the store is rebuilt without them off
the hot path and swapped in, which amortises to O(delta) per append as well.

When the incremental path cannot be exact it degrades explicitly rather than
approximately: iceberg cubes (``min_sup > 1``) and non-closed cubes fall back
to a full recompute (the cube has discarded information a delta could
resurrect), partitioned cubes take the per-partition refresh path
(:meth:`repro.storage.partition.PartitionedCubeComputer.refresh`), and
relations beyond :data:`MAX_DELTA_DIMS` dimensions recompute because the
merge's candidate enumeration is exponential in dimensionality in the worst
case.  The chosen path is reported, never silent.

``executor`` ships the cubing work (the delta cube and, for small cubes, the
whole merge evaluation; the per-partition recomputes) to a
:mod:`concurrent.futures` executor — with the process pool from
:func:`repro.incremental.parallel.create_refresh_pool`, an append's CPU burn
escapes the GIL and the serving threads entirely.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from ..algorithms.base import CubingOptions, get_algorithm
from ..core.cube import CubeResult
from ..core.errors import IncrementalError, MeasureError
from ..core.measures import MeasureSet
from ..query.engine import QueryEngine
from .merge import MergeReport
from .parallel import (
    MergeTask,
    WorkerCacheMiss,
    compute_delta_cube,
    merge_state_token,
    picklable_order,
    run_merge_task,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session.serving import ServingCube

logger = logging.getLogger(__name__)

#: Beyond this many dimensions the merge's candidate enumeration (all cells
#: with delta support — worst case exponential in D) loses to recomputation;
#: appends fall back to a full rebuild.
MAX_DELTA_DIMS = 12

#: Beyond this many materialised cells the remote-merge offload stops paying:
#: a cold task pickles the whole base cube plus the grown relation to the
#: worker, an O(total data) per-append cost that would silently grow with
#: the cube.  The worker-resident cache usually avoids the resend (a warm
#: append ships delta-only), but the cold-path cost still bounds the mode;
#: larger cubes offload the delta *compute* (O(delta) payload) and merge in
#: process.
REMOTE_MERGE_MAX_CELLS = 200_000

#: Candidates evaluated between scheduler yields by the chunked merge.  At
#: ~10–30 µs per candidate this keeps each GIL-holding stretch well under
#: 100 ms.
MERGE_BATCH_SIZE = 2048


def _yield_gil() -> None:
    """Hand the GIL (and thereby the event loop's thread) a turn mid-merge."""
    time.sleep(0)


@dataclass(frozen=True)
class AppendReport:
    """How one :meth:`ServingCube.append` call was served."""

    #: Number of fact rows appended.
    appended_rows: int
    #: ``"delta-merge"``, ``"partition-refresh"``, ``"full-recompute"``, or
    #: ``"no-op"`` (empty input).
    mode: str
    #: Algorithm that computed the delta (or the rebuild).
    algorithm: str
    #: Wall-clock seconds for the whole append.
    elapsed_seconds: float
    #: Cached answers dropped by targeted invalidation (encoded answers,
    #: cached slices, and decoded answers combined).
    invalidated_answers: int = 0
    #: Merge bookkeeping for the delta-merge path.
    merge: Optional[MergeReport] = None
    #: Partition values recomputed by the partition-refresh path.
    refreshed_partitions: Optional[Tuple[int, ...]] = None
    #: How the remote-merge path shipped its payload (``"delta-send"``,
    #: ``"full-send (cold)"``, ``"full-send (miss)"``); ``None`` off that path.
    merge_cache: Optional[str] = None
    #: Seconds the delta-merge publish held the engine's write lock — the
    #: only stretch of the append during which queries wait.
    publish_seconds: float = 0.0

    def describe(self) -> str:
        lines = [
            f"append({self.appended_rows} rows) served by {self.mode} "
            f"in {self.elapsed_seconds:.4f}s (algorithm {self.algorithm!r})"
        ]
        if self.merge is not None:
            lines.append("-> " + self.merge.describe())
        if self.merge_cache is not None:
            lines.append(f"-> remote merge payload: {self.merge_cache}")
        if self.refreshed_partitions is not None:
            lines.append(
                f"-> recomputed partitions {sorted(self.refreshed_partitions)!r}"
            )
        lines.append(f"-> invalidated {self.invalidated_answers} cached answers")
        return "\n".join(lines)


class CubeMaintainer:
    """Applies appends to one :class:`~repro.session.serving.ServingCube`."""

    def __init__(
        self,
        serving: "ServingCube",
        executor: Optional[Executor] = None,
    ) -> None:
        self.serving = serving
        self.executor = executor

    # ------------------------------------------------------------------ #

    def append(self, rows: Sequence[object]) -> AppendReport:
        serving = self.serving
        start = time.perf_counter()
        if not serving.config_known:
            # Guessing min_sup / closed / measures and maintaining under the
            # guess would corrupt the cube silently; refuse before touching
            # the relation.
            raise IncrementalError(
                "this ServingCube was constructed without a ServingConfig, so "
                "maintenance cannot know how its cube was computed; build it "
                "through CubeSession (or pass config=...) to enable append()"
            )
        if not rows:
            return AppendReport(0, "no-op", serving.algorithm, 0.0)
        dim_rows, measure_values = serving.schema.split_rows(rows)
        start_tid, end_tid = serving.relation.append_rows(dim_rows, measure_values)
        if end_tid == start_tid:
            return AppendReport(0, "no-op", serving.algorithm, 0.0)
        if serving.config.partitioned:
            return self._refresh_partitions(start_tid, start)
        if self._delta_eligible():
            try:
                return self._delta_merge(start_tid, start)
            except (IncrementalError, MeasureError):
                # Exactness over cleverness: anything the merge cannot prove
                # (missing rep_tids, non-reconstructible measures) recomputes.
                pass
        # refresh() clears both answer caches; count them first so the
        # report's "encoded + decoded" contract holds in every mode.
        invalidated = (len(serving.engine.cache) + len(serving.engine.slice_cache)
                       + len(serving._decoded))
        serving.refresh()
        return AppendReport(
            appended_rows=end_tid - start_tid,
            mode="full-recompute",
            algorithm=serving.algorithm,
            elapsed_seconds=time.perf_counter() - start,
            invalidated_answers=invalidated,
        )

    # ------------------------------------------------------------------ #

    def _delta_eligible(self) -> bool:
        config = self.serving.config
        return (
            config.closed
            and config.min_sup == 1
            and isinstance(self.serving.engine, QueryEngine)
            and self.serving.relation.num_dimensions <= MAX_DELTA_DIMS
        )

    def _merged_rollups(self, relation) -> Optional[dict]:
        """The next generation of rollup tables, derived from the same delta.

        Each installed table folds in exactly its own uncovered window (a
        table's ``covered_tuples``, not this append's ``start_tid`` — tables
        installed mid-stream stay exact), with the same chunked-yield
        discipline as the cube merge.  ``None`` when no router is installed,
        so the publish can skip the rollup swap entirely.
        """
        engine = self.serving.engine
        router = getattr(engine, "router", None)
        if router is None or not router.tables:
            return None
        return {
            grain: table.merged_delta(
                relation,
                batch_size=MERGE_BATCH_SIZE,
                yield_between_batches=_yield_gil,
            )
            for grain, table in router.tables.items()
        }

    def _delta_merge(self, start_tid: int, started: float) -> AppendReport:
        from ..session.planner import plan_algorithm

        # Resolved per call, like CubeResult.merge does, so that a tracer
        # wrapping the module attribute sees this call too.
        from .merge import merge_closed_cubes

        serving = self.serving
        relation = serving.relation
        config = serving.config
        measures = MeasureSet(tuple(config.measures))
        delta_relation = relation.select(range(start_tid, relation.num_tuples))
        plan = plan_algorithm(
            delta_relation, min_sup=1, closed=True, with_measures=bool(measures)
        )
        report: Optional[MergeReport] = None
        payload_mode: Optional[str] = None
        if (
            self.executor is not None
            and picklable_order(config.dimension_order)
            and len(serving.cube) <= REMOTE_MERGE_MAX_CELLS
        ):
            remote = self._remote_merge(relation, start_tid, plan.algorithm)
            if remote is not None:
                report, delta_algorithm, payload_mode = remote
        if report is None:
            delta_cube, delta_algorithm = self._compute_delta(
                relation, delta_relation, start_tid, plan.algorithm, measures
            )
            # Evaluation only reads the served store, so queries keep
            # answering from it; the slots land in the publish below.
            report = merge_closed_cubes(
                serving.cube,
                delta_cube,
                relation,
                measures=measures,
                batch_size=MERGE_BATCH_SIZE,
                yield_between_batches=_yield_gil,
                apply=False,
            )
        engine = serving.engine
        # Rollup tables are maintained in process even when the cube merge
        # ran remotely: their delta aggregation is one kernel pass over the
        # append window, far below the cube merge the offload exists for.
        invalidated = engine.publish(
            report.slots,
            extra_caches=[serving._decoded],
            rollups=self._merged_rollups(relation),
        )
        publish_seconds = engine.publish_seconds
        if engine.index.superseded > len(engine.index):
            self._compact_store()
        return AppendReport(
            appended_rows=relation.num_tuples - start_tid,
            mode="delta-merge",
            algorithm=delta_algorithm,
            elapsed_seconds=time.perf_counter() - started,
            invalidated_answers=invalidated,
            merge=report,
            merge_cache=payload_mode,
            publish_seconds=publish_seconds,
        )

    def _compact_store(self) -> None:
        """Rebuild the served store without its superseded statistics.

        Fires when superseded records outnumber live cells, so the O(cube)
        clone and re-index below are paid at most once per "cube's worth" of
        grown cells — amortised O(delta) per append — and the store never
        holds more than about twice the live cube.  Runs off the hot path
        (readers only wait for the reference swap) and leaves views pinned
        on the old store answering from it.
        """
        serving = self.serving
        engine = serving.engine
        started = time.perf_counter()
        slots_before = len(engine.index) + engine.index.superseded
        fresh = serving.cube.clone()
        engine.swap_store(fresh)
        serving.cube = fresh
        serving.store_compactions += 1
        logger.info(
            "store compaction: %d stats records -> %d live cells in %.4fs",
            slots_before,
            len(fresh),
            time.perf_counter() - started,
            extra={
                "event": "store_compaction",
                "slots_before": slots_before,
                "live_cells": len(fresh),
                "compactions": serving.store_compactions,
            },
        )

    def _remote_merge(
        self,
        relation,
        start_tid: int,
        algorithm: str,
    ) -> Optional[Tuple[MergeReport, str, str]]:
        """Evaluate the whole merge in the executor.

        The worker computes the delta cube *and* runs closedness repair — the
        two CPU-heavy phases — against its own copy of the base cube, and
        sends back the merge report whose slots the caller publishes.
        Returns ``(report, delta algorithm, payload mode)``, or ``None`` on
        executor infrastructure failure (broken pool, pickling), sending the
        caller down the in-process path; exactness errors raised by the merge
        itself propagate so the usual full-recompute fallback fires.

        Worker-resident merge state: the base cube's cell list only crosses
        the process boundary cold.  Each task asks the worker to retain the
        post-merge cube under ``(serving token, covered tuples)``; once one
        append has primed a worker, subsequent tasks ship delta-only (a
        ``cache_key`` instead of the cells) and fall back to a one-shot full
        resend when :class:`WorkerCacheMiss` says the pool routed the task
        to an unprimed worker.
        """
        serving = self.serving
        config = serving.config
        token = merge_state_token(serving)
        cache_key = (token, start_tid)
        store_key = (token, relation.num_tuples)
        base_task = dict(
            relation=relation,
            start_tid=start_tid,
            algorithm=algorithm,
            measures=tuple(config.measures),
            dimension_order=config.dimension_order,
            cache_key=cache_key,
            store_key=store_key,
        )
        outcome = None
        payload_mode = "full-send (cold)"
        cache_stats = serving.merge_cache_stats
        if getattr(serving, "_merge_state_hint", None) == cache_key:
            # Some worker holds the post-merge cube of the previous append;
            # try the delta-only payload first.
            try:
                outcome = self.executor.submit(
                    run_merge_task, MergeTask(base_cells=None, **base_task)
                ).result()
                payload_mode = "delta-send"
                cache_stats["delta_sends"] += 1
            except WorkerCacheMiss:
                outcome = None
                payload_mode = "full-send (miss)"
                cache_stats["misses"] += 1
            except (IncrementalError, MeasureError):
                raise
            except Exception:
                return None
        if outcome is None:
            task = MergeTask(
                base_cells=[
                    (cell, stats.count, dict(stats.measures), stats.rep_tid)
                    for cell, stats in serving.cube.items()
                ],
                **base_task,
            )
            try:
                outcome = self.executor.submit(run_merge_task, task).result()
                cache_stats["full_sends"] += 1
            except (IncrementalError, MeasureError):
                raise
            except Exception:
                return None
        serving._merge_state_hint = store_key
        return outcome.report, outcome.algorithm, payload_mode

    def _compute_delta(
        self,
        relation,
        delta_relation,
        start_tid: int,
        algorithm: str,
        measures: MeasureSet,
    ) -> Tuple[CubeResult, str]:
        """The delta closed cube, offloaded to the executor when possible."""
        config = self.serving.config
        if self.executor is not None and picklable_order(config.dimension_order):
            try:
                cube = compute_delta_cube(
                    self.executor,
                    delta_relation,
                    start_tid,
                    algorithm,
                    measures=tuple(config.measures),
                    dimension_order=config.dimension_order,
                )
                return cube, algorithm
            except (IncrementalError, MeasureError):
                raise
            except Exception:
                # A broken pool or an unpicklable payload must not lose the
                # append: the in-process path below is always available.
                pass
        options = CubingOptions(
            min_sup=1,
            closed=True,
            measures=measures,
            dimension_order=config.dimension_order,
        )
        delta_result = get_algorithm(algorithm, options).run_delta(
            relation, start_tid, delta_relation=delta_relation
        )
        return delta_result.cube, delta_result.algorithm

    def _refresh_partitions(self, start_tid: int, started: float) -> AppendReport:
        from ..storage.partition import PartitionedCubeComputer

        serving = self.serving
        relation = serving.relation
        config = serving.config
        partition_dim = serving.engine.partition_dim
        executor = (
            self.executor
            if self.executor is not None and picklable_order(config.dimension_order)
            else None
        )
        computer = PartitionedCubeComputer(
            algorithm=serving.algorithm,
            min_sup=config.min_sup,
            closed=config.closed,
            dimension_order=config.dimension_order,
        )
        cube, part_report = computer.refresh(
            relation, serving.cube, partition_dim, start_tid, executor=executor
        )
        changed_values = sorted(part_report.refreshed_partitions or ())
        # refresh() clears the caches; count them first so the report's
        # "encoded + decoded" contract holds.
        invalidated = (len(serving.engine.cache) + len(serving.engine.slice_cache)
                       + len(serving._decoded))
        serving.cube = cube
        serving.partition_report = part_report
        # Replacement shards are grouped and indexed off the hot path and
        # swapped in under the engine's write lock.
        serving.engine.refresh(cube, changed_values, extra_caches=[serving._decoded])
        return AppendReport(
            appended_rows=relation.num_tuples - start_tid,
            mode="partition-refresh",
            algorithm=serving.algorithm,
            elapsed_seconds=time.perf_counter() - started,
            invalidated_answers=invalidated,
            refreshed_partitions=tuple(changed_values),
        )
