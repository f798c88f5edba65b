"""Append orchestration: sweep the new rows → evaluate merge → publish slots.

:class:`CubeMaintainer` is the engine room behind
:meth:`repro.session.serving.ServingCube.append`.  Given freshly appended raw
rows it:

1. splits and appends them to the serving relation
   (:meth:`~repro.core.relation.Relation.append_rows` — value dictionaries
   grow append-only, so every existing code stays valid),
2. *evaluates* the merge of the new tid window into the served cube
   (:func:`repro.incremental.merge.merge_closed_cubes` with ``apply=False``:
   one lattice sweep over the appended rows, then a pure add for every
   touched cell the cube already materialises and a Lemma 3 closedness merge
   for the few it does not) — this only reads the live store, so queries in
   other threads keep flowing, with a GIL yield between candidate batches —
   and
3. hands the resulting slots to :meth:`repro.query.engine.QueryEngine.
   publish`, which appends them to the store, swaps the rollup tables and
   invalidates exactly the cached answers the changed cells can affect (the
   engine's encoded caches and the session's decoded cache) in one short
   exclusive section.

Every step is O(delta): no cubing algorithm runs, nothing is cloned and
nothing is re-indexed.  What an append leaves behind is one superseded
statistics record per cell it grew (kept for pinned views); once those
outnumber the live cells (:func:`CubeMaintainer._compact_store`) the store is
rebuilt without them off the hot path and swapped in, which amortises to
O(delta) per append as well.

When the incremental path cannot be exact it degrades explicitly rather than
approximately: iceberg cubes (``min_sup > 1``) and non-closed cubes fall back
to a full recompute (the cube has discarded information a delta could
resurrect), partitioned cubes take the per-partition refresh path
(:meth:`repro.storage.partition.PartitionedCubeComputer.refresh`), and
relations beyond :data:`MAX_DELTA_DIMS` dimensions recompute because the
number of cells an appended row touches is exponential in dimensionality.
The chosen path is reported, never silent.

``executor`` ships the per-partition recomputes of a partitioned refresh to a
:mod:`concurrent.futures` executor — with the process pool from
:func:`repro.incremental.parallel.create_refresh_pool` that CPU burn escapes
the GIL and the serving threads entirely.  Delta merges always run in
process: they cost less than shipping the relation to a worker would.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from ..core.errors import IncrementalError, MeasureError
from ..core.measures import MeasureSet
from ..query.engine import QueryEngine
from .merge import MergeReport
from .parallel import picklable_order

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session.serving import ServingCube

logger = logging.getLogger(__name__)

#: Beyond this many dimensions the merge's candidates (all cells with delta
#: support — 2^D per distinct appended row in the worst case) lose to
#: recomputation; appends fall back to a full rebuild.
MAX_DELTA_DIMS = 12

#: Candidates evaluated between scheduler yields by the chunked merge.  At a
#: few µs per candidate this keeps each GIL-holding stretch under ~10 ms.
MERGE_BATCH_SIZE = 2048

#: What a delta-merge append reports as its algorithm: no cubing algorithm
#: runs, the append window is swept by
#: :func:`repro.vector.kernels.delta_support_sweep`.
DELTA_SWEEP = "delta-sweep"


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
    #: Algorithm that computed the rebuild or the partitions;
    #: :data:`DELTA_SWEEP` on the delta-merge path, which runs none.
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
        # Resolved per call so that a tracer wrapping the module attribute
        # sees this call too.
        from .merge import merge_closed_cubes

        serving = self.serving
        relation = serving.relation
        # Evaluation only reads the served store, so queries keep answering
        # from it; the slots land in the publish below.
        report = merge_closed_cubes(
            serving.cube,
            relation,
            start_tid,
            measures=MeasureSet(tuple(serving.config.measures)),
            batch_size=MERGE_BATCH_SIZE,
            yield_between_batches=_yield_gil,
            apply=False,
        )
        engine = serving.engine
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
            algorithm=DELTA_SWEEP,
            elapsed_seconds=time.perf_counter() - started,
            invalidated_answers=invalidated,
            merge=report,
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
