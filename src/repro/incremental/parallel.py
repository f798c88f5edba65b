"""Process-pool work units for cube maintenance.

Cubing is pure CPU, so running a refresh inside the serving process steals
the GIL from every query thread even when the merge itself is off the hot
path.  This module packages one cubing run as a picklable task so the
maintenance layers can ship it to a :class:`concurrent.futures.
ProcessPoolExecutor` and keep the serving process responsive:

* the delta cube of an append (:meth:`repro.incremental.maintainer.
  CubeMaintainer` with an ``executor``) — one task over the delta window;
* the per-partition recomputes of a partitioned refresh
  (:meth:`repro.storage.partition.PartitionedCubeComputer.refresh`) — one
  task per touched partition plus one for the collapsed pass, the partition
  boundaries acting as the natural work units.

A task carries the (sub-)relation to cube and the plain-data configuration
of the run; the result travels back as a flat cell list (cell, count,
measures, rep_tid) because :class:`~repro.core.cube.CubeResult` objects may
drag a live closure index along, which has no business crossing a process
boundary.  :func:`rebuild_cube` reassembles the cube on the serving side.

Use :func:`create_refresh_pool` to make the pool: it forces the ``spawn``
start method, because forking a process that already runs query threads (the
concurrent server always does) can deadlock in the child.  Everything here
also works with a :class:`~concurrent.futures.ThreadPoolExecutor` (useful in
tests: same code path, no process startup cost, just no GIL escape).
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.cell import Cell
from ..core.cube import CubeResult
from ..core.measures import MeasureSet, MeasureSpec
from ..core.relation import Relation

#: One materialised cell in transit: ``(cell, count, measures, rep_tid)``.
CellRecord = Tuple[Cell, int, Dict[str, float], Optional[int]]

#: A worker-resident base-cube identity: ``(serving token, covered tuples)``.
#: The token is unique per served cube per parent process; the tuple count
#: pins the cube *content*, because relations are append-only — the closed
#: cube of ``relation[0:n]`` is a function of ``n`` alone for a given cube.
MergeStateKey = Tuple[int, int]

#: How many base-cube snapshots one worker keeps resident.  Small on
#: purpose: each entry is a full cell list, and a refresh pool rarely serves
#: more than a handful of cubes at once.
WORKER_CACHE_MAX = 4

_merge_state_tokens = itertools.count(1)
_worker_cache_lock = threading.Lock()
_worker_base_cache: "Dict[MergeStateKey, List[CellRecord]]" = {}
#: Traffic through this process's resident cache.  Per process by nature:
#: with a thread pool the parent sees every worker's counts; with a process
#: pool each worker counts its own (the serving-side
#: ``ServingCube.merge_cache_stats`` is the cross-process view).
_worker_cache_counters: Dict[str, int] = {
    "hits": 0,
    "misses": 0,
    "stores": 0,
    "evictions": 0,
}


def merge_state_token(serving: object) -> int:
    """A stable identity token for one served cube, lazily stamped.

    ``(engine name, version)`` pairs are unsafe as cache identities — the
    version resets when an engine is rebuilt — so the maintainer brands each
    :class:`~repro.session.serving.ServingCube` with a monotonic counter the
    first time it offloads a merge for it.
    """
    token = getattr(serving, "_merge_state_token", None)
    if token is None:
        token = next(_merge_state_tokens)
        object.__setattr__(serving, "_merge_state_token", token)
    return token


class WorkerCacheMiss(Exception):
    """The worker holds no base cube under the task's ``cache_key``.

    Raised (and pickled back through the future) instead of guessing: the
    submitter retries once with the full cell list, which also re-primes the
    worker that answered.  Misses are expected — a pool routes tasks to any
    worker, and only the one that ran the previous append has the state.
    """

    def __init__(self, cache_key: MergeStateKey) -> None:
        super().__init__(f"no worker-resident base cube under key {cache_key!r}")
        self.cache_key = cache_key

    def __reduce__(self):  # pragma: no cover - exercised via process pools
        return (WorkerCacheMiss, (self.cache_key,))


def worker_cache_store(key: MergeStateKey, records: List[CellRecord]) -> None:
    """Retain one base-cube snapshot in this worker, evicting oldest-first."""
    with _worker_cache_lock:
        _worker_base_cache.pop(key, None)
        _worker_base_cache[key] = records
        _worker_cache_counters["stores"] += 1
        while len(_worker_base_cache) > WORKER_CACHE_MAX:
            _worker_base_cache.pop(next(iter(_worker_base_cache)))
            _worker_cache_counters["evictions"] += 1


def worker_cache_get(key: MergeStateKey) -> Optional[List[CellRecord]]:
    """This worker's snapshot under ``key``, refreshed to most-recent."""
    with _worker_cache_lock:
        records = _worker_base_cache.pop(key, None)
        if records is not None:
            _worker_base_cache[key] = records
            _worker_cache_counters["hits"] += 1
        else:
            _worker_cache_counters["misses"] += 1
        return records


def worker_cache_stats() -> Dict[str, int]:
    """This process's resident-cache counters (see their declaration note)."""
    with _worker_cache_lock:
        stats = dict(_worker_cache_counters)
        stats["resident"] = len(_worker_base_cache)
    return stats


def worker_cache_clear() -> None:
    """Drop every resident snapshot (test isolation); counters survive."""
    with _worker_cache_lock:
        _worker_base_cache.clear()


@dataclass(frozen=True)
class CubingTask:
    """One cubing run, picklable end to end.

    ``dimension_order`` must be plain data (a strategy name, a permutation,
    or ``None``); callers with a callable strategy must compute in process —
    :func:`picklable_order` is the gate they use.
    """

    relation: Relation
    algorithm: str
    min_sup: int = 1
    closed: bool = True
    measures: Tuple[MeasureSpec, ...] = ()
    dimension_order: object = None
    initial_collapsed: Tuple[int, ...] = ()


@dataclass(frozen=True)
class CubingTaskResult:
    """What a worker sends back: flat cells plus run bookkeeping."""

    cells: List[CellRecord] = field(default_factory=list)
    algorithm: str = ""
    elapsed_seconds: float = 0.0


def picklable_order(dimension_order: object) -> bool:
    """Whether a dimension-order strategy can cross a process boundary."""
    return not callable(dimension_order)


def run_cubing_task(task: CubingTask) -> CubingTaskResult:
    """Execute one :class:`CubingTask` (the function a pool worker runs).

    Importable at module top level so every executor kind can pickle a
    reference to it; importing this module pulls in the ``repro`` package,
    which registers the full algorithm registry in the worker.
    """
    from ..algorithms.base import CubingOptions, get_algorithm

    options = CubingOptions(
        min_sup=task.min_sup,
        closed=task.closed,
        measures=MeasureSet(task.measures),
        dimension_order=task.dimension_order,
        initial_collapsed=task.initial_collapsed,
    )
    result = get_algorithm(task.algorithm, options).run(task.relation)
    cells: List[CellRecord] = [
        (cell, stats.count, dict(stats.measures), stats.rep_tid)
        for cell, stats in result.cube.items()
    ]
    return CubingTaskResult(
        cells=cells,
        algorithm=result.algorithm,
        elapsed_seconds=result.elapsed_seconds or 0.0,
    )


def rebuild_cube(
    records: List[CellRecord],
    num_dims: int,
    name: str = "",
    measures: Tuple[MeasureSpec, ...] = (),
) -> CubeResult:
    """Reassemble a :class:`CubeResult` from a worker's flat cell list."""
    cube = CubeResult(num_dims, name=name)
    for cell, count, cell_measures, rep_tid in records:
        cube.add(cell, count, cell_measures, rep_tid)
    cube.measure_set = MeasureSet(tuple(measures))
    return cube


def compute_delta_cube(
    executor: Executor,
    delta_relation: Relation,
    start_tid: int,
    algorithm: str,
    measures: Tuple[MeasureSpec, ...] = (),
    dimension_order: object = None,
) -> CubeResult:
    """Compute an append's delta closed cube in ``executor``.

    The worker cubes only the delta window (full closed mode — the only mode
    delta-merge is exact for); the reassembled cube's representative tuple
    ids are shifted by ``start_tid`` into the grown relation's tid space,
    mirroring :meth:`repro.algorithms.base.CubingAlgorithm.run_delta`.
    """
    task = CubingTask(
        relation=delta_relation,
        algorithm=algorithm,
        min_sup=1,
        closed=True,
        measures=tuple(measures),
        dimension_order=dimension_order,
    )
    outcome = executor.submit(run_cubing_task, task).result()
    cube = rebuild_cube(
        outcome.cells,
        delta_relation.num_dimensions,
        name=f"delta-{outcome.algorithm}",
        measures=tuple(measures),
    )
    cube.shift_rep_tids(start_tid)
    return cube


@dataclass(frozen=True)
class MergeTask:
    """A whole delta-merge preparation, picklable end to end.

    Ships the served cube's cells and the grown relation to a worker, which
    computes the delta cube over the ``start_tid..`` window *and* merges it
    (aggregation-based closedness repair included) into a private copy of the
    base — the two CPU-heavy phases of an append.  Only the *changed* cells
    travel back (the merge report's slots); the serving thread publishes them.

    ``base_cells`` may be ``None`` when ``cache_key`` names a base cube a
    worker already holds resident (stored under ``store_key`` by a previous
    task) — the delta-only payload of the worker-resident merge protocol.  A
    worker without the state raises :class:`WorkerCacheMiss`; the submitter
    retries with the full list.
    """

    base_cells: Optional[List[CellRecord]]
    relation: Relation
    start_tid: int
    algorithm: str
    measures: Tuple[MeasureSpec, ...] = ()
    dimension_order: object = None
    #: Identity of the pre-merge base cube to look up when ``base_cells`` is
    #: ``None``.
    cache_key: Optional[MergeStateKey] = None
    #: Identity to retain the *post*-merge base cube under for the next
    #: append; ``None`` disables retention.
    store_key: Optional[MergeStateKey] = None


@dataclass(frozen=True)
class MergeTaskResult:
    """The prepared merge: its report, whose ``slots`` carry the new
    statistics of every added/updated cell."""

    report: object  # a MergeReport; typed loosely to keep pickling simple
    algorithm: str


def run_merge_task(task: MergeTask) -> MergeTaskResult:
    """Prepare one append's merge in a worker process.

    Anything :func:`repro.incremental.merge.merge_closed_cubes` would raise
    in process (:class:`IncrementalError`, :class:`MeasureError`) propagates
    back through the future so the maintainer's exactness fallbacks fire
    unchanged.
    """
    from ..algorithms.base import CubingOptions, get_algorithm

    records = task.base_cells
    if records is None:
        if task.cache_key is None:
            raise WorkerCacheMiss((0, task.start_tid))
        records = worker_cache_get(task.cache_key)
        if records is None:
            raise WorkerCacheMiss(task.cache_key)
    base = rebuild_cube(
        records,
        task.relation.num_dimensions,
        name="prepared-merge",
        measures=task.measures,
    )
    options = CubingOptions(
        min_sup=1,
        closed=True,
        measures=MeasureSet(task.measures),
        dimension_order=task.dimension_order,
    )
    delta_result = get_algorithm(task.algorithm, options).run_delta(
        task.relation, task.start_tid
    )
    report = base.merge(
        delta_result.cube, task.relation, measures=MeasureSet(task.measures)
    )
    if task.store_key is not None:
        worker_cache_store(
            task.store_key,
            [
                (cell, stats.count, dict(stats.measures), stats.rep_tid)
                for cell, stats in base.items()
            ],
        )
    return MergeTaskResult(report=report, algorithm=delta_result.algorithm)


def create_refresh_pool(max_workers: Optional[int] = None) -> ProcessPoolExecutor:
    """A process pool suitable for maintenance offload from a threaded server.

    Uses the ``spawn`` start method unconditionally: the concurrent serving
    layer always has live threads, and ``fork`` under threads can leave the
    child holding locks whose owners never run again.  Spawned workers
    re-import ``repro`` (environment, including ``PYTHONPATH``, is
    inherited), so the pool costs a few hundred milliseconds to warm up —
    pay it once at server start, not per append.
    """
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=multiprocessing.get_context("spawn"),
    )
