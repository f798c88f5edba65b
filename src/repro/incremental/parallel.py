"""Process-pool work units for cube maintenance.

Cubing is pure CPU, so running a refresh inside the serving process steals
the GIL from every query thread even when the refresh itself is off the hot
path.  This module packages one cubing run as a picklable task so the
per-partition recomputes of a partitioned refresh
(:meth:`repro.storage.partition.PartitionedCubeComputer.refresh`) can ship to
a :class:`concurrent.futures.ProcessPoolExecutor` — one task per touched
partition plus one for the collapsed pass, the partition boundaries acting as
the natural work units — and keep the serving process responsive.

Delta-merge appends do not use it: folding an append window into the served
cube (:mod:`repro.incremental.merge`) costs about a millisecond for a handful
of rows and tens of milliseconds for a thousand, less than pickling the
relation to a worker (measured in ``CHANGES.md``, PR 14).

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

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.cell import Cell
from ..core.cube import CubeResult
from ..core.measures import MeasureSet, MeasureSpec
from ..core.relation import Relation

#: One materialised cell in transit: ``(cell, count, measures, rep_tid)``.
CellRecord = Tuple[Cell, int, Dict[str, float], Optional[int]]


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
