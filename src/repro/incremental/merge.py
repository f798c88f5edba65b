"""Folding appended rows into a closed cube by aggregation-based checking.

Let ``R1`` be the base relation (already cubed into ``base``) and ``R2`` the
tuples appended since — the tid window ``[start_tid, T)`` of the grown
relation.  The closed cube of ``R1 ∪ R2`` differs from ``base`` only at cells
some appended tuple aggregates into, and closedness is an *aggregate*
(Definitions 6–9): a cell's representative tuple id is a ``min``, and bit
``d`` of its Closed Mask is ``min(d) == max(d)`` over its tuples — both
distributive.  So one top-down sweep over the window
(:func:`repro.vector.kernels.delta_support_sweep`) yields, for every lattice
cell with delta support, its delta count, delta representative and delta
Closed Mask, and each such *candidate* then falls into one of three classes:

1. **Materialised in the base.**  A cell of ``base`` is closed over ``R1``,
   and appending tuples can only break value-sharing, never create it — so it
   is still closed over the union.  Its new statistics are a pure add:
   ``base count + delta count``, the base representative (base tids precede
   the window), the measure values merged.  No closure probe, no mask
   algebra; on realistic appends this is ~99 % of the candidates.

2. **Base support, but no base cell.**  One probe of the base's closure index
   finds the closed base cell carrying the candidate's base tuples; Lemma 3
   merges that cell's reconstructed closedness state (for a closed cell the
   Closed Mask *is* its fixed-dimension mask, see :func:`repro.core.
   closedness.closed_cell_state`) with the swept delta state
   (:func:`repro.vector.kernels.repair_pairs`).  The merged mask names the
   dimensions every union tuple shares — the candidate's closed cover — and
   the candidate is emitted iff it *is* that cover.  Nothing is lost by
   dropping the others: a cover has delta support, so it is a candidate in
   its own right and emits itself.

3. **No base support.**  The union's tuples are the delta's: the candidate is
   closed iff its swept Closed Mask equals its fixed-dimension mask.

Merge never removes cells, it only adds and updates; the cost is O(cells with
delta support × D) for the sweep plus one dictionary probe per candidate.
``benchmarks/bench_incremental.py`` keeps the claim against recomputation
honest.

The base must be a *full* closed cube (``closed=True, min_sup=1``): an
iceberg cube (``min_sup > 1``) has discarded the below-threshold cells an
append could push over the threshold, so exact maintenance from the cube
alone is impossible — the session layer falls back to recomputation there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..core.cell import Cell, fixed_mask
from ..core.cube import CellStats, CubeResult
from ..core.errors import IncrementalError
from ..core.measures import MeasureSet
from ..core.relation import Relation
from ..vector import kernels


@dataclass
class MergeReport:
    """What one :func:`merge_closed_cubes` call did to the base cube."""

    #: Cells newly materialised by the merge.
    added: List[Cell] = field(default_factory=list)
    #: Pre-existing cells whose statistics grew.
    updated: List[Cell] = field(default_factory=list)
    #: Candidate cells examined: every lattice cell with delta support.
    candidates: int = 0
    #: Fact rows the merge folded in.
    delta_rows: int = 0
    #: Base cube size before the merge.
    base_cells_before: int = 0
    #: The new statistics of every added or updated cell, in apply order
    #: (:func:`repro.core.cell.sort_key` order, whatever the column backend)
    #: — what :meth:`repro.core.cube.CubeResult.apply` (or, for a served
    #: cube, :meth:`repro.query.engine.QueryEngine.publish`) appends to the
    #: store.
    slots: List[Tuple[Cell, CellStats]] = field(default_factory=list)

    def changed_cells(self) -> List[Cell]:
        """Every cell whose aggregate an existing cached answer may reflect."""
        return self.added + self.updated

    def describe(self) -> str:
        return (
            f"merged {self.delta_rows} rows into {self.base_cells_before} cells: "
            f"{len(self.added)} added, {len(self.updated)} updated "
            f"({self.candidates} candidates examined)"
        )


def _base_rep(cell: Cell, stats: CellStats) -> int:
    if stats.rep_tid is None:
        raise IncrementalError(
            f"cell {cell!r} carries no representative tuple id; only cubes "
            "computed with rep_tid tracking (the closed algorithms) can be "
            "merged incrementally"
        )
    return stats.rep_tid


def _resolve_measures(base: CubeResult, measures: Optional[MeasureSet]) -> MeasureSet:
    if measures is None:
        measures = base.measure_set
    if measures is None:
        measures = MeasureSet()
    expected = {spec.name for spec in measures.specs}
    # Cells of one cube are homogeneous; checking the first suffices.
    first = next(iter(base.items()), None)
    if first is not None and set(first[1].measures) != expected:
        raise IncrementalError(
            f"cube cells carry measures {sorted(first[1].measures)} but the "
            f"merge was given specs for {sorted(expected)}; pass the "
            "producing run's MeasureSet (or attach it as "
            "CubeResult.measure_set) so states can be reconstructed"
        )
    return measures


def merge_closed_cubes(
    base: CubeResult,
    relation: Relation,
    start_tid: int,
    measures: Optional[MeasureSet] = None,
    batch_size: Optional[int] = None,
    yield_between_batches: Optional[Callable[[], None]] = None,
    apply: bool = True,
) -> MergeReport:
    """Fold the tuples ``start_tid..`` of ``relation`` into ``base``.

    ``base`` is the full closed cube of ``relation``'s first ``start_tid``
    tuples, its representative tuple ids indexing into ``relation``.  Returns
    a :class:`MergeReport` whose :attr:`~MergeReport.slots` are what the
    merge writes and whose :meth:`~MergeReport.changed_cells` drive cache
    maintenance upstream.

    The merge has two phases.  *Evaluation* — the sweep, then one pass over
    its candidates — only reads ``base`` and produces the slots.  *Apply*
    hands them to :meth:`~repro.core.cube.CubeResult.apply`, O(changed
    cells).  ``apply=False`` stops after evaluation: the maintainer of a
    served cube evaluates against the live store while queries keep reading
    it, and lands the slots inside :meth:`repro.query.engine.QueryEngine.
    publish`, under the engine's write lock.

    ``batch_size`` bounds how many candidates are evaluated between calls to
    ``yield_between_batches``; the callback is the seam the serving layer
    uses to hand the GIL back to the event loop mid-merge (see
    :class:`repro.incremental.maintainer.CubeMaintainer`).  Batching never
    changes the result: candidates are evaluated in the sweep's one
    canonical order and nothing is written until the apply phase.
    """
    if relation.num_dimensions != base.num_dims:
        raise IncrementalError(
            f"the relation has {relation.num_dimensions} dimensions, the cube "
            f"has {base.num_dims}"
        )
    end_tid = relation.num_tuples
    if not 0 <= start_tid <= end_tid:
        raise IncrementalError(
            f"append window start {start_tid} outside 0..{end_tid}"
        )
    measures = _resolve_measures(base, measures)
    report = MergeReport(
        delta_rows=end_tid - start_tid, base_cells_before=len(base)
    )
    if start_tid == end_tid:
        return report

    table = kernels.delta_support_sweep(relation, start_tid, end_tid, measures)
    cells, counts, reps, masks, values = table
    total = report.candidates = len(cells)
    if batch_size is None or batch_size <= 0:
        batch_size = total

    columns = relation.columns
    num_dims = base.num_dims
    base_index = None
    # One entry per candidate that may emit, in candidate order; a class-2
    # candidate holds ``None`` until the repair below decides it.
    slots: List[Optional[Tuple[Cell, CellStats]]] = []
    #: Positions in ``slots`` of the candidates absent from the base.
    fresh: List[int] = []
    pairs: List[kernels.RepairPair] = []
    pending: List[Tuple[int, Cell]] = []
    for batch_start in range(0, total, batch_size):
        for position in range(batch_start, min(batch_start + batch_size, total)):
            cell = cells[position]
            own = base.get(cell)
            if own is not None:
                merged = (
                    measures.merge_values(
                        own.measures, own.count, values[position], counts[position]
                    )
                    if measures
                    else values[position]
                )
                slots.append((
                    cell,
                    CellStats(
                        own.count + counts[position], merged, _base_rep(cell, own)
                    ),
                ))
                report.updated.append(cell)
                continue
            # A cell fixing every dimension has no strict specialisation: with
            # no base cell of its own it has no base support, probe or not.
            found = None
            if None in cell:
                if base_index is None:
                    base_index = base.closure_index()
                found = base_index.closure(cell)
            if found is None:
                if masks[position] == fixed_mask(cell):
                    fresh.append(len(slots))
                    slots.append((
                        cell,
                        CellStats(counts[position], values[position], reps[position]),
                    ))
                continue
            base_cell, base_stats = found
            mask, rep = masks[position], reps[position]
            pairs.append((
                base_cell,
                base_stats.count,
                base_stats.measures,
                _base_rep(base_cell, base_stats),
                # The candidate's closure over the window alone: the cell
                # whose fixed mask is the swept Closed Mask.
                tuple(
                    columns[dim][rep] if (mask >> dim) & 1 else None
                    for dim in range(num_dims)
                ),
                counts[position],
                values[position],
                rep,
            ))
            pending.append((len(slots), cell))
            fresh.append(len(slots))
            slots.append(None)
        if yield_between_batches is not None and batch_start + batch_size < total:
            yield_between_batches()

    # Aggregation-based repair (Lemma 3), batched: the merged Closed Mask
    # names the dimensions every union tuple shares a value on — the
    # candidate's closed cover — and the candidate emits iff it is that cover.
    repaired = kernels.repair_pairs(pairs, relation, measures)
    for (slot, cell), (cover, count, merged, rep) in zip(pending, repaired):
        if cover == cell:
            slots[slot] = (cell, CellStats(count, merged, rep))
    report.added = [slots[slot][0] for slot in fresh if slots[slot] is not None]
    report.slots = [entry for entry in slots if entry is not None]
    if apply:
        base.apply(report.slots)
    return report
