"""Merging closed cubes with aggregation-based closedness repair.

Let ``R1`` be the base relation (already cubed into ``base``) and ``R2`` a
delta of appended tuples (cubed into ``delta``).  Three facts make the closed
cube of ``R1 ∪ R2`` computable from the two materialised cubes alone:

1. **Closed cells survive appends.**  A cell is closed iff no ``*`` dimension
   has a single value shared by all of its tuples; appending tuples can only
   break value-sharing, never create it.  So every cell of ``base`` and every
   cell of ``delta`` is still closed in the union — merge never removes cells,
   it only adds and updates.

2. **The union's new closed cells are meets.**  For a cell ``c`` with support
   on both sides, the union closure fixes dimension ``d`` iff *both* sides'
   closures of ``c`` fix ``d`` to the same value.  Hence every union-closed
   cell with two-sided support is the lattice *meet* (:func:`repro.core.cell.
   meet_cells`) of a base-closed cell and a delta-closed cell — and every
   such cell is a generalisation of some delta cell, which is how the
   candidate set is enumerated (:func:`support_generalisations`).

3. **Closedness states are reconstructible.**  For a closed cell the Closed
   Mask (Definition 7) equals its fixed-dimension mask, and the representative
   tuple id (Definition 6) is stored per cell — so the full closedness
   measure state comes back via :func:`repro.core.closedness.
   closed_cell_state` with no tuple-list access.  Repair is then one
   :meth:`~repro.core.closedness.ClosednessState.merge` (the Lemma 3 algebra)
   per candidate: the merged Closed Mask *is* the union closure — candidates
   that come out non-closed collapse onto their closed cover by construction,
   because the surviving mask bits name exactly the dimensions the cover
   fixes.

The per-candidate cost is two indexed closure lookups plus one O(D) mask
merge; the candidate count is bounded by the number of cells with delta
support.  For the append-maintenance workloads this targets (small deltas
into large bases) that is orders of magnitude cheaper than recomputation —
``benchmarks/bench_incremental.py`` keeps the claim honest.

Both inputs must be *full* closed cubes (``closed=True, min_sup=1``): an
iceberg cube (``min_sup > 1``) has discarded the below-threshold cells a
delta could push over the threshold, so exact maintenance from the cube alone
is impossible — the session layer falls back to recomputation there.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..core.cell import Cell, sort_key
from ..core.cube import CellStats, CubeResult
from ..core.errors import IncrementalError
from ..core.measures import MeasureSet
from ..core.relation import Relation
from ..vector import kernels


@dataclass
class MergeReport:
    """What one :func:`merge_closed_cubes` call did to the base cube."""

    #: Cells newly materialised by the merge (the repaired meets plus
    #: delta-only cells).
    added: List[Cell] = field(default_factory=list)
    #: Pre-existing cells whose statistics grew.
    updated: List[Cell] = field(default_factory=list)
    #: Candidate cells examined (generalisations of delta cells, deduplicated).
    candidates: int = 0
    #: Cells the delta cube contributed.
    delta_cells: int = 0
    #: Base cube size before the merge.
    base_cells_before: int = 0
    #: The new statistics of every added or updated cell, in apply order —
    #: what :meth:`repro.core.cube.CubeResult.apply` (or, for a served cube,
    #: :meth:`repro.query.engine.QueryEngine.publish`) appends to the store.
    slots: List[Tuple[Cell, CellStats]] = field(default_factory=list)

    def changed_cells(self) -> List[Cell]:
        """Every cell whose aggregate an existing cached answer may reflect."""
        return self.added + self.updated

    def describe(self) -> str:
        return (
            f"merged {self.delta_cells} delta cells into {self.base_cells_before}: "
            f"{len(self.added)} added, {len(self.updated)} updated "
            f"({self.candidates} candidates examined)"
        )


def support_generalisations(cells: Iterable[Cell]) -> Set[Cell]:
    """All generalisations of the given cells, deduplicated.

    Breadth-first over the generalisation lattice, starring out one fixed
    dimension at a time with a visited set — total work is O(result × D)
    rather than O(cells × 2^D), because generalisations shared between input
    cells (which is most of them: every input shares the apex) are visited
    once.  Applied to the cells of a delta cube this enumerates exactly the
    cells of the lattice with delta support: every cell a delta tuple
    aggregates into generalises that tuple's closure.
    """
    seen: Set[Cell] = set(cells)
    queue = deque(seen)
    while queue:
        cell = queue.popleft()
        for dim, value in enumerate(cell):
            if value is None:
                continue
            general = cell[:dim] + (None,) + cell[dim + 1 :]
            if general not in seen:
                seen.add(general)
                queue.append(general)
    return seen


def _global_rep(cell: Cell, stats: CellStats, offset: int) -> int:
    if stats.rep_tid is None:
        raise IncrementalError(
            f"cell {cell!r} carries no representative tuple id; only cubes "
            "computed with rep_tid tracking (the closed algorithms) can be "
            "merged incrementally"
        )
    return stats.rep_tid + offset


def _resolve_measures(
    base: CubeResult, delta: CubeResult, measures: Optional[MeasureSet]
) -> MeasureSet:
    if measures is None:
        measures = base.measure_set if base.measure_set is not None else delta.measure_set
    if measures is None:
        measures = MeasureSet()
    expected = {spec.name for spec in measures.specs}
    for cube in (base, delta):
        # Cells of one cube are homogeneous; checking the first suffices.
        first = next(iter(cube.items()), None)
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
    delta: CubeResult,
    relation: Relation,
    measures: Optional[MeasureSet] = None,
    delta_tid_offset: int = 0,
    batch_size: Optional[int] = None,
    yield_between_batches: Optional[Callable[[], None]] = None,
    apply: bool = True,
) -> MergeReport:
    """Fold ``delta`` into ``base`` in place; see the module docstring.

    ``relation`` is the combined fact table (base tuples first); every
    representative tuple id of ``base``, and of ``delta`` after adding
    ``delta_tid_offset``, must index into it.  Returns a :class:`MergeReport`
    whose :attr:`~MergeReport.slots` are what the merge writes and whose
    :meth:`~MergeReport.changed_cells` drive cache maintenance upstream.

    The merge has two phases.  *Evaluation* — candidates, closure probes,
    closedness repair — only reads ``base`` and produces the slots.  *Apply*
    hands them to :meth:`~repro.core.cube.CubeResult.apply`, O(changed
    cells).  ``apply=False`` stops after evaluation: the maintainer of a
    served cube evaluates against the live store while queries keep reading
    it, and lands the slots inside :meth:`repro.query.engine.QueryEngine.
    publish`, under the engine's write lock.

    ``batch_size`` bounds how many candidates are evaluated between calls to
    ``yield_between_batches``; the callback is the seam the serving layer
    uses to hand the GIL back to the event loop mid-merge (see
    :class:`repro.incremental.maintainer.CubeMaintainer`).  Batching never
    changes the result: candidates are evaluated in one deterministic sorted
    order regardless of batch boundaries or backend, and the pre-merge
    closure indexes answer every batch because nothing is written until the
    apply phase.
    """
    if base.num_dims != delta.num_dims:
        raise IncrementalError(
            f"cannot merge a {delta.num_dims}-dimensional delta into a "
            f"{base.num_dims}-dimensional cube"
        )
    if relation.num_dimensions != base.num_dims:
        raise IncrementalError(
            f"combined relation has {relation.num_dimensions} dimensions, "
            f"the cubes have {base.num_dims}"
        )
    measures = _resolve_measures(base, delta, measures)
    report = MergeReport(
        delta_cells=len(delta), base_cells_before=len(base)
    )
    if len(delta) == 0:
        return report

    base_index = base.closure_index()
    delta_index = delta.closure_index()

    # Candidate generation: every lattice cell with delta support, via the
    # BFS below — kept deliberately scalar.  A level-wise np.unique
    # formulation was measured 5x slower at scale because every candidate
    # must round-trip through a Python tuple anyway (see the note in
    # repro.vector.kernels).  A sort by the canonical cell key makes the
    # evaluation order — and hence the first-wins dedup below and the
    # report's cell order — identical across backends and batch sizes.
    candidates = support_generalisations(iter(delta))
    report.candidates = len(candidates)
    ordered = sorted(candidates, key=sort_key)
    if batch_size is None or batch_size <= 0:
        batch_size = len(ordered) or 1

    # Evaluation phase: for every candidate, compute its union closure and
    # merged statistics.  Nothing is mutated yet, so the two closure indexes
    # keep answering for the *pre-merge* cubes throughout — which is what
    # makes batching (and yielding between batches) safe.
    produced: Dict[Cell, Tuple[int, Dict[str, float], int]] = {}
    for start in range(0, len(ordered), batch_size):
        batch = ordered[start : start + batch_size]
        # ``None`` entries mark candidates whose result comes from the next
        # repaired pair, in order; anything else is a delta-only carry.
        slots: List[Optional[Tuple[Cell, Tuple[int, Dict[str, float], int]]]] = []
        pairs: List[kernels.RepairPair] = []
        for candidate in batch:
            # A cell materialised in a closed cube is its own closure —
            # resolve via the cell dictionary (O(1)) and fall back to the
            # posting-list intersection only for non-materialised candidates.
            # In realistic append workloads most candidates are materialised
            # on at least one side, so this removes the bulk of the index
            # work.
            own_base = base.get(candidate)
            found_base = (
                (candidate, own_base)
                if own_base is not None
                else base_index.closure(candidate)
            )
            own_delta = delta.get(candidate)
            if found_base is None:
                # No base tuple matches the candidate, so its union closure
                # is its delta closure — a cell the delta cube materialises
                # and this loop reaches as its own candidate.  Only that
                # candidate needs work: carry it over verbatim (tids
                # re-based), skip the rest.
                if own_delta is not None:
                    slots.append(
                        (
                            candidate,
                            (
                                own_delta.count,
                                dict(own_delta.measures),
                                _global_rep(candidate, own_delta, delta_tid_offset),
                            ),
                        )
                    )
                continue
            found_delta = (
                (candidate, own_delta)
                if own_delta is not None
                else delta_index.closure(candidate)
            )
            if found_delta is None:  # pragma: no cover - candidates have support
                continue
            delta_cell, delta_stats = found_delta
            base_cell, base_stats = found_base
            pairs.append(
                (
                    base_cell,
                    base_stats.count,
                    base_stats.measures,
                    _global_rep(base_cell, base_stats, 0),
                    delta_cell,
                    delta_stats.count,
                    delta_stats.measures,
                    _global_rep(delta_cell, delta_stats, delta_tid_offset),
                )
            )
            slots.append(None)
        # Aggregation-based repair (Lemma 3), batched: the merged Closed
        # Mask names the dimensions every union tuple shares a value on —
        # i.e. the candidate's closed cover — and the merged representative
        # tuple supplies the values.  Distinct candidates can collapse onto
        # one cover; the first (in sorted candidate order) wins, and a cover
        # can never collide with a delta-only carry because covers always
        # have base support.
        repaired = iter(kernels.repair_pairs(pairs, relation, measures))
        for slot in slots:
            if slot is None:
                closed_cover, count, values, rep = next(repaired)
                if closed_cover not in produced:
                    produced[closed_cover] = (count, values, rep)
            elif slot[0] not in produced:
                produced[slot[0]] = slot[1]
        if yield_between_batches is not None and start + batch_size < len(ordered):
            yield_between_batches()

    for cell, (count, values, rep) in produced.items():
        existing = base.get(cell)
        if existing is None:
            report.added.append(cell)
        elif (
            existing.count != count
            or existing.rep_tid != rep
            or existing.measures != values
        ):
            report.updated.append(cell)
        else:
            continue
        report.slots.append((cell, CellStats(count, values, rep)))
    if apply:
        base.apply(report.slots)
    return report
