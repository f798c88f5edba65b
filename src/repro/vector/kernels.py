"""Vectorized kernels for the hot per-tuple loops.

Each kernel pairs a NumPy implementation with the per-tuple reference path it
replaces; the dispatch functions consult :func:`repro.core.columns.
get_backend` per call and fall back whenever the backend is pure Python or
the input is too small to amortise array setup.  The reference paths are
exported too — the benchmark gate (``benchmarks/bench_vector.py``) times the
pair against each other, and the cross-backend test suites run both to prove
them value-identical.

Kernels
-------
* :func:`aggregate_measures` — fold a tuple-id group's payload measures
  (sum/count/min/max, avg via its ``(sum, count)`` pair) from the relation's
  measure columns in one pass, replacing the per-tid ``MeasureState``
  create/merge loop inside the cubing algorithms' partition passes.
* :func:`lexsort_runs` — multi-column group-by: a stable lexicographic sort
  order plus run-length boundaries, the building block for grouped
  aggregation and row deduplication.
* :func:`grouped_closed_aggregate` — fused multi-column group-by +
  closedness + measure aggregation (lexsort + ``reduceat`` run reductions),
  replacing the per-tuple base-cuboid loop of the MultiWay dense subspace
  (:meth:`repro.algorithms.multiway.DenseSubspace._aggregate_base`).  This
  is the kernel shape where vectorization pays most: the output is one small
  record per *group*, not one Python object per tuple.
* :func:`delta_support_sweep` — one top-down pass over the cuboid lattice of
  an append window: every cell the window supports comes out with its delta
  count, representative tuple id, Closed Mask and measure values, each
  cuboid derived from a parent's groups rather than from the tuples.  It is
  the whole "delta cube" of :mod:`repro.incremental.merge`.
* :func:`repair_pairs` — the Lemma-3 closedness repair + measure merge of
  :mod:`repro.incremental.merge`, batched over the candidates a merge finds
  base support for but no base cell.
* :func:`slice_targets` — project matching index slots onto a slice's
  ``fixed + group_by`` cuboid and deduplicate, replacing the per-slot loop
  in :meth:`repro.query.engine.QueryEngine._slice_targets`.

Exactness: the repair kernel performs the *same* IEEE operations in the same
per-candidate order as ``MeasureSet.merge_values`` (e.g. avg merges as
``(v1*c1 + v2*c2) / (c1+c2)``), so its results are bit-identical.  The
group-aggregation and sweep kernels reduce each measure column with NumPy's
pairwise summation where the reference folds sequentially; both are exact
on the integral-valued measure data the suites use, and the
lattice-exhaustive tests are the oracle that keeps the claim honest (see
``docs/PAPER_NOTES.md``).
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..core.cell import Cell, make_cell
from ..core.closedness import ClosednessState, closed_cell_state
from ..core.columns import column_store, get_backend
from ..core.measures import (
    AvgMeasure,
    AvgState,
    CountMeasure,
    CountState,
    MaxMeasure,
    MaxState,
    MeasureSet,
    MeasureState,
    MinMeasure,
    MinState,
    SumMeasure,
    SumState,
)
from ..core.relation import Relation

#: Below these input sizes array setup costs more than the loop it replaces.
MIN_AGGREGATE_TIDS = 16
MIN_GROUPED_TIDS = 64
MIN_REPAIR_PAIRS = 8
#: The vector sweep pays a fixed cost per cuboid (2^D of them), the scalar
#: sweep one dictionary upsert per (row, cuboid): they cross at a few dozen
#: rows whatever the dimensionality.
MIN_SWEEP_ROWS = 32
MIN_SLICE_SLOTS = 16

#: One side of a repair candidate, flattened:
#: ``(cell, count, measures, global_rep_tid)`` for base then delta.
RepairPair = Tuple[Cell, int, Dict[str, float], int, Cell, int, Dict[str, float], int]

_VECTOR_SPECS = (CountMeasure, SumMeasure, MinMeasure, MaxMeasure, AvgMeasure)


def vectorizable_measures(measures: MeasureSet) -> bool:
    """Whether every spec is a built-in the kernels know how to fold.

    Exact-type check on purpose: a subclass may override ``create`` or
    ``reconstruct`` with semantics the kernels cannot reproduce, so anything
    customised takes the per-tuple reference path.
    """
    return all(type(spec) in _VECTOR_SPECS for spec in measures.specs)


# --------------------------------------------------------------------------- #
# Aggregate folding                                                            #
# --------------------------------------------------------------------------- #


def aggregate_measures_python(
    measures: MeasureSet, relation: Relation, tids: Sequence[int]
) -> Dict[str, float]:
    """The per-tuple reference fold: one state create+merge per tuple."""
    if not measures:
        return {}
    states = measures.create_states(relation, tids[0])
    for tid in tids[1:]:
        measures.merge_states(states, measures.create_states(relation, tid))
    return measures.values(states)


def aggregate_measures(
    measures: MeasureSet, relation: Relation, tids: Sequence[int]
) -> Dict[str, float]:
    """Payload measure values of the tuple-id group ``tids``.

    Vectorized when the backend is NumPy, the group is large enough, and
    every spec is a built-in; the per-tuple reference path otherwise.
    """
    if not measures:
        return {}
    backend = get_backend()
    if (
        backend.np is None
        or len(tids) < MIN_AGGREGATE_TIDS
        or not vectorizable_measures(measures)
    ):
        return aggregate_measures_python(measures, relation, tids)
    np = backend.np
    store = column_store(relation)
    if isinstance(tids, range):
        index = np.arange(tids.start, tids.stop, tids.step, dtype=np.int64)
    else:
        index = np.asarray(tids, dtype=np.int64)
    schema = relation.schema
    count = len(tids)
    values: Dict[str, float] = {}
    selected: Dict[str, object] = {}
    for spec in measures.specs:
        if type(spec) is CountMeasure:
            values[spec.name] = float(count)
            continue
        column = spec.column
        gathered = selected.get(column)
        if gathered is None:
            gathered = store.measure(schema.measure_index(column))[index]
            selected[column] = gathered
        if type(spec) is SumMeasure:
            values[spec.name] = float(gathered.sum())
        elif type(spec) is MinMeasure:
            values[spec.name] = float(gathered.min())
        elif type(spec) is MaxMeasure:
            values[spec.name] = float(gathered.max())
        else:  # AvgMeasure: the (sum, count) pair of Example 2
            values[spec.name] = float(gathered.sum()) / count
    return values


# --------------------------------------------------------------------------- #
# Multi-column group-by                                                        #
# --------------------------------------------------------------------------- #


def lexsort_runs(columns: Sequence[object]) -> Optional[Tuple[object, object]]:
    """Stable lexicographic sort order and run boundaries of key columns.

    ``columns`` are equal-length integer arrays (first column is the primary
    key).  Returns ``(order, starts)`` — ``order`` the permutation sorting
    the rows, ``starts`` the positions (into ``order``) where a new distinct
    key begins — or ``None`` under the fallback backend (callers keep their
    dictionary group-by).  The sort is stable, so within one run the
    original indices stay ascending: ``order[starts[k]]`` is each group's
    minimum index, which is exactly the representative-tuple convention
    (Definition 6).
    """
    backend = get_backend()
    if backend.np is None or not columns:
        return None
    np = backend.np
    keys = [np.asarray(column, dtype=np.int64) for column in columns]
    order = np.lexsort(keys[::-1])
    length = len(order)
    if length == 0:
        return order, np.empty(0, dtype=np.int64)
    change = np.zeros(length, dtype=bool)
    change[0] = True
    for key in keys:
        sorted_key = key[order]
        change[1:] |= sorted_key[1:] != sorted_key[:-1]
    return order, np.flatnonzero(change)


# --------------------------------------------------------------------------- #
# Fused group-by + closedness + measure aggregation                            #
# --------------------------------------------------------------------------- #

#: Per group: ``(count, rep_tid, closed_mask_or_None, measure_row)``.  The
#: measure row holds one scalar per spec, in spec order, carrying the *state*
#: of the group rather than its display value: count for ``CountMeasure``,
#: the group sum for ``SumMeasure`` *and* ``AvgMeasure`` (the paper's
#: ``(sum, count)`` pair — the count is shared), the group min/max otherwise.
#: :func:`states_from_row` turns a row back into ``MeasureState`` objects.
GroupEntry = Tuple[int, int, Optional[int], Tuple[float, ...]]


def states_from_row(
    measures: MeasureSet, row: Sequence[float], count: int
) -> List[MeasureState]:
    """Reconstruct per-spec measure states from a :data:`GroupEntry` row.

    Exact by construction: the row carries each state's internal scalar
    (sums, extrema, counts), never a derived value — reconstructing an
    ``AvgState`` from its *display* value would round-trip ``sum/count``
    through division and lose bits.
    """
    states: List[MeasureState] = []
    for spec, value in zip(measures.specs, row):
        if type(spec) is CountMeasure:
            states.append(CountState(count))
        elif type(spec) is SumMeasure:
            states.append(SumState(value))
        elif type(spec) is MinMeasure:
            states.append(MinState(value))
        elif type(spec) is MaxMeasure:
            states.append(MaxState(value))
        else:  # AvgMeasure: the (sum, count) pair
            states.append(AvgState(value, count))
    return states


def _state_scalar(spec: object, state: MeasureState) -> float:
    """The :data:`GroupEntry` row scalar of one folded reference state."""
    if type(spec) is CountMeasure:
        return float(state.count)
    if type(spec) is SumMeasure:
        return state.total
    if type(spec) is MinMeasure:
        return state.minimum
    if type(spec) is MaxMeasure:
        return state.maximum
    return state.total  # AvgMeasure


def grouped_closed_aggregate_python(
    relation: Relation,
    tids: Sequence[int],
    keys: Sequence[Sequence[int]],
    measures: MeasureSet,
    track_closedness: bool,
) -> Dict[Tuple[int, ...], GroupEntry]:
    """Reference fused group-by: one dict probe + state fold per tuple.

    ``keys`` are equal-length integer columns, one per group-by axis, aligned
    with ``tids`` by position (``keys[axis][pos]`` belongs to ``tids[pos]``).
    This mirrors the per-tuple loop the MultiWay dense subspace ran before
    the kernel existed: group key tuple, dictionary upsert, closedness
    ``add_tuple``, and a measure-state create+merge, all per tuple.
    """
    groups: Dict[Tuple[int, ...], list] = {}
    for pos in range(len(tids)):
        tid = int(tids[pos])
        coords = tuple(int(key[pos]) for key in keys)
        entry = groups.get(coords)
        if entry is None:
            state = (
                ClosednessState.for_tuple(tid, relation.num_dimensions)
                if track_closedness
                else None
            )
            states = measures.create_states(relation, tid) if measures else None
            groups[coords] = [1, tid, state, states]
        else:
            entry[0] += 1
            if tid < entry[1]:
                entry[1] = tid
            if entry[2] is not None:
                entry[2].add_tuple(tid, relation)
            if measures:
                measures.merge_states(
                    entry[3], measures.create_states(relation, tid)
                )
    specs = measures.specs if measures else ()
    out: Dict[Tuple[int, ...], GroupEntry] = {}
    for coords, (count, rep, state, states) in groups.items():
        row = (
            tuple(_state_scalar(spec, st) for spec, st in zip(specs, states))
            if states is not None
            else ()
        )
        mask = state.closed_mask if state is not None else None
        out[coords] = (count, rep, mask, row)
    return out


def grouped_closed_aggregate(
    relation: Relation,
    tids: Sequence[int],
    keys: Sequence[Sequence[int]],
    measures: MeasureSet,
    track_closedness: bool,
) -> Dict[Tuple[int, ...], GroupEntry]:
    """Fused multi-column group-by with closedness and measure aggregation.

    The vector path sorts once (:func:`lexsort_runs`) and reduces every run
    with ``reduceat``: counts from run lengths, representative tuple ids as
    run minima (Definition 6), the Closed Mask bit of dimension ``d`` from
    ``min == max`` over the run's values on ``d`` — equivalent to Lemma 3's
    "all tuples share one value" by transitivity of equality — and measure
    scalars as run sums/extrema.  Output is one :data:`GroupEntry` per
    *group*, so unlike the per-tuple loop it replaces, no Python object is
    built per tuple.  ``reduceat`` reduces sequentially in sorted-run order,
    which (for ascending ``tids``, the only order callers use) is the same
    tuple order the reference folds in — and the lattice-exhaustive suites
    compare both paths on every cell regardless.

    Dict iteration order is not part of the contract: the reference groups in
    first-occurrence order, the vector path in sorted key order.
    """
    backend = get_backend()
    if (
        backend.np is None
        or not keys
        or len(tids) < MIN_GROUPED_TIDS
        or (measures and not vectorizable_measures(measures))
    ):
        return grouped_closed_aggregate_python(
            relation, tids, keys, measures, track_closedness
        )
    np = backend.np
    runs = lexsort_runs([np.asarray(key, dtype=np.int64) for key in keys])
    if runs is None:  # pragma: no cover - backend checked above
        return grouped_closed_aggregate_python(
            relation, tids, keys, measures, track_closedness
        )
    order, starts = runs
    key_cols = [np.asarray(key, dtype=np.int64) for key in keys]
    tid_index = np.asarray(tids, dtype=np.int64)
    sorted_tids = tid_index[order]
    counts = np.diff(np.append(starts, len(order)))
    reps = np.minimum.reduceat(sorted_tids, starts)

    store = column_store(relation)
    masks = None
    if track_closedness:
        mask_acc = np.zeros(len(starts), dtype=np.int64)
        for dim in range(relation.num_dimensions):
            column = store.dimension(dim)[sorted_tids]
            group_min = np.minimum.reduceat(column, starts)
            group_max = np.maximum.reduceat(column, starts)
            mask_acc |= (group_min == group_max).astype(np.int64) << dim
        masks = mask_acc.tolist()

    rows = None
    if measures:
        schema = relation.schema
        gathered: Dict[str, object] = {}
        columns_out = []
        for spec in measures.specs:
            if type(spec) is CountMeasure:
                columns_out.append(counts.astype(np.float64))
                continue
            column = gathered.get(spec.column)
            if column is None:
                column = store.measure(schema.measure_index(spec.column))[
                    sorted_tids
                ]
                gathered[spec.column] = column
            if type(spec) is MinMeasure:
                columns_out.append(np.minimum.reduceat(column, starts))
            elif type(spec) is MaxMeasure:
                columns_out.append(np.maximum.reduceat(column, starts))
            else:  # SumMeasure / AvgMeasure both carry the group sum
                columns_out.append(np.add.reduceat(column, starts))
        rows = np.stack(columns_out, axis=1).tolist()

    firsts = order[starts]
    key_rows = np.stack([key[firsts] for key in key_cols], axis=1).tolist()
    counts_list = counts.tolist()
    reps_list = reps.tolist()
    out: Dict[Tuple[int, ...], GroupEntry] = {}
    for index, key_row in enumerate(key_rows):
        out[tuple(key_row)] = (
            counts_list[index],
            reps_list[index],
            masks[index] if masks is not None else None,
            tuple(rows[index]) if rows is not None else (),
        )
    return out


# --------------------------------------------------------------------------- #
# Delta support sweep: every lattice cell an append window touches             #
# --------------------------------------------------------------------------- #


class DeltaTable(NamedTuple):
    """Every lattice cell with support in an append window, as columns.

    Row ``i`` describes cell ``cells[i]`` restricted to the window's tuples:
    how many of them aggregate into it, the smallest of their tuple ids
    (Definition 6), their Closed Mask (Definition 7: bit ``d`` set iff they
    all share one value on ``d``) and their finalised payload measure values
    (a dict of its own per row, empty without payload measures).  Rows come
    in :func:`repro.core.cell.sort_key` order on both backends.
    """

    cells: List[Cell]
    counts: List[int]
    reps: List[int]
    masks: List[int]
    values: List[Dict[str, float]]


def _cuboids_top_down(num_dims: int) -> List[Tuple[int, int]]:
    """``(cuboid, dropped dimension)`` for every proper cuboid, finest first.

    A cuboid is the bit set of its fixed dimensions.  Each is derived from
    the one parent that additionally fixes its lowest ``*`` dimension, so the
    sweep visits every cuboid once and a parent always precedes its children.
    """
    full = (1 << num_dims) - 1
    plan = []
    for cuboid in sorted(range(full), key=lambda bits: -bin(bits).count("1")):
        missing = full & ~cuboid
        plan.append((cuboid, (missing & -missing).bit_length() - 1))
    return plan


def _cuboid_sort_key(num_dims: int):
    """Orders cuboids the way :func:`repro.core.cell.sort_key` orders cells."""
    return lambda bits: (
        bin(bits).count("1"),
        tuple((bits >> dim) & 1 for dim in range(num_dims)),
    )


def delta_support_sweep_python(
    relation: Relation, start_tid: int, end_tid: int, measures: MeasureSet
) -> DeltaTable:
    """Reference sweep: one dictionary upsert per (group, cuboid).

    Groups fold in sorted order at every level — the order the vector path's
    run reductions visit them in — so counts, tuple ids, masks and extrema
    agree exactly, and sums do wherever float addition is exact (the
    integral-valued measures the suites pin; see the module docstring).
    """
    columns = relation.columns
    num_dims = relation.num_dimensions
    # Per group: [count, min tid, per-dimension minima, maxima, measure states].
    groups: Dict[Cell, list] = {}
    for tid in range(start_tid, end_tid):
        row = tuple(column[tid] for column in columns)
        states = measures.create_states(relation, tid) if measures else None
        entry = groups.get(row)
        if entry is None:
            groups[row] = [1, tid, row, row, states]
        else:
            entry[0] += 1
            if states is not None:
                measures.merge_states(entry[4], states)
    full = (1 << num_dims) - 1
    cuboids = {full: sorted(groups.items())}
    for cuboid, dropped in _cuboids_top_down(num_dims):
        groups = {}
        for cell, (count, rep, lows, highs, states) in cuboids[cuboid | 1 << dropped]:
            general = cell[:dropped] + (None,) + cell[dropped + 1 :]
            entry = groups.get(general)
            if entry is None:
                groups[general] = [
                    count, rep, lows, highs,
                    measures.clone_states(states) if states is not None else None,
                ]
            else:
                entry[0] += count
                if rep < entry[1]:
                    entry[1] = rep
                entry[2] = tuple(map(min, entry[2], lows))
                entry[3] = tuple(map(max, entry[3], highs))
                if states is not None:
                    measures.merge_states(entry[4], states)
        cuboids[cuboid] = sorted(groups.items())
    table = DeltaTable([], [], [], [], [])
    for cuboid in sorted(cuboids, key=_cuboid_sort_key(num_dims)):
        for cell, (count, rep, lows, highs, states) in cuboids[cuboid]:
            table.cells.append(cell)
            table.counts.append(count)
            table.reps.append(rep)
            table.masks.append(
                sum(1 << dim for dim in range(num_dims) if lows[dim] == highs[dim])
            )
            table.values.append(
                measures.values(states) if states is not None else {}
            )
    return table


def delta_support_sweep(
    relation: Relation, start_tid: int, end_tid: int, measures: MeasureSet
) -> DeltaTable:
    """Aggregate the window ``[start_tid, end_tid)`` into every cell it supports.

    One top-down pass over the cuboid lattice: the window's distinct rows are
    grouped once, and every coarser cuboid is derived from a parent's groups,
    never from the tuples again.  That works because everything a cell needs
    is distributive — count (sum), representative tuple id (min), the Closed
    Mask via per-dimension ``min == max`` (min / max), and the measure states
    — so the cost is O(cells with window support × D) on either backend.
    """
    backend = get_backend()
    if (
        backend.np is None
        or end_tid - start_tid < MIN_SWEEP_ROWS
        or not vectorizable_measures(measures)
    ):
        return delta_support_sweep_python(relation, start_tid, end_tid, measures)
    np = backend.np
    num_dims = relation.num_dimensions
    store = column_store(relation)
    window = [store.dimension(dim)[start_tid:end_tid] for dim in range(num_dims)]
    order, starts = lexsort_runs(window)
    # The sort is stable: each run's first index is its smallest tuple id.
    first = order[starts]
    lows = np.stack([column[first] for column in window], axis=1)
    counts = np.diff(np.append(starts, len(order)))
    state_ops = []
    state_columns = []
    gathered: Dict[str, object] = {}
    for spec in measures.specs:
        if type(spec) is CountMeasure:
            state_ops.append(np.add)
            state_columns.append(counts.astype(np.float64))
            continue
        column = gathered.get(spec.column)
        if column is None:
            index = relation.schema.measure_index(spec.column)
            column = store.measure(index)[start_tid:end_tid][order]
            gathered[spec.column] = column
        op = {MinMeasure: np.minimum, MaxMeasure: np.maximum}.get(type(spec), np.add)
        state_ops.append(op)
        state_columns.append(op.reduceat(column, starts))
    # Per cuboid: (counts, min tids, per-dimension minima, maxima, states).
    full = (1 << num_dims) - 1
    cuboids = {full: (counts, first + start_tid, lows, lows, state_columns)}
    for cuboid, dropped in _cuboids_top_down(num_dims):
        counts, reps, lows, highs, states = cuboids[cuboid | 1 << dropped]
        fixed = [dim for dim in range(num_dims) if (cuboid >> dim) & 1]
        if fixed:
            order, starts = lexsort_runs([lows[:, dim] for dim in fixed])
        else:
            order, starts = np.arange(len(counts)), np.zeros(1, dtype=np.int64)
        if len(starts) == len(order):
            # Every parent group is its own group here: reorder, fold nothing.
            cuboids[cuboid] = (
                counts[order], reps[order], lows[order], highs[order],
                [column[order] for column in states],
            )
            continue
        cuboids[cuboid] = (
            np.add.reduceat(counts[order], starts),
            np.minimum.reduceat(reps[order], starts),
            np.minimum.reduceat(lows[order], starts, axis=0),
            np.maximum.reduceat(highs[order], starts, axis=0),
            [
                op.reduceat(column[order], starts)
                for op, column in zip(state_ops, states)
            ],
        )
    names = [spec.name for spec in measures.specs]
    bit_of = np.left_shift(1, np.arange(num_dims, dtype=np.int64))
    table = DeltaTable([], [], [], [], [])
    for cuboid in sorted(cuboids, key=_cuboid_sort_key(num_dims)):
        counts, reps, lows, highs, states = cuboids[cuboid]
        if cuboid:
            table.cells.extend(zip(*(
                lows[:, dim].tolist() if (cuboid >> dim) & 1 else repeat(None)
                for dim in range(num_dims)
            )))
        else:
            table.cells.append((None,) * num_dims)
        table.counts.extend(counts.tolist())
        table.reps.extend(reps.tolist())
        table.masks.extend(((lows == highs) * bit_of).sum(axis=1).tolist())
        if not names:
            table.values.extend({} for _ in range(len(counts)))
            continue
        finalised = [
            column / counts if type(spec) is AvgMeasure else column
            for spec, column in zip(measures.specs, states)
        ]
        table.values.extend(
            dict(zip(names, row)) for row in np.stack(finalised, axis=1).tolist()
        )
    return table


# --------------------------------------------------------------------------- #
# Closedness repair (Lemma 3) over candidate batches                           #
# --------------------------------------------------------------------------- #


def repair_pairs_python(
    pairs: Sequence[RepairPair],
    relation: Relation,
    measures: MeasureSet,
) -> List[Tuple[Cell, int, Dict[str, float], int]]:
    """Reference repair: one state reconstruction + Lemma-3 merge per pair."""
    columns = relation.columns
    num_dims = relation.num_dimensions
    results: List[Tuple[Cell, int, Dict[str, float], int]] = []
    for base_cell, base_count, base_values, base_rep, delta_cell, delta_count, delta_values, delta_rep in pairs:
        state = closed_cell_state(base_cell, base_rep)
        state.merge(closed_cell_state(delta_cell, delta_rep), relation)
        mask = state.closed_mask
        rep = state.rep_tid
        closed_cover = tuple(
            columns[dim][rep] if (mask >> dim) & 1 else None
            for dim in range(num_dims)
        )
        merged_values = (
            measures.merge_values(base_values, base_count, delta_values, delta_count)
            if measures
            else {}
        )
        results.append((closed_cover, base_count + delta_count, merged_values, rep))
    return results


def repair_pairs(
    pairs: Sequence[RepairPair],
    relation: Relation,
    measures: MeasureSet,
) -> List[Tuple[Cell, int, Dict[str, float], int]]:
    """Batched closedness repair: ``(closed_cover, count, values, rep)`` per pair.

    The vector path reproduces the reference exactly: the merged Closed Mask
    keeps bit ``d`` iff both cells fix ``d`` and their representative tuples
    agree there (Lemma 3), the representative is the minimum, and the merged
    measure values perform the same reconstruct-merge-refinalise arithmetic
    as :meth:`~repro.core.measures.MeasureSet.merge_values`.
    """
    backend = get_backend()
    if (
        backend.np is None
        or len(pairs) < MIN_REPAIR_PAIRS
        or not vectorizable_measures(measures)
    ):
        return repair_pairs_python(pairs, relation, measures)
    np = backend.np
    num_dims = relation.num_dimensions
    count = len(pairs)
    # Cell -> sentinel row, cached: closures repeat across a merge's
    # candidates, so most conversions are dictionary hits.
    row_cache: Dict[Cell, List[int]] = {}

    def _row(cell: Cell) -> List[int]:
        row = row_cache.get(cell)
        if row is None:
            row = [-1 if v is None else v for v in cell]
            row_cache[cell] = row
        return row

    base_cells = np.array([_row(p[0]) for p in pairs], dtype=np.int64)
    delta_cells = np.array([_row(p[4]) for p in pairs], dtype=np.int64)
    meta = np.fromiter(
        chain.from_iterable((p[1], p[3], p[5], p[7]) for p in pairs),
        dtype=np.int64,
        count=count * 4,
    ).reshape(count, 4)
    base_count, base_rep = meta[:, 0], meta[:, 1]
    delta_count, delta_rep = meta[:, 2], meta[:, 3]

    store = column_store(relation)
    dim_columns = store.dimensions()
    base_at = np.stack([column[base_rep] for column in dim_columns], axis=1)
    delta_at = np.stack([column[delta_rep] for column in dim_columns], axis=1)
    # Lemma 3, all candidates at once: a dimension stays in the Closed Mask
    # iff both closures fix it and the representatives carry equal values.
    shared = (base_cells >= 0) & (delta_cells >= 0) & (base_at == delta_at)
    base_wins = base_rep <= delta_rep
    rep = np.where(base_wins, base_rep, delta_rep)
    cover_values = np.where(base_wins[:, None], base_at, delta_at)

    names = [spec.name for spec in measures.specs]
    payload_rows: Optional[List[List[float]]] = None
    if names:
        width = len(names)
        first = np.fromiter(
            chain.from_iterable([p[2][name] for name in names] for p in pairs),
            dtype=np.float64,
            count=count * width,
        ).reshape(count, width)
        second = np.fromiter(
            chain.from_iterable([p[6][name] for name in names] for p in pairs),
            dtype=np.float64,
            count=count * width,
        ).reshape(count, width)
        merged = np.empty((count, len(names)), dtype=np.float64)
        total = (base_count + delta_count).astype(np.float64)
        for j, spec in enumerate(measures.specs):
            if type(spec) is MinMeasure:
                merged[:, j] = np.minimum(first[:, j], second[:, j])
            elif type(spec) is MaxMeasure:
                merged[:, j] = np.maximum(first[:, j], second[:, j])
            elif type(spec) is AvgMeasure:
                merged[:, j] = (
                    first[:, j] * base_count + second[:, j] * delta_count
                ) / total
            else:  # CountMeasure / SumMeasure both add
                merged[:, j] = first[:, j] + second[:, j]
        payload_rows = merged.tolist()

    cover_rows = np.where(shared, cover_values, -1).tolist()
    rep_list = rep.tolist()
    union_counts = (base_count + delta_count).tolist()
    results: List[Tuple[Cell, int, Dict[str, float], int]] = []
    if payload_rows is None:
        for cov, total_count, rep_tid in zip(cover_rows, union_counts, rep_list):
            cover = tuple(v if v >= 0 else None for v in cov)
            results.append((cover, total_count, {}, rep_tid))
    else:
        for cov, total_count, payload_row, rep_tid in zip(
            cover_rows, union_counts, payload_rows, rep_list
        ):
            cover = tuple(v if v >= 0 else None for v in cov)
            results.append(
                (cover, total_count, dict(zip(names, payload_row)), rep_tid)
            )
    return results


# --------------------------------------------------------------------------- #
# Slice enumeration                                                            #
# --------------------------------------------------------------------------- #


def slice_targets(
    index: object,
    slots: Set[int],
    fixed: Dict[int, int],
    group_by: Sequence[int],
    num_dims: int,
) -> Optional[Set[Cell]]:
    """Distinct slice target cells from matching index slots, vectorized.

    Gathers the group-by dimension values of every slot from the index's
    columnar view (``-1`` marks ``*``), drops slots that leave any group
    dimension unfixed, and deduplicates the surviving rows.  Returns ``None``
    when the view is unavailable (fallback backend) or the slot set is too
    small to beat the per-slot loop.
    """
    if len(slots) < MIN_SLICE_SLOTS:
        return None
    view = index.columns_view()
    if view is None:
        return None
    backend = get_backend()
    np = backend.np
    if np is None:  # pragma: no cover - view implies a NumPy backend
        return None
    if not group_by:
        # Every matching slot projects onto the fixed cell itself.
        return {make_cell(num_dims, fixed)}
    slot_index = np.fromiter(slots, dtype=np.int64, count=len(slots))
    gathered = [view[dim][slot_index] for dim in group_by]
    complete = gathered[0] >= 0
    for column in gathered[1:]:
        complete &= column >= 0
    if not complete.any():
        return set()
    rows = np.stack([column[complete] for column in gathered], axis=1)
    distinct = np.unique(rows, axis=0)
    targets: Set[Cell] = set()
    for row in distinct.tolist():
        assignment = dict(fixed)
        assignment.update(zip(group_by, row))
        targets.add(make_cell(num_dims, assignment))
    return targets
