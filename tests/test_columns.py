"""The columnar backend seam and the vectorized kernels built on it.

Covers :mod:`repro.core.columns` (capability detection, backend pinning,
cached column views) and :mod:`repro.vector.kernels` — every kernel is
checked value-identical between the NumPy path and its per-tuple reference
on the same inputs, and the consumers that dispatch through them (the merge,
the query engine, the dense subspace) are checked cube-identical across
backends.  On an interpreter without NumPy the parametrized cases collapse
to the fallback, which still exercises every dispatch guard.
"""

from __future__ import annotations

import pytest

from repro import Relation
from repro.algorithms.base import CubingOptions, get_algorithm
from repro.core import columns as columns_mod
from repro.core.cell import sort_key
from repro.core.columns import (
    HAS_NUMPY,
    PYTHON_BACKEND,
    ColumnStore,
    column_store,
    get_backend,
    set_default_backend,
    use_backend,
)
from repro.core.measures import (
    AvgMeasure,
    CountMeasure,
    MaxMeasure,
    MeasureSet,
    MinMeasure,
    SumMeasure,
)
from repro.incremental.merge import merge_closed_cubes
from repro.query.engine import QueryEngine
from repro.vector import kernels

from conftest import BACKEND_NAMES, random_relation

requires_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


def _measured_relation(seed: int, tuples: int = 120, dims: int = 4):
    """A relation with two integral measure columns (exact under any order)."""
    import random

    rng = random.Random(seed)
    num_dims = rng.randint(2, dims)
    rows = [
        tuple(rng.randint(0, 3) for _ in range(num_dims)) for _ in range(tuples)
    ]
    return Relation.from_rows(
        rows,
        measures={
            "m0": [float((tid * 7 + 3) % 23) for tid in range(tuples)],
            "m1": [float((tid * 5 + 1) % 17) for tid in range(tuples)],
        },
    )


def _measures() -> MeasureSet:
    return MeasureSet(
        [
            CountMeasure(),
            SumMeasure("m0"),
            MinMeasure("m0"),
            MaxMeasure("m1"),
            AvgMeasure("m1"),
        ]
    )


# --------------------------------------------------------------------------- #
# Backend selection                                                            #
# --------------------------------------------------------------------------- #


def test_default_backend_matches_capability():
    backend = get_backend()
    if HAS_NUMPY:
        assert backend.name == "numpy" and backend.vectorized
    else:
        assert backend.name == "python" and not backend.vectorized


def test_set_default_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown column backend"):
        set_default_backend("bogus")


def test_set_default_backend_rejects_numpy_when_absent(monkeypatch):
    monkeypatch.setattr(columns_mod, "NUMPY_BACKEND", None)
    with pytest.raises(ValueError, match="not importable"):
        set_default_backend("numpy")


def test_use_backend_restores_previous_even_on_error():
    before = get_backend()
    with use_backend("python"):
        assert get_backend() is PYTHON_BACKEND
    assert get_backend() is before
    with pytest.raises(RuntimeError):
        with use_backend("python"):
            raise RuntimeError("boom")
    assert get_backend() is before


def test_python_backend_arrays_are_typed():
    ints = PYTHON_BACKEND.int_array([3, 1, 2])
    floats = PYTHON_BACKEND.float_array([0.5, 1.5])
    assert list(ints) == [3, 1, 2] and ints.typecode == "q"
    assert list(floats) == [0.5, 1.5] and floats.typecode == "d"


# --------------------------------------------------------------------------- #
# ColumnStore                                                                  #
# --------------------------------------------------------------------------- #


def test_column_store_fallback_returns_the_relation_lists():
    relation = _measured_relation(3)
    store = ColumnStore(relation, PYTHON_BACKEND)
    assert store.dimension(0) is relation.columns[0]
    assert store.measure(0) is relation.measure_columns[0]


@requires_numpy
def test_column_store_extends_views_and_keeps_old_ones_valid():
    import numpy as np

    relation = Relation.from_rows([(0, 1), (1, 1), (2, 0)])
    store = column_store(relation)
    view = store.dimension(0)
    assert np.shares_memory(store.dimension(0), view)  # one buffer, no copy
    # Enough appends to outgrow the buffer more than once.
    for value in range(3, 40):
        relation.append_rows([(value, 2)])
        grown = store.dimension(0)
        assert grown.tolist() == relation.columns[0]
    assert view.tolist() == [0, 1, 2]  # survived every reallocation


@requires_numpy
def test_small_append_on_a_large_relation_converts_only_the_tail(monkeypatch):
    import random

    import numpy as np

    from repro.rollup.table import RollupTable

    rng = random.Random(5)
    rows = [tuple(rng.randrange(6) for _ in range(4)) for _ in range(50_000)]
    relation = Relation.from_rows(
        rows, measures={"m0": [float(tid % 13) for tid in range(len(rows))]}
    )
    measures = MeasureSet([SumMeasure("m0"), MinMeasure("m0")])
    store = column_store(relation)
    store.dimensions(), store.measure(0)  # the one full conversion
    table = RollupTable.build(relation, (0, 2), measures)

    converted = 0
    real_asarray = np.asarray

    def counting_asarray(values, *args, **kwargs):
        nonlocal converted
        converted += len(values)
        return real_asarray(values, *args, **kwargs)

    monkeypatch.setattr(np, "asarray", counting_asarray)
    relation.append_rows(
        [tuple(rng.randrange(7) for _ in range(4)) for _ in range(4)],
        measures={"m0": [1.0, 2.0, 3.0, 4.0]},
    )
    views = store.dimensions() + [store.measure(0)]
    monkeypatch.setattr(np, "asarray", real_asarray)
    assert converted == 4 * len(views)

    # What the extended buffers hold is what a from-scratch store would.
    fresh = ColumnStore(relation)
    for view, expected in zip(views, fresh.dimensions() + [fresh.measure(0)]):
        assert view.dtype == expected.dtype and np.array_equal(view, expected)
    # ... and so are the consumers' results: the rollup delta fold and a
    # MultiWay run read the same arrays before and after the change.
    merged = table.merged_delta(relation)
    assert merged.rows == RollupTable.build(relation, (0, 2), measures).rows
    options = CubingOptions(min_sup=1, closed=True, measures=measures)
    small = relation.select(range(relation.num_tuples - 300, relation.num_tuples))
    warm = column_store(small)
    warm.dimensions()
    small.append_rows([(0, 0, 0, 0)], measures={"m0": [5.0]})
    extended = get_algorithm("c-cubing-mm", options).run(small).cube
    object.__setattr__(small, "_column_store", None)
    assert _cube_snapshot(extended) == _cube_snapshot(
        get_algorithm("c-cubing-mm", options).run(small).cube
    )


@requires_numpy
def test_column_store_swaps_with_the_backend():
    relation = Relation.from_rows([(0, 1), (1, 0)])
    fast = column_store(relation)
    assert fast.backend.vectorized
    with use_backend("python"):
        slow = column_store(relation)
        assert slow is not fast and not slow.backend.vectorized
    assert column_store(relation) is not slow


# --------------------------------------------------------------------------- #
# Kernel parity: vector path == per-tuple reference                            #
# --------------------------------------------------------------------------- #


def test_aggregate_measures_matches_reference(column_backend):
    relation = _measured_relation(11)
    measures = _measures()
    for tids in (
        range(relation.num_tuples),
        list(range(0, relation.num_tuples, 2)),
        [0],
    ):
        assert kernels.aggregate_measures(measures, relation, tids) == (
            kernels.aggregate_measures_python(measures, relation, tids)
        )


@requires_numpy
def test_lexsort_runs_finds_every_group_boundary():
    import numpy as np

    keys = [np.asarray([1, 0, 1, 0, 1], dtype=np.int64),
            np.asarray([0, 2, 0, 2, 1], dtype=np.int64)]
    order, starts = kernels.lexsort_runs(keys)
    sorted_rows = [(int(keys[0][i]), int(keys[1][i])) for i in order.tolist()]
    assert sorted_rows == sorted(sorted_rows)
    boundaries = [i for i in range(len(sorted_rows))
                  if i == 0 or sorted_rows[i] != sorted_rows[i - 1]]
    assert starts.tolist() == boundaries


def test_grouped_closed_aggregate_matches_reference(column_backend):
    relation = _measured_relation(17, tuples=150)
    measures = _measures()
    tids = list(range(relation.num_tuples))
    keys = [relation.columns[d] for d in range(min(2, relation.num_dimensions))]
    for track in (True, False):
        fast = kernels.grouped_closed_aggregate(relation, tids, keys, measures, track)
        ref = kernels.grouped_closed_aggregate_python(
            relation, tids, keys, measures, track
        )
        assert fast == ref


def test_grouped_closed_aggregate_without_measures(column_backend):
    relation = _measured_relation(19, tuples=100)
    empty = MeasureSet()
    tids = list(range(relation.num_tuples))
    keys = [relation.columns[0]]
    assert kernels.grouped_closed_aggregate(relation, tids, keys, empty, True) == (
        kernels.grouped_closed_aggregate_python(relation, tids, keys, empty, True)
    )


def test_states_from_row_reconstructs_exact_states():
    measures = _measures()
    relation = _measured_relation(23, tuples=60)
    tids = list(range(relation.num_tuples))
    states = measures.create_states(relation, tids[0])
    for tid in tids[1:]:
        measures.merge_states(states, measures.create_states(relation, tid))
    grouped = kernels.grouped_closed_aggregate_python(
        relation, tids, [[0] * len(tids)], measures, False
    )
    ((_, (count, _rep, _mask, row)),) = grouped.items()
    rebuilt = kernels.states_from_row(measures, row, count)
    assert measures.values(rebuilt) == measures.values(states)


def _closed_pairs(relation, measures, count: int):
    result = get_algorithm(
        "qcdfs", CubingOptions(min_sup=1, closed=True, measures=measures)
    ).run(relation)
    cells = sorted(result.cube.items(), key=lambda item: sort_key(item[0]))
    pairs = []
    for i in range(count):
        base_cell, base_stats = cells[(i * 13) % len(cells)]
        delta_cell, delta_stats = cells[(i * 7 + 3) % len(cells)]
        pairs.append(
            (base_cell, base_stats.count, dict(base_stats.measures),
             base_stats.rep_tid, delta_cell, delta_stats.count,
             dict(delta_stats.measures), delta_stats.rep_tid)
        )
    return pairs


def test_repair_pairs_matches_reference(column_backend):
    relation = _measured_relation(29, tuples=90)
    measures = _measures()
    pairs = _closed_pairs(relation, measures, 64)
    assert kernels.repair_pairs(pairs, relation, measures) == (
        kernels.repair_pairs_python(pairs, relation, measures)
    )
    # Below the dispatch threshold both names are the reference path.
    small = pairs[: kernels.MIN_REPAIR_PAIRS - 1]
    assert kernels.repair_pairs(small, relation, measures) == (
        kernels.repair_pairs_python(small, relation, measures)
    )


# --------------------------------------------------------------------------- #
# Cross-backend equality of the kernel consumers                               #
# --------------------------------------------------------------------------- #


def _cube_snapshot(cube):
    return {
        cell: (stats.count, stats.rep_tid, dict(stats.measures))
        for cell, stats in cube.items()
    }


@requires_numpy
@pytest.mark.parametrize(
    "algorithm,with_measures",
    [("c-cubing-mm", True), ("qc-dfs", True), ("c-cubing-star", False)],
)
def test_closed_cubes_identical_across_backends(algorithm, with_measures):
    relation = _measured_relation(31, tuples=140)
    options = CubingOptions(
        min_sup=1, closed=True,
        measures=_measures() if with_measures else MeasureSet(),
    )
    snapshots = {}
    for backend in BACKEND_NAMES:
        with use_backend(backend):
            cube = get_algorithm(algorithm, options).run(relation).cube
            snapshots[backend] = _cube_snapshot(cube)
    assert snapshots["numpy"] == snapshots["python"]


@requires_numpy
def test_merge_identical_across_backends_including_measures():
    measures = _measures()
    combined = _measured_relation(37, tuples=160)
    split = combined.num_tuples * 3 // 4
    base_rel = combined.select(range(split))
    options = CubingOptions(min_sup=1, closed=True, measures=measures)
    snapshots = {}
    for backend in BACKEND_NAMES:
        with use_backend(backend):
            base = get_algorithm("qcdfs", options).run(base_rel).cube
            report = merge_closed_cubes(base, combined, split, measures=measures)
            snapshots[backend] = (
                _cube_snapshot(base),
                sorted(report.added, key=sort_key),
                sorted(report.updated, key=sort_key),
            )
    assert snapshots["numpy"] == snapshots["python"]
    oracle = get_algorithm("qcdfs", options).run(combined).cube
    assert snapshots["numpy"][0] == _cube_snapshot(oracle)


@requires_numpy
def test_slice_answers_identical_across_backends():
    relation = _measured_relation(41, tuples=200)
    cube = get_algorithm(
        "qcdfs", CubingOptions(min_sup=1, closed=True, measures=_measures())
    ).run(relation).cube
    group_by = [0, 1]
    slices = [({}, group_by), ({0: relation.columns[0][0]}, [1])]
    answers = {}
    for backend in BACKEND_NAMES:
        with use_backend(backend):
            engine = QueryEngine(cube)  # fresh engine: no cross-backend cache
            answers[backend] = [
                [
                    (a.cell, a.count, a.measures, a.closure)
                    for a in engine.slice(fixed, dims)
                ]
                for fixed, dims in slices
            ]
    assert answers["numpy"] == answers["python"]
    # Every slice answer resolves to its closure's statistics.
    for per_slice in answers["numpy"]:
        for cell, count, _measure_row, closure in per_slice:
            assert closure is not None and cube[closure].count == count


# --------------------------------------------------------------------------- #
# Chunked merge batching                                                       #
# --------------------------------------------------------------------------- #


def test_chunked_merge_yields_and_matches_unbatched():
    measures = _measures()
    combined = _measured_relation(43, tuples=150)
    split = combined.num_tuples * 2 // 3
    base_rel = combined.select(range(split))
    options = CubingOptions(min_sup=1, closed=True, measures=measures)

    def build_base():
        return get_algorithm("qcdfs", options).run(base_rel).cube

    plain = build_base()
    merge_closed_cubes(plain, combined, split, measures=measures)

    yields = 0

    def on_yield():
        nonlocal yields
        yields += 1

    chunked = build_base()
    report = merge_closed_cubes(
        chunked, combined, split, measures=measures,
        batch_size=16, yield_between_batches=on_yield,
    )
    assert yields >= report.candidates // 16 - 1
    assert _cube_snapshot(chunked) == _cube_snapshot(plain)


def test_chunked_merge_batch_size_does_not_change_the_report():
    measures = _measures()
    combined = _measured_relation(47, tuples=120)
    split = combined.num_tuples // 2
    base_rel = combined.select(range(split))
    options = CubingOptions(min_sup=1, closed=True, measures=measures)
    outcomes = []
    for batch_size in (None, 1, 7, 10_000):
        base = get_algorithm("qcdfs", options).run(base_rel).cube
        report = merge_closed_cubes(
            base, combined, split, measures=measures, batch_size=batch_size
        )
        outcomes.append(
            (_cube_snapshot(base), report.added, report.updated)
        )
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
