"""The rows-based merge: one lattice sweep over the appended window.

``merge_closed_cubes`` no longer sees a delta cube: it sweeps the appended
tid window once (:func:`repro.vector.kernels.delta_support_sweep`) and
classifies every touched cell against the base.  These tests hold that to
its claims:

* for random relations and random append sequences — single rows, a few,
  windows past the vector threshold, all-duplicate and all-new-value windows,
  with and without payload measures, on both column backends — the merged
  cube equals a from-scratch closed build of the union cell for cell,
  representative tuple ids included, and the NumPy and pure-python sweeps
  return identical tables (a hypothesis property);
* closure probes and Lemma-3 repair are spent only on candidates the base
  does not materialise;
* a small window on a wide relation takes the scalar sweep, not one sort per
  cuboid.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BACKEND_NAMES

from repro import CubeSession, Relation, compute_closed_cube
from repro.core.cell import fixed_mask, sort_key, tuple_matches
from repro.core.columns import HAS_NUMPY, use_backend
from repro.core.measures import (
    AvgMeasure,
    CountMeasure,
    MaxMeasure,
    MeasureSet,
    MinMeasure,
    SumMeasure,
)
from repro.incremental.merge import merge_closed_cubes
from repro.query.index import CubeIndex
from repro.vector import kernels

SPECS = (
    CountMeasure(), SumMeasure("m"), AvgMeasure("m"), MinMeasure("m"),
    MaxMeasure("m"),
)


@st.composite
def append_scenarios(draw):
    """``(num_dims, base rows, append windows)``; a row ends with its measure."""
    num_dims = draw(st.integers(1, 6))
    cards = [draw(st.integers(1, 5)) for _ in range(num_dims)]
    measure = st.integers(-4, 9).map(float)

    def row(offset: int = 0):
        return st.tuples(
            *[st.integers(offset, offset + card - 1) for card in cards], measure
        )

    windows = st.one_of(
        st.lists(row(), min_size=1, max_size=1),
        st.lists(row(), min_size=3, max_size=3),
        # Past MIN_SWEEP_ROWS and MIN_GROUPED_TIDS: the vector paths.
        st.lists(row(), min_size=64, max_size=80),
        st.builds(lambda one, times: [one] * times, row(), st.integers(2, 40)),
        # Values no earlier row carries: the dictionaries grow.
        st.lists(row(offset=5), min_size=1, max_size=6),
    )
    base = draw(st.lists(row(), min_size=1, max_size=40))
    return num_dims, base, draw(st.lists(windows, min_size=1, max_size=4))


def _split(rows, num_dims):
    return [r[:num_dims] for r in rows], {"m": [r[num_dims] for r in rows]}


def _snapshot(cube):
    return {
        cell: (stats.count, stats.rep_tid, stats.measures)
        for cell, stats in cube.items()
    }


@settings(max_examples=40, deadline=None)
@given(scenario=append_scenarios(), with_measures=st.booleans())
def test_merged_cube_equals_rebuild_and_sweeps_agree(scenario, with_measures):
    num_dims, base_rows, windows = scenario
    specs = list(SPECS) if with_measures else []
    measures = MeasureSet(specs)
    tables = {}
    for backend in BACKEND_NAMES:
        with use_backend(backend):
            dims, values = _split(base_rows, num_dims)
            relation = Relation.from_rows(dims, measures=values)
            cube = compute_closed_cube(
                relation, min_sup=1, measures=specs, algorithm="qc-dfs"
            )
            tables[backend] = []
            for window in windows:
                dims, values = _split(window, num_dims)
                start, end = relation.append_rows(dims, values)
                tables[backend].append(
                    kernels.delta_support_sweep(relation, start, end, measures)
                )
                report = merge_closed_cubes(cube, relation, start, measures=measures)
                rebuilt = compute_closed_cube(
                    relation, min_sup=1, measures=specs, algorithm="qc-dfs"
                )
                merged, oracle = _snapshot(cube), _snapshot(rebuilt)
                assert set(merged) == set(oracle)
                for cell, (count, rep, cell_values) in merged.items():
                    assert (count, rep) == oracle[cell][:2], cell
                    # Integral measure values: only ``avg``, which a merge
                    # reconstructs from its finalised value, can drift an ulp.
                    assert cell_values == pytest.approx(oracle[cell][2], rel=1e-12)
                assert [cell for cell, _ in report.slots] == sorted(
                    report.changed_cells(), key=sort_key
                )
                assert report.candidates == len(tables[backend][-1].cells)
    if HAS_NUMPY:
        assert tables["numpy"] == tables["python"]


def test_sweep_table_matches_brute_force(column_backend):
    rng = random.Random(3)
    rows = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(120)]
    relation = Relation.from_rows(
        rows, measures={"m": [float(tid % 7) for tid in range(len(rows))]}
    )
    measures = MeasureSet(list(SPECS))
    start = 50  # 70 rows: past the vector threshold
    table = kernels.delta_support_sweep(relation, start, len(rows), measures)
    assert table == kernels.delta_support_sweep_python(
        relation, start, len(rows), measures
    )
    assert table.cells == sorted(set(table.cells), key=sort_key)
    encoded = list(relation.rows())
    for cell, count, rep, mask, values in zip(*table):
        tids = [t for t in range(start, len(rows)) if tuple_matches(cell, encoded[t])]
        assert (count, rep) == (len(tids), tids[0])
        shared = sum(
            1 << dim for dim in range(4)
            if len({encoded[t][dim] for t in tids}) == 1
        )
        assert mask == shared and mask & fixed_mask(cell) == fixed_mask(cell)
        column = [relation.measure_columns[0][t] for t in tids]
        assert values == {
            "count": float(count), "sum(m)": sum(column),
            "avg(m)": sum(column) / count, "min(m)": min(column),
            "max(m)": max(column),
        }
    # Every cell some window row aggregates into is there, exactly once.
    assert len(table.cells) == len({
        tuple(v if keep >> d & 1 else None for d, v in enumerate(encoded[t]))
        for t in range(start, len(rows)) for keep in range(16)
    })


def test_probes_and_repair_only_for_candidates_absent_from_the_base(monkeypatch):
    rng = random.Random(11)

    def rows(count):
        return [tuple(f"v{rng.randrange(7)}" for _ in range(5)) for _ in range(count)]

    serving = CubeSession.from_rows(rows(30_000), schema=list("VWXYZ")).build()
    assert len(serving.cube) >= 20_000
    relation = serving.relation
    start, _ = relation.append_rows(rows(300))

    probes = repaired = 0
    real_closure, real_repair = CubeIndex.closure, kernels.repair_pairs

    def counting_closure(self, cell):
        nonlocal probes
        probes += 1
        return real_closure(self, cell)

    def counting_repair(pairs, *args):
        nonlocal repaired
        repaired += len(pairs)
        return real_repair(pairs, *args)

    monkeypatch.setattr(CubeIndex, "closure", counting_closure)
    monkeypatch.setattr(kernels, "repair_pairs", counting_repair)
    report = merge_closed_cubes(serving.cube, relation, start, apply=False)

    absent = report.candidates - len(report.updated)
    assert report.candidates > 3_000
    assert 0 < absent < report.candidates // 20  # the base materialises the rest
    assert repaired <= probes <= absent
    assert len(report.added) <= absent


def test_small_window_on_a_wide_relation_takes_the_scalar_sweep(monkeypatch):
    rng = random.Random(17)

    def rows(count):
        return [tuple(f"v{rng.randrange(2)}" for _ in range(12)) for _ in range(count)]

    base, window = rows(24), rows(8)
    serving = CubeSession.from_rows(base).closed(min_sup=1).build()
    sorts = 0
    real_lexsort = kernels.lexsort_runs

    def counting_lexsort(columns):
        nonlocal sorts
        sorts += 1
        return real_lexsort(columns)

    monkeypatch.setattr(kernels, "lexsort_runs", counting_lexsort)
    report = serving.append(window)
    monkeypatch.setattr(kernels, "lexsort_runs", real_lexsort)
    assert report.mode == "delta-merge"
    assert sorts == 0  # not one sort per cuboid: 4 096 of them here
    assert report.merge.candidates <= 8 * 4096
    rebuilt = CubeSession.from_rows(base + window).closed(min_sup=1).build()
    assert _snapshot(serving.cube) == _snapshot(rebuilt.cube)
