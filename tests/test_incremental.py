"""Tests for incremental cube maintenance (:mod:`repro.incremental`).

The load-bearing property is the acceptance criterion of the subsystem: for
random relations, ``append(rows)`` followed by *any* query must be
indistinguishable from a full recompute over the concatenated relation —
same closed cells, same counts, same measure values, exhaustively over the
whole cube lattice.  Everything else here (index maintenance, cache
invalidation, fallback modes, delta runs) supports that property.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    AvgMeasure,
    CubeSession,
    MinMeasure,
    Relation,
    Sum,
    SumMeasure,
    compute_closed_cube,
)
from repro.core.cell import fixed_mask, generalisations, meet_cells, sort_key
from repro.core.closedness import closed_cell_state
from repro.core.cube import CellStats
from repro.core.errors import IncrementalError
from repro.core.measures import MeasureSet
from repro.incremental.merge import MergeReport
from repro.query.index import CubeIndex

from conftest import random_relation
from test_query_engine import lattice_cells


def split_rows(seed: int, max_dims: int = 4, max_cardinality: int = 4):
    """Random raw base and delta row blocks over a shared value universe."""
    rng = random.Random(seed)
    num_dims = rng.randint(1, max_dims)
    cardinality = rng.randint(1, max_cardinality)
    base = [
        tuple(f"v{rng.randrange(cardinality)}" for _ in range(num_dims))
        for _ in range(rng.randint(1, 30))
    ]
    delta = [
        # Half the delta draws from a wider universe, so dictionary growth
        # (unseen values) is exercised on most seeds.
        tuple(
            f"v{rng.randrange(2 * cardinality)}" for _ in range(num_dims)
        )
        for _ in range(rng.randint(1, 15))
    ]
    return base, delta


# --------------------------------------------------------------------------- #
# The equivalence property (acceptance criterion)                              #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(12))
def test_append_then_query_equals_full_recompute_lattice_exhaustive(seed):
    base_rows, delta_rows = split_rows(seed)
    cube = CubeSession.from_rows(base_rows).closed(min_sup=1).build()
    report = cube.append(delta_rows)
    assert report.mode == "delta-merge"
    assert report.appended_rows == len(delta_rows)

    rebuilt = CubeSession.from_rows(base_rows + delta_rows).closed(min_sup=1).build()
    # Same dictionary growth order => same codes => cells comparable directly.
    assert cube.cube.same_cells(rebuilt.cube), cube.cube.diff(rebuilt.cube)
    for cell in lattice_cells(cube.relation):
        incremental = cube.engine.point(cell)
        recomputed = rebuilt.engine.point(cell)
        assert incremental.count == recomputed.count, cell


@pytest.mark.parametrize("seed", range(6))
def test_append_preserves_measure_values(seed):
    base_rows, delta_rows = split_rows(seed + 300, max_dims=3)
    rng = random.Random(seed + 900)
    base = [row + (round(rng.uniform(0, 9), 2),) for row in base_rows]
    delta = [row + (round(rng.uniform(0, 9), 2),) for row in delta_rows]
    names = [f"d{i}" for i in range(len(base_rows[0]))]
    schema = {"dimensions": names, "measures": ["m"]}

    cube = (
        CubeSession.from_rows(base, schema=schema)
        .closed(min_sup=1)
        .measures(Sum("m"))
        .build()
    )
    assert cube.append(delta).mode == "delta-merge"
    rebuilt = (
        CubeSession.from_rows(base + delta, schema=schema)
        .closed(min_sup=1)
        .measures(Sum("m"))
        .build()
    )
    assert set(cube.cube) == set(rebuilt.cube)
    for cell in cube.cube:
        ours, theirs = cube.cube[cell], rebuilt.cube[cell]
        assert ours.count == theirs.count
        assert ours.measures["sum(m)"] == pytest.approx(theirs.measures["sum(m)"])


@pytest.mark.parametrize("seed", range(4))
def test_repeated_appends_stay_exact(seed):
    base_rows, delta_rows = split_rows(seed + 600)
    chunks = [delta_rows[i::3] for i in range(3)]
    cube = CubeSession.from_rows(base_rows).closed(min_sup=1).build()
    appended = []
    for chunk in chunks:
        if not chunk:
            continue
        cube.append(chunk)
        appended.extend(chunk)
    rebuilt = CubeSession.from_rows(base_rows + appended).closed(min_sup=1).build()
    for cell in lattice_cells(cube.relation):
        assert cube.engine.point(cell).count == rebuilt.engine.point(cell).count


def test_append_grows_dictionaries_append_only():
    rows = [("a", "x"), ("b", "x")]
    cube = CubeSession.from_rows(rows, schema=["L", "R"]).closed().build()
    before = dict(cube.relation.encoder(0))
    cube.append([("c", "y"), ("a", "y")])
    after = cube.relation.encoder(0)
    for value, code in before.items():
        assert after[value] == code, "existing codes must never be reassigned"
    assert cube.point({"L": "c"}).count == 1
    assert cube.point({"R": "y"}).count == 2


def test_empty_append_is_a_no_op():
    cube = CubeSession.from_rows([("a",), ("b",)]).closed().build()
    cells_before = len(cube)
    report = cube.append([])
    assert report.mode == "no-op"
    assert report.appended_rows == 0
    assert len(cube) == cells_before


# --------------------------------------------------------------------------- #
# Fallback modes stay exact too                                                #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "configure, expected_mode",
    [
        (lambda s: s.closed(min_sup=3), "full-recompute"),
        (lambda s: s.iceberg(min_sup=2), "full-recompute"),
        (lambda s: s.closed(min_sup=1).partitioned(), "partition-refresh"),
    ],
)
def test_fallback_modes_match_recompute(configure, expected_mode):
    base_rows, delta_rows = split_rows(7, max_dims=3)
    if len(base_rows[0]) < 2:
        base_rows = [row + ("p",) for row in base_rows]
        delta_rows = [row + ("q",) for row in delta_rows]
    session = configure(CubeSession.from_rows(base_rows))
    cube = session.build()
    report = cube.append(delta_rows)
    assert report.mode == expected_mode
    rebuilt = configure(CubeSession.from_rows(base_rows + delta_rows)).build()
    assert cube.cube.same_cells(rebuilt.cube), cube.cube.diff(rebuilt.cube)
    for cell in lattice_cells(cube.relation):
        assert cube.engine.point(cell).count == rebuilt.engine.point(cell).count


def test_partition_refresh_reports_touched_partitions():
    base = [("s1", "a"), ("s1", "b"), ("s2", "a"), ("s3", "b")]
    cube = (
        CubeSession.from_rows(base, schema=["store", "product"])
        .closed()
        .partitioned("store")
        .build()
    )
    report = cube.append([("s2", "b"), ("s9", "a")])
    assert report.mode == "partition-refresh"
    # Partition values are encoded; decode for readability.
    decoded = {
        cube.relation.decode(cube.engine.partition_dim, value)
        for value in report.refreshed_partitions
    }
    assert decoded == {"s2", "s9"}
    assert cube.point({"store": "s9"}).count == 1
    assert cube.point({"store": "s1"}).count == 2


def test_session_refresh_rebuilds_over_grown_relation():
    session = CubeSession.from_rows([("a",), ("b",)]).closed()
    cube = session.build()
    cube.append([("c",)])
    fresh = session.refresh()
    assert fresh.relation is cube.relation
    assert fresh.point({"d0": "c"}).count == 1


# --------------------------------------------------------------------------- #
# Cache maintenance                                                            #
# --------------------------------------------------------------------------- #


def test_append_invalidates_affected_answers_and_keeps_the_rest():
    rows = [("a", "x"), ("a", "y"), ("b", "x")]
    cube = CubeSession.from_rows(rows, schema=["L", "R"]).closed().build()
    assert cube.point({"L": "a"}).count == 2
    assert cube.point({"L": "b"}).count == 1

    report = cube.append([("a", "z")])
    assert report.mode == "delta-merge"
    assert report.invalidated_answers > 0
    # The touched answer is refreshed, the untouched one still served.
    assert cube.point({"L": "a"}).count == 3
    assert cube.point({"L": "b"}).count == 1
    # The untouched decoded answer survived invalidation: second read hits.
    hits_before = cube._decoded.hits
    assert cube.point({"L": "b"}).count == 1
    assert cube._decoded.hits == hits_before + 1


def test_stats_and_cache_observability():
    cube = CubeSession.from_rows([("a",), ("a",), ("b",)]).closed().build()
    cube.point({"d0": "a"})
    cube.point({"d0": "a"})
    info = cube.cache_info()
    assert set(info) == {"answers", "decoded"}
    assert info["decoded"]["hits"] >= 1
    assert cube.stats()["cache_info"] == cube.cache_info()
    cube.clear_cache()
    assert cube.cache_info()["answers"]["entries"] == 0
    assert cube.cache_info()["decoded"]["entries"] == 0
    # Counters survive a clear, so dashboards keep their history.
    assert cube.cache_info()["decoded"]["hits"] >= 1


# --------------------------------------------------------------------------- #
# Append-only index maintenance                                                #
# --------------------------------------------------------------------------- #


def test_cube_index_add_and_supersede():
    relation = random_relation(42, max_dims=3)
    cube = compute_closed_cube(relation, min_sup=1, algorithm="naive-closed")
    index = CubeIndex.from_cube(cube)
    size = len(index)
    apex = (None,) * relation.num_dimensions
    apex_count_before = index.closure(apex)[1].count

    tall = tuple(relation.row(0))
    new_stats_count = apex_count_before + 100
    extra = tuple(value + 50 for value in tall)
    index.add_cells([(extra, CellStats(new_stats_count, {}, None))])
    assert len(index) == size + 1
    assert index.closure(apex)[1].count == new_stats_count

    # A grown version of an existing cell takes over its slot; the
    # superseded stats object moves to the slot's history, untouched.
    cell, stats = next(iter(cube.items()))
    grown = CellStats(new_stats_count + 10_000, dict(stats.measures), stats.rep_tid)
    index.add_cells([(cell, grown)])
    assert len(index) == size + 1 and index.superseded == 1
    assert index.closure(apex)[1] is grown
    assert index.closure(cell)[1] is grown
    assert stats.count < grown.count  # the old stats object was not touched


def test_cube_add_and_apply_keep_live_index_current():
    cube = compute_closed_cube(
        Relation.from_rows([("a", "x"), ("b", "y")]), min_sup=1
    )
    index = cube.closure_index()
    before = cube[(0, 0)]
    cube.apply([((0, 0), CellStats(41, {}, 0)), ((0, 1), CellStats(3, {}, 0))])
    assert cube.closure_index() is index
    assert cube.closure_query((0, 0)).count == 41
    assert cube[(0, 0)].count == 41 and before.count != 41
    assert cube.closure_query((0, 1)).count == 3
    assert len(cube) == len(index) and index.superseded == 1


# --------------------------------------------------------------------------- #
# Tid-window merges and merge-level errors                                     #
# --------------------------------------------------------------------------- #


def test_merge_gives_new_cells_window_representatives():
    relation = Relation.from_rows([("a",), ("b",)])
    base = compute_closed_cube(relation, min_sup=1, algorithm="naive-closed")
    relation.append_rows([("b",), ("c",)])
    report = base.merge(relation, 2)
    assert report.delta_rows == 2
    c_cell = (relation.encode(0, "c"),)
    assert report.added == [c_cell] and base[c_cell].rep_tid == 3
    # A grown cell keeps its base representative: tids below the window.
    b_cell = (relation.encode(0, "b"),)
    assert b_cell in report.updated and base[b_cell].rep_tid == 1
    assert base[b_cell].count == 2


def test_merge_rejects_dimension_mismatch():
    one = compute_closed_cube(Relation.from_rows([("a",)]), min_sup=1)
    two_rel = Relation.from_rows([("a", "b")])
    with pytest.raises(IncrementalError):
        one.merge(two_rel, 0)


def test_merge_rejects_a_window_outside_the_relation():
    relation = Relation.from_rows([("a",), ("b",)])
    base = compute_closed_cube(relation, min_sup=1)
    with pytest.raises(IncrementalError):
        base.merge(relation, 3)
    assert base.merge(relation, 2).slots == []  # the empty window is a no-op


def test_merge_requires_rep_tids():
    relation = Relation.from_rows([("a",), ("b",)])
    base = compute_closed_cube(relation, min_sup=1)
    for _, stats in base.items():
        stats.rep_tid = None
    relation.append_rows([("a",)])
    with pytest.raises(IncrementalError):
        base.merge(relation, 2)


def test_merge_reports_what_changed():
    rows = [("a", "x"), ("b", "y")]
    relation = Relation.from_rows(rows)
    base = compute_closed_cube(relation, min_sup=1, algorithm="naive-closed")
    relation.append_rows([("a", "y")])
    report = base.merge(relation, 2)
    assert isinstance(report, MergeReport)
    assert report.delta_rows == 1
    assert report.candidates == 4  # the appended row's whole sub-lattice
    assert set(report.added).isdisjoint(report.updated)
    assert [cell for cell, _ in report.slots] == sorted(
        report.changed_cells(), key=sort_key
    )
    assert "added" in report.describe()


def test_merge_with_mismatched_measures_raises():
    rows = [("a",), ("b",)]
    measures = {"m": [1.0, 2.0]}
    relation = Relation.from_rows(rows, measures=measures)
    specs = [SumMeasure("m")]
    base = compute_closed_cube(relation, min_sup=1, measures=specs, algorithm="naive-closed")
    relation.append_rows([("c",)], measures={"m": [3.0]})
    with pytest.raises(IncrementalError):
        base.merge(relation, 2, measures=MeasureSet([MinMeasure("m")]))


# --------------------------------------------------------------------------- #
# Cell vocabulary used by the merge                                            #
# --------------------------------------------------------------------------- #


def test_meet_and_fixed_mask_vocabulary():
    assert meet_cells((1, None, 2), (1, 3, None)) == (1, None, None)
    assert meet_cells((1, 2), (3, 2)) == (None, 2)
    assert fixed_mask((1, None, 2)) == 0b101
    gens = set(generalisations((1, 2)))
    assert gens == {(1, 2), (1, None), (None, 2), (None, None)}


def test_closed_cell_state_reconstruction_matches_definition():
    state = closed_cell_state((1, None, 2), rep_tid=4)
    assert state.rep_tid == 4
    assert state.closed_mask == fixed_mask((1, None, 2))
    with pytest.raises(IncrementalError):
        closed_cell_state((1, None), rep_tid=None)


def test_measure_state_reconstruction_round_trips():
    relation = Relation.from_rows([("a",), ("a",)], measures={"m": [2.0, 4.0]})
    for spec, expected in [
        (SumMeasure("m"), 6.0),
        (AvgMeasure("m"), 3.0),
        (MinMeasure("m"), 2.0),
    ]:
        state = spec.reconstruct(expected, 2)
        assert state.value() == pytest.approx(expected)
    merged = MeasureSet([SumMeasure("m"), AvgMeasure("m")]).merge_values(
        {"sum(m)": 6.0, "avg(m)": 3.0}, 2, {"sum(m)": 10.0, "avg(m)": 10.0}, 1
    )
    assert merged["sum(m)"] == pytest.approx(16.0)
    assert merged["avg(m)"] == pytest.approx(16.0 / 3.0)


def test_maintenance_refuses_guessed_config():
    """A ServingCube constructed without an explicit config must not maintain
    itself under guessed settings (e.g. delta-merging an iceberg cube)."""
    from repro.query.engine import QueryEngine
    from repro.session.schema import CubeSchema
    from repro.session.serving import ServingCube

    relation = Relation.from_rows([("a",), ("a",), ("b",)])
    iceberg = compute_closed_cube(relation, min_sup=2)
    serving = ServingCube(
        relation, CubeSchema(("d0",)), iceberg, QueryEngine(iceberg), "c-cubing-star"
    )
    with pytest.raises(IncrementalError, match="ServingConfig"):
        serving.append([("c",)])
    assert relation.num_tuples == 3, "a refused append must not grow the relation"
    with pytest.raises(IncrementalError, match="ServingConfig"):
        serving.refresh()
    # Session-built and snapshot-loaded cubes always know their config.
    assert CubeSession.from_rows([("a",)]).closed().build().config_known


def test_append_rows_failing_mid_row_leaves_relation_intact():
    relation = Relation.from_rows([("a", "x"), ("b", "y")])
    with pytest.raises(TypeError):
        relation.append_rows([("c", ["unhashable"])])
    assert relation.num_tuples == 2
    assert {len(col) for col in relation.columns} == {2}, (
        "a mid-row encoding failure must not leave unequal column lengths"
    )
    # The relation still works end to end afterwards.
    relation.append_rows([("c", "z")])
    assert relation.num_tuples == 3


def test_full_recompute_append_reports_cache_invalidations():
    cube = CubeSession.from_rows([("a",), ("a",), ("b",)]).closed(min_sup=2).build()
    cube.point({"d0": "a"})
    report = cube.append([("b",)])
    assert report.mode == "full-recompute"
    assert report.invalidated_answers >= 1, (
        "the cleared answer caches must be counted in every mode"
    )
