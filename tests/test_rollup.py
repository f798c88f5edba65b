"""Tests for the adaptive rollup subsystem (:mod:`repro.rollup`).

The load-bearing property (the ISSUE's acceptance criterion) is *routing
invisibility*: every answer served from a materialised rollup table — by
exact grain match or by coarser-grain reaggregation — must equal, cell for
cell (count and measures), the answer the closed-cube engine produces for
the same query, and must stay equal across incremental appends.  The
hypothesis lattice property proves it over random relations, both column
backends, and both routing modes; the staleness tests prove it across all
three maintenance paths (copy-on-publish, in-place, full recompute).
Everything else exercises the parts: the shape recorder, the advisor's
budget/top-k policy, the table kernel build and delta merge, the serving
and session surfaces, the TCP verbs, and the merge-cache counters.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BACKEND_NAMES

from repro import (
    Avg,
    CubeCatalog,
    CubeSession,
    Sum,
    Relation,
    compute_closed_cube,
    open_query_engine,
)
from repro.core.columns import use_backend
from repro.core.errors import QueryError
from repro.core.measures import (
    AvgMeasure,
    MaxMeasure,
    MeasureSet,
    MinMeasure,
    SumMeasure,
)
from repro.rollup import (
    RollupRouter,
    RollupTable,
    ShapeRecorder,
    advise_rollups,
    materialise_rollups,
)
from repro.server import AsyncCubeServer, serve_tcp

SCHEMA = {"dimensions": ["A", "B", "C"], "measures": ["m"]}

MEASURES = MeasureSet((SumMeasure("m"), AvgMeasure("m")))


def _rows(seed: int, count: int, cardinality: int = 3):
    rng = random.Random(seed)
    return [
        (
            f"a{rng.randrange(cardinality)}",
            f"b{rng.randrange(cardinality)}",
            f"c{rng.randrange(cardinality)}",
            float(rng.randrange(1, 50)),
        )
        for _ in range(count)
    ]


def _serving(rows, min_sup: int = 1):
    return (
        CubeSession.from_rows(rows, schema=SCHEMA)
        .closed(min_sup=min_sup)
        .measures(Sum("m"), Avg("m"))
        .build()
    )


def _measured_relation(dim_rows, min_sup=1, measures=MEASURES):
    values = [float(i % 7 + 1) for i in range(len(dim_rows))]
    relation = Relation.from_rows(dim_rows, ["A", "B", "C"], measures={"m": values})
    cube = compute_closed_cube(
        relation, min_sup=min_sup, algorithm="c-cubing-mm",
        measures=list(measures.specs),
    )
    return relation, cube


def _flat(answers):
    """Comparable projection: routed answers carry ``closure=None``."""
    return [(a.cell, a.count, a.measures) for a in answers]


def _install_router(engine, relation, grains, min_sup, measures=MEASURES):
    router = RollupRouter(min_sup=min_sup)
    router.tables = {
        tuple(sorted(grain)): RollupTable.build(relation, grain, measures)
        for grain in grains
    }
    engine.router = router
    return router


def _routed_vs_engine_slices(engine, queries):
    """Each query answered twice: routed, then with the router detached."""
    pairs = []
    router = engine.router
    for fixed, group in queries:
        engine.clear_caches()
        engine.router = router
        routed = engine.slice(fixed, group)
        engine.clear_caches()
        engine.router = None
        reference = engine.slice(fixed, group)
        pairs.append((routed, reference))
    engine.router = router
    return pairs


# --------------------------------------------------------------------------- #
# ShapeRecorder                                                                #
# --------------------------------------------------------------------------- #


def test_recorder_logs_shapes_with_hits_and_cost():
    recorder = ShapeRecorder()
    recorder.record((0,), (1,), cost=5.0)
    recorder.record((0,), (1,), cost=7.0)
    recorder.record((2,), cost=1.0)
    stats = recorder.snapshot()
    assert [(s.fixed_dims, s.group_dims, s.hits, s.cost) for s in stats] == [
        ((0,), (1,), 2, 12.0),
        ((2,), (), 1, 1.0),
    ]
    assert stats[0].grain == (0, 1)
    assert recorder.stats() == {"shapes": 2, "recorded": 3, "sampled_out": 0}


def test_recorder_sampling_is_seeded_and_deterministic():
    streams = []
    for _ in range(2):
        recorder = ShapeRecorder(sample_rate=0.5, seed=11)
        for i in range(200):
            recorder.record((i % 4,), cost=1.0)
        streams.append(
            (recorder.snapshot(), recorder.recorded, recorder.sampled_out)
        )
    assert streams[0] == streams[1]
    assert streams[0][2] > 0  # some queries really were sampled out


def test_recorder_rejects_bad_sample_rate():
    with pytest.raises(ValueError):
        ShapeRecorder(sample_rate=0.0)
    with pytest.raises(ValueError):
        ShapeRecorder(sample_rate=1.5)


def test_recorder_evicts_the_coldest_shape_at_capacity():
    recorder = ShapeRecorder(max_shapes=2)
    recorder.record((0,))
    recorder.record((0,))
    recorder.record((1,))  # one hit: the coldest
    recorder.record((2,))  # evicts (1,)
    shapes = {s.fixed_dims for s in recorder.snapshot()}
    assert shapes == {(0,), (2,)}


def test_recorder_clear_drops_log_but_keeps_counters_meaningful():
    recorder = ShapeRecorder()
    recorder.record((0,))
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.recorded == 1


# --------------------------------------------------------------------------- #
# Advisor                                                                      #
# --------------------------------------------------------------------------- #


def _hot_recorder():
    recorder = ShapeRecorder()
    for _ in range(10):
        recorder.record((0,), (1,), cost=20.0)  # grain (0, 1): hottest
    for _ in range(5):
        recorder.record((2,), cost=5.0)  # grain (2,)
    recorder.record((0,), (2,), cost=1.0)  # grain (0, 2): coldest
    recorder.record((), ())  # apex: never a candidate
    return recorder


def test_advisor_ranks_by_cost_and_applies_top_k():
    relation, _ = _measured_relation([r[:3] for r in _rows(3, 40)])
    choices = advise_rollups(relation, _hot_recorder(), MEASURES, top_k=2)
    assert [c.dims for c in choices] == [(0, 1), (2,), (0, 2)]
    assert [c.chosen for c in choices] == [True, True, False]
    assert choices[0].reason == "selected"
    assert choices[2].reason == "beyond top-k"
    assert choices[0].hits == 10 and choices[0].cost == pytest.approx(200.0)


def test_advisor_enforces_the_byte_budget():
    relation, _ = _measured_relation([r[:3] for r in _rows(3, 40)])
    choices = advise_rollups(
        relation, _hot_recorder(), MEASURES, budget_bytes=1
    )
    assert all(not c.chosen for c in choices)
    assert all(c.reason == "over budget" for c in choices)


def test_advisor_min_hits_filters_cold_grains():
    relation, _ = _measured_relation([r[:3] for r in _rows(3, 40)])
    choices = advise_rollups(relation, _hot_recorder(), MEASURES, min_hits=5)
    assert [c.dims for c in choices] == [(0, 1), (2,)]


def test_materialise_builds_only_chosen_tables_with_actual_sizes():
    relation, _ = _measured_relation([r[:3] for r in _rows(3, 40)])
    choices, tables = materialise_rollups(
        relation, _hot_recorder(), MEASURES, top_k=2
    )
    assert set(tables) == {(0, 1), (2,)}
    for choice in choices:
        if choice.chosen:
            assert choice.reason == "materialised"
            assert choice.estimated_rows == len(tables[choice.dims])
            assert choice.estimated_bytes == tables[choice.dims].estimated_bytes


# --------------------------------------------------------------------------- #
# RollupTable: kernel build and delta merge                                    #
# --------------------------------------------------------------------------- #


def _brute_groups(relation, dims):
    """Reference group-by: count and Sum/Avg state (the group sum) per key."""
    groups = {}
    values = relation.measure_columns[relation.schema.measure_index("m")]
    for tid in range(relation.num_tuples):
        key = tuple(relation.columns[dim][tid] for dim in dims)
        entry = groups.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += values[tid]
    return groups


def test_table_build_matches_brute_force_group_by(column_backend):
    relation, _ = _measured_relation([r[:3] for r in _rows(7, 60)])
    table = RollupTable.build(relation, (0, 2), MEASURES)
    expected = _brute_groups(relation, (0, 2))
    assert set(table.rows) == set(expected)
    for key, (count, total) in expected.items():
        got_count, row = table.rows[key]
        assert got_count == count
        items = dict(table.measure_items(got_count, row))
        assert items["sum(m)"] == pytest.approx(total)
        assert items["avg(m)"] == pytest.approx(total / count)


def test_table_merged_delta_equals_full_rebuild(column_backend):
    rows = _rows(13, 50)
    extra = _rows(14, 25)
    relation, _ = _measured_relation([r[:3] for r in rows])
    table = RollupTable.build(relation, (0, 1), MEASURES)
    relation.append_rows(
        [r[:3] for r in extra],
        measures={"m": [float(i % 7 + 1) for i in range(len(extra))]},
    )
    yields = []
    merged = table.merged_delta(
        relation, batch_size=2, yield_between_batches=lambda: yields.append(1)
    )
    rebuilt = RollupTable.build(relation, (0, 1), MEASURES)
    assert merged is not table
    assert merged.covered_tuples == relation.num_tuples
    assert table.covered_tuples == 50  # the published table was not touched
    assert set(merged.rows) == set(rebuilt.rows)
    for key, (count, row) in rebuilt.rows.items():
        got_count, got_row = merged.rows[key]
        assert got_count == count
        assert got_row == pytest.approx(row)
    assert yields  # the chunked merge really yielded between batches


def test_table_merged_delta_is_identity_without_growth():
    relation, _ = _measured_relation([r[:3] for r in _rows(5, 20)])
    table = RollupTable.build(relation, (0,), MEASURES)
    assert table.merged_delta(relation) is table


def test_table_select_posting_semantics():
    relation, _ = _measured_relation([r[:3] for r in _rows(9, 30)])
    table = RollupTable.build(relation, (0, 1), MEASURES)
    assert set(table.select({})) == set(table.rows)
    value = next(iter(relation.encoder(0).values()))
    selected = list(table.select({0: value}))
    assert selected and all(key[0] == value for key in selected)
    assert list(table.select({0: 9999})) == []


def test_min_max_states_fold_through_reaggregation():
    dim_rows = [r[:3] for r in _rows(21, 40)]
    measures = MeasureSet((MinMeasure("m"), MaxMeasure("m")))
    relation, cube = _measured_relation(dim_rows, measures=measures)
    engine = open_query_engine(cube)
    _install_router(engine, relation, [(0, 1, 2)], min_sup=1, measures=measures)
    code = relation.columns[0][0]
    engine.clear_caches()
    routed = engine.slice({0: code}, [1])
    router, engine.router = engine.router, None
    engine.clear_caches()
    reference = engine.slice({0: code}, [1])
    engine.router = router
    assert router.counters["reaggregated"] == 1
    assert _flat(routed) == _flat(reference)


# --------------------------------------------------------------------------- #
# Router vs engine: the lattice property                                       #
# --------------------------------------------------------------------------- #


def _lattice_queries(relation):
    """Every (fixed, group) partition of the 3-dim lattice, two value picks."""
    queries = []
    picks = [0, relation.num_tuples - 1]
    dims = range(relation.num_dimensions)
    for mask in range(3 ** len(list(dims))):
        roles, rest = [], mask
        for _ in dims:
            roles.append(rest % 3)  # 0: free, 1: fixed, 2: group-by
            rest //= 3
        group = tuple(d for d, role in enumerate(roles) if role == 2)
        for tid in picks:
            fixed = {
                d: relation.columns[d][tid]
                for d, role in enumerate(roles)
                if role == 1
            }
            queries.append((fixed, group))
    return queries


def _point_cells(relation):
    cells = []
    for tid in (0, relation.num_tuples - 1):
        for mask in range(1, 8):
            cells.append(
                tuple(
                    relation.columns[d][tid] if mask & (1 << d) else None
                    for d in range(3)
                )
            )
    # A cell mixing first/last-row values: often absent -> count is None.
    cells.append((relation.columns[0][0], relation.columns[1][-1], None))
    return cells


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)
        ),
        min_size=1,
        max_size=18,
    ),
    min_sup=st.integers(1, 2),
)
def test_lattice_property_routed_equals_engine(rows, min_sup):
    """Routed answers == engine answers over the whole query lattice.

    Two router configurations: every grain installed (all matches exact) and
    only the finest grain installed (every match reaggregates), across both
    column backends.
    """
    all_grains = [
        grain
        for mask in range(1, 8)
        for grain in [tuple(d for d in range(3) if mask & (1 << d))]
    ]
    for backend in BACKEND_NAMES:
        with use_backend(backend):
            relation, cube = _measured_relation(rows, min_sup=min_sup)
            engine = open_query_engine(cube)
            for grains in (all_grains, [(0, 1, 2)]):
                router = _install_router(engine, relation, grains, min_sup)
                for fixed, group in _lattice_queries(relation):
                    engine.clear_caches()
                    engine.router = router
                    routed = engine.slice(fixed, group)
                    engine.clear_caches()
                    engine.router = None
                    assert _flat(routed) == _flat(engine.slice(fixed, group))
                for cell in _point_cells(relation):
                    engine.clear_caches()
                    engine.router = router
                    routed_point = engine.point(cell)
                    engine.clear_caches()
                    engine.router = None
                    reference = engine.point(cell)
                    assert routed_point.count == reference.count
                    assert routed_point.measures == reference.measures


def test_router_counts_exact_and_reaggregated_matches(column_backend):
    relation, cube = _measured_relation([r[:3] for r in _rows(31, 50)])
    engine = open_query_engine(cube)
    router = _install_router(engine, relation, [(0, 1)], min_sup=1)
    code = relation.columns[0][0]
    engine.clear_caches()
    engine.slice({0: code}, [1])  # exact: grain == (0, 1)
    engine.clear_caches()
    engine.slice({}, [0])  # coarser: reaggregated from (0, 1)
    engine.clear_caches()
    engine.slice({0: code}, [2])  # grain (0, 2) not installed: fallback
    assert router.counters["routed_slices"] == 2
    assert router.counters["exact_grain"] == 1
    assert router.counters["reaggregated"] == 1
    # The uncovered slice falls back once, then once per point its
    # enumeration resolves — counters are best-effort traffic telemetry.
    assert router.counters["fallbacks"] >= 1
    assert router.hits[(0, 1)] == 2
    stats = router.stats()
    assert stats["enabled"] and stats["grains"] == 1
    assert stats["tables"]["0,1"]["hits"] == 2
    assert stats["total_bytes"] == router.total_bytes() > 0


def test_routed_points_respect_min_sup(column_backend):
    dim_rows = [("x", "y", "z")] * 3 + [("q", "r", "s")]  # singleton row
    relation, cube = _measured_relation(dim_rows, min_sup=2)
    engine = open_query_engine(cube)
    router = _install_router(engine, relation, [(0, 1, 2)], min_sup=2)
    rare = tuple(relation.columns[d][3] for d in range(3))
    hot = tuple(relation.columns[d][0] for d in range(3))
    assert engine.point(rare).count is None  # below threshold, routed
    assert engine.point(hot).count == 3
    assert router.counters["routed_points"] == 2


# --------------------------------------------------------------------------- #
# Serving surface: enable/advise/disable, recorder plumbing                    #
# --------------------------------------------------------------------------- #


def _drive_traffic(serving, repeats: int = 3):
    for _ in range(repeats):
        for value in ("a0", "a1", "a2"):
            serving.slice({"A": value}, group_by=["B"])
        serving.point({"A": "a0"})


def test_enable_rollups_mines_the_recorded_workload():
    serving = _serving(_rows(41, 80))
    _drive_traffic(serving)
    recorder_stats = serving.engine.recorder.stats()
    assert recorder_stats["recorded"] > 0
    report = serving.enable_rollups(top_k=2)
    grains = {tuple(c["dims"]) for c in report["installed"]}
    assert (0, 1) in grains  # the slice traffic's grain
    assert report["total_bytes"] > 0
    stats = serving.rollup_stats()
    assert stats["enabled"] and stats["grains"] == len(report["installed"])
    for entry in stats["tables"].values():
        assert entry["dimensions"] == [SCHEMA["dimensions"][d] for d in entry["dims"]]


def test_routed_serving_answers_equal_engine_answers():
    serving = _serving(_rows(43, 80))
    _drive_traffic(serving)
    serving.enable_rollups()
    queries = [({"A": "a0"}, ["B"]), ({"A": "a2"}, ["B"]), ({}, ["A"])]

    def snap():
        serving.clear_cache()
        return [
            [(a.coordinates_dict(), a.count, a.measures_dict()) for a in
             serving.slice(fixed, group_by=group)]
            for fixed, group in queries
        ] + [serving.point({"A": "a1"}).count]

    routed = snap()
    before = serving.rollup_stats()["routed_slices"]
    assert before > 0
    router, serving.engine.router = serving.engine.router, None
    reference = snap()
    serving.engine.router = router
    assert routed == reference


def test_advise_rollups_is_a_dry_run():
    serving = _serving(_rows(47, 60))
    _drive_traffic(serving)
    report = serving.advise_rollups(top_k=1)
    assert len([c for c in report["choices"] if c["chosen"]]) == 1
    assert serving.engine.router is None  # nothing installed
    assert serving.rollup_stats() == {"enabled": False}


def test_enable_rollups_remembers_parameters_and_disable_uninstalls():
    serving = _serving(_rows(53, 60))
    _drive_traffic(serving)
    first = serving.enable_rollups(budget_bytes=123_456, top_k=3)
    assert first["budget_bytes"] == 123_456
    again = serving.enable_rollups()  # omitted params reuse the stored ones
    assert again["budget_bytes"] == 123_456 and again["top_k"] == 3
    serving.disable_rollups()
    assert serving.engine.router is None
    assert serving.rollup_stats() == {"enabled": False}


def test_enable_rollups_requires_config_and_single_engine():
    from repro import CubeSchema
    from repro.session.serving import ServingCube

    relation = Relation.from_rows([("x", "p"), ("y", "q")], ["store", "product"])
    cube = compute_closed_cube(relation)
    bare = ServingCube(
        relation, CubeSchema(("store", "product")), cube,
        open_query_engine(cube), "qc-dfs",
    )  # no explicit config
    with pytest.raises(QueryError, match="config"):
        bare.enable_rollups()

    partitioned = (
        CubeSession.from_rows(
            [r[:3] for r in _rows(59, 30)],
            schema={"dimensions": ["A", "B", "C"]},
        )
        .partitioned("A")
        .build()
    )
    with pytest.raises(QueryError, match="partitioned"):
        partitioned.enable_rollups()
    with pytest.raises(QueryError, match="partitioned"):
        partitioned.advise_rollups()
    assert partitioned.rollup_stats() == {"enabled": False}
    partitioned.disable_rollups()  # tolerated no-op


def test_session_builder_enables_rollups():
    serving = (
        CubeSession.from_rows(_rows(61, 50), schema=SCHEMA)
        .measures(Sum("m"), Avg("m"))
        .enable_rollups(budget_bytes=2_000_000, top_k=4)
        .build()
    )
    # The log starts empty, so the router is installed with no tables yet.
    stats = serving.rollup_stats()
    assert stats["enabled"] and stats["grains"] == 0
    _drive_traffic(serving)
    report = serving.enable_rollups()  # re-mine with the builder's params
    assert report["budget_bytes"] == 2_000_000 and report["top_k"] == 4
    assert serving.rollup_stats()["grains"] == len(report["installed"])


def test_stats_surfaces_recorder_and_rollups():
    serving = _serving(_rows(67, 40))
    stats = serving.stats()
    assert stats["rollups"] == {"enabled": False}
    engine_stats = serving.engine.stats()
    assert engine_stats["rollups"] == {"enabled": False}
    assert engine_stats["recorder"]["recorded"] == 0
    _drive_traffic(serving)
    serving.enable_rollups()
    assert serving.stats()["rollups"]["enabled"]


# --------------------------------------------------------------------------- #
# Staleness: appends and refreshes keep routed answers exact                   #
# --------------------------------------------------------------------------- #


def _reference_slices(serving, queries):
    router, serving.engine.router = serving.engine.router, None
    serving.clear_cache()
    reference = [
        [(a.coordinates_dict(), a.count, a.measures_dict()) for a in
         serving.slice(fixed, group_by=group)]
        for fixed, group in queries
    ]
    serving.engine.router = router
    return reference


@pytest.mark.parametrize("copy_on_publish", [False, True])
def test_append_then_route_stays_fresh(copy_on_publish):
    serving = _serving(_rows(71, 60))
    _drive_traffic(serving)
    serving.enable_rollups()
    queries = [({"A": "a0"}, ["B"]), ({}, ["A"])]
    batch = _rows(72, 25)
    report = serving.append(batch, copy_on_publish=copy_on_publish)
    assert report.mode == "delta-merge"
    # No cache clear on the routed path: the publish swapped the tables.
    routed = [
        [(a.coordinates_dict(), a.count, a.measures_dict()) for a in
         serving.slice(fixed, group_by=group)]
        for fixed, group in queries
    ]
    assert routed == _reference_slices(serving, queries)
    for entry in serving.rollup_stats()["tables"].values():
        assert entry["covered_tuples"] == serving.relation.num_tuples


def test_full_recompute_append_rebuilds_the_router():
    serving = _serving(_rows(73, 50), min_sup=2)  # min_sup>1: no delta merge
    _drive_traffic(serving)
    serving.enable_rollups()
    hits_before = dict(serving.engine.router.hits)
    report = serving.append(_rows(74, 20))
    assert report.mode == "full-recompute"
    router = serving.engine.router
    assert router is not None  # survived the engine swap
    assert router.hits == hits_before  # counters carried over
    queries = [({"A": "a1"}, ["B"]), ({}, ["B"])]
    routed = [
        [(a.coordinates_dict(), a.count, a.measures_dict()) for a in
         serving.slice(fixed, group_by=group)]
        for fixed, group in queries
    ]
    assert routed == _reference_slices(serving, queries)
    for entry in serving.rollup_stats()["tables"].values():
        assert entry["covered_tuples"] == serving.relation.num_tuples


def test_refresh_carries_recorder_and_router():
    serving = _serving(_rows(79, 40))
    _drive_traffic(serving)
    recorded = serving.engine.recorder.recorded
    serving.enable_rollups()
    grains = set(serving.engine.router.tables)
    serving.refresh()
    assert serving.engine.recorder.recorded == recorded
    assert set(serving.engine.router.tables) == grains


# --------------------------------------------------------------------------- #
# Server verbs: rollups / advise, stats plumbing, TCP round trip               #
# --------------------------------------------------------------------------- #


@pytest.fixture
def catalog(tmp_path):
    return CubeCatalog(str(tmp_path / "cubes"))


async def _rpc(reader, writer, request):
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def _create_sales(catalog):
    session = (
        CubeSession.from_rows(_rows(91, 60), schema=SCHEMA)
        .measures(Sum("m"))
    )
    return catalog.create("sales", session)


def test_server_advise_and_rollups_verbs(catalog):
    _create_sales(catalog)

    async def scenario():
        async with AsyncCubeServer(catalog) as server:
            for value in ("a0", "a1", "a2"):
                await server.execute(
                    "sales", {"op": "slice", "fixed": {"A": value},
                              "group_by": ["B"]}
                )
            dry = await server.advise("sales", top_k=2)
            assert dry["applied"] is False
            assert any(c["chosen"] for c in dry["choices"])

            applied = await server.advise("sales", top_k=2, apply=True)
            assert applied["applied"] is True
            assert applied["installed"]

            stats = await server.rollups("sales")
            assert stats["enabled"] and stats["grains"] >= 1

            server_stats = server.stats()
            entry = server_stats["cubes"]["sales"]
            assert entry["rollups"]["enabled"]

    asyncio.run(scenario())


def test_tcp_rollup_verbs_round_trip(catalog):
    _create_sales(catalog)

    async def scenario():
        async with AsyncCubeServer(catalog) as server:
            tcp = await serve_tcp(server, port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                for value in ("a0", "a1"):
                    await _rpc(
                        reader, writer,
                        {"op": "query", "cube": "sales", "q": {"A": value}},
                    )
                dry = await _rpc(
                    reader, writer, {"op": "advise", "cube": "sales"}
                )
                assert dry["ok"] and dry["result"]["applied"] is False

                applied = await _rpc(
                    reader, writer,
                    {"op": "advise", "cube": "sales", "budget_bytes": 4_000_000,
                     "top_k": 4, "apply": True},
                )
                assert applied["ok"] and applied["result"]["applied"] is True

                routed = await _rpc(
                    reader, writer, {"op": "rollups", "cube": "sales"}
                )
                assert routed["ok"] and routed["result"]["enabled"]

                bad = await _rpc(
                    reader, writer,
                    {"op": "advise", "cube": "sales", "top_k": "many"},
                )
                assert not bad["ok"]
            finally:
                writer.close()
                await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()

    asyncio.run(scenario())
