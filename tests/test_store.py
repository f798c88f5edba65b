"""The cube's versioned, append-only store: O(delta) publishes and pinned views.

An append no longer clones or re-indexes the cube: the merge is evaluated
against the live store and :meth:`QueryEngine.publish` lands the changed
cells — a new, immutable ``CellStats`` per grown cell, the superseded one
logged for pinned views.  These tests hold that design to its claims:

* a view pinned at any version keeps answering *that* version — under the
  default ``append`` too, which used to mutate shared cells under it — and
  equals a from-scratch build of the same prefix, across store compactions
  (a hypothesis property over random append sequences, both backends);
* one small publish on a large cube does O(changed) work;
* the columnar view is extended by the appended tail, not rebuilt;
* the store's shape is observable (``stats()["store"]``, the server's
  ``stats`` verb, one log event per compaction, ``publish_seconds``).
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BACKEND_NAMES

from repro import Avg, CubeCatalog, CubeSession, Sum
from repro.core.columns import get_backend, use_backend
from repro.core.cube import CellStats, CubeResult
from repro.incremental import maintainer as maintainer_module
from repro.incremental.maintainer import CubeMaintainer
from repro.query.index import CubeIndex
from repro.server import AsyncCubeServer

DIMS = ["A", "B", "C"]


def _build(rows, with_measures: bool):
    if with_measures:
        session = CubeSession.from_rows(
            rows, schema={"dimensions": DIMS, "measures": ["m"]}
        )
        return session.closed(min_sup=1).measures(Sum("m"), Avg("m")).build()
    return CubeSession.from_rows(
        [row[:3] for row in rows], schema=DIMS
    ).closed(min_sup=1).build()


def _queries(rows):
    """Every lattice cell and every slice shape over the values in ``rows``."""
    values = [sorted({row[dim] for row in rows}) for dim in range(3)]
    points = [
        {DIMS[dim]: value for dim, value in enumerate(combo) if value is not None}
        for combo in itertools.product(*[[None, *vals] for vals in values])
    ]
    slices = []
    for roles in itertools.product("fg-", repeat=3):  # fixed / group-by / rolled up
        fixed_dims = [dim for dim in range(3) if roles[dim] == "f"]
        group_by = [DIMS[dim] for dim in range(3) if roles[dim] == "g"]
        for combo in itertools.product(*[values[dim] for dim in fixed_dims]):
            fixed = {DIMS[dim]: value for dim, value in zip(fixed_dims, combo)}
            slices.append((fixed, group_by))
    return points, slices


def _answers(reader, points, slices):
    """Everything a ``ServingCube`` or ``CubeView`` says, as plain data."""

    def flat(answer):
        return (answer.coordinates, answer.count, answer.measures, answer.closure)

    return (
        [flat(reader.point(spec)) for spec in points],
        [[flat(a) for a in reader.slice(fixed, group)] for fixed, group in slices],
        len(reader),
    )


def _assert_same_answers(left, right):
    """Exact on everything but ``avg``, which a merge reconstructs from
    finalised values (last-ulp drift; see docs/ROLLUPS.md)."""
    left_points, left_slices, left_len = left
    right_points, right_slices, right_len = right
    assert left_len == right_len
    pairs = list(zip(left_points, right_points))
    assert len(left_slices) == len(right_slices)
    for left_slice, right_slice in zip(left_slices, right_slices):
        assert len(left_slice) == len(right_slice)
        pairs.extend(zip(left_slice, right_slice))
    for (l_coords, l_count, l_measures, l_closure), (
        r_coords, r_count, r_measures, r_closure
    ) in pairs:
        assert (l_coords, l_count, l_closure) == (r_coords, r_count, r_closure)
        assert [name for name, _ in l_measures] == [name for name, _ in r_measures]
        for (name, l_value), (_, r_value) in zip(l_measures, r_measures):
            if name.startswith("avg"):
                assert l_value == pytest.approx(r_value, rel=1e-9)
            else:
                assert l_value == r_value


ROW = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
    st.integers(-3, 9).map(float),
)


@settings(max_examples=20, deadline=None)
@given(
    base=st.lists(ROW, min_size=1, max_size=12),
    batches=st.lists(st.lists(ROW, min_size=1, max_size=5), min_size=1, max_size=4),
    with_measures=st.booleans(),
    batch_size=st.sampled_from([1, 7, None]),
    compact_after=st.integers(0, 3),
)
def test_every_pinned_version_equals_a_rebuild_of_its_prefix(
    base, batches, with_measures, batch_size, compact_after
):
    points, slices = _queries(base + [row for batch in batches for row in batch])
    saved_batch_size = maintainer_module.MERGE_BATCH_SIZE
    maintainer_module.MERGE_BATCH_SIZE = batch_size
    try:
        for backend in BACKEND_NAMES:
            with use_backend(backend):
                serving = _build(base, with_measures)
                views = [serving.read_snapshot()]
                for step, batch in enumerate(batches):
                    rows = batch if with_measures else [row[:3] for row in batch]
                    assert serving.append(rows).mode == "delta-merge"
                    if step == compact_after:
                        CubeMaintainer(serving)._compact_store()
                    views.append(serving.read_snapshot())
                # (Small cubes may also compact on their own along the way.)
                assert serving.store_compactions >= (compact_after < len(batches))
                # Only now, with every later append (and the compaction)
                # behind them, are the pinned views read.
                prefix = list(base)
                for version, view in enumerate(views):
                    assert view.version == version
                    answers = _answers(view, points, slices)
                    assert answers == _answers(view, points, slices)  # repeatable
                    _assert_same_answers(
                        answers,
                        _answers(_build(prefix, with_measures), points, slices),
                    )
                    if version < len(batches):
                        prefix.extend(batches[version])
                _assert_same_answers(
                    _answers(serving, points, slices),
                    _answers(views[-1], points, slices),
                )
    finally:
        maintainer_module.MERGE_BATCH_SIZE = saved_batch_size


def test_view_pins_under_the_default_append_mode():
    """The regression the immutable stats fix: ``append(rows)`` without
    ``copy_on_publish`` used to grow the cells a view shared."""
    rng = random.Random(7)

    def draw():
        return tuple(f"{d.lower()}{rng.randrange(3)}" for d in DIMS)

    rows = [draw() for _ in range(40)]
    serving = CubeSession.from_rows(rows, schema=DIMS).build()
    points, slices = _queries(rows)
    view = serving.read_snapshot()
    before = _answers(view, points, slices)
    before_live = _answers(serving, points, slices)
    assert before == before_live

    report = serving.append([draw() for _ in range(10)] + [("a9", "b9", "c9")])
    assert report.mode == "delta-merge" and report.merge.updated
    assert _answers(view, points, slices) == before          # answers, slices, len
    assert _answers(serving, points, slices) != before_live  # the live cube moved on
    assert view.point({"A": "a9"}).count is None
    assert serving.point({"A": "a9"}).count == 1
    assert len(view) == before[2] < len(serving)


def test_pinned_views_hold_while_appends_and_compactions_land():
    """Stress: more readers than cores, a short switch interval, and every
    reader re-checking an old pin while the writer publishes and compacts."""
    rng = random.Random(19)

    def draw():
        return tuple(f"{d.lower()}{rng.randrange(3)}" for d in DIMS)

    rows = [draw() for _ in range(60)]
    serving = CubeSession.from_rows(rows, schema=DIMS).build()
    points, slices = _queries(rows)
    errors = []
    done = threading.Event()

    def reader():
        while not done.is_set():
            view = serving.read_snapshot()
            pinned = _answers(view, points[:12], slices[:12])
            time.sleep(0.002)  # let publishes land between the two reads
            if _answers(view, points[:12], slices[:12]) != pinned:
                errors.append(view.version)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=reader) for _ in range(6)]
    try:
        for thread in readers:
            thread.start()
        for _ in range(25):
            serving.append([draw() for _ in range(8)])
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=20)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors, f"pinned views changed under versions {sorted(set(errors))}"
    assert serving.version == 25 and serving.store_compactions >= 1


# --------------------------------------------------------------------------- #
# O(delta) publish                                                             #
# --------------------------------------------------------------------------- #


def _wide_rows(rng: random.Random, count: int):
    return [tuple(f"v{rng.randrange(8)}" for _ in range(5)) for _ in range(count)]


def test_small_publish_on_a_large_cube_does_o_changed_work(monkeypatch):
    rng = random.Random(11)
    serving = CubeSession.from_rows(
        _wide_rows(rng, 12_000), schema=[f"d{dim}" for dim in range(5)]
    ).build()
    assert len(serving) >= 20_000
    serving.slice({"d0": "v0"}, group_by=["d1"])  # builds the columnar view, if any
    index = serving.engine.index

    def forbidden(*_args, **_kwargs):
        raise AssertionError("an append must not clone or re-index the cube")

    monkeypatch.setattr(CubeResult, "clone", forbidden)
    monkeypatch.setattr(CubeIndex, "from_cube", forbidden)
    constructed = 0
    real_init = CellStats.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal constructed
        constructed += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CellStats, "__init__", counting_init)
    cells_before = len(serving)
    report = serving.append(_wide_rows(rng, 4))
    monkeypatch.setattr(CellStats, "__init__", real_init)

    assert report.mode == "delta-merge"
    changed = len(report.merge.slots)
    assert 0 < changed == len(report.merge.added) + len(report.merge.updated)
    # One stats object per changed cell, plus the throwaway probe entries of
    # the targeted cache invalidation (answer caches, slice cache).
    assert changed <= constructed <= 3 * changed
    assert constructed < cells_before // 20
    assert serving.engine.index is index  # same store, extended
    assert index.superseded == len(report.merge.updated)
    assert len(index) == cells_before + len(report.merge.added)
    assert 0.0 < report.publish_seconds < report.elapsed_seconds


def test_columns_view_is_extended_by_the_appended_tail(monkeypatch):
    rng = random.Random(13)
    cube = CubeSession.from_rows(_wide_rows(rng, 400), schema=list("VWXYZ")).build().cube
    index = cube.closure_index()
    with use_backend("python"):
        assert index.columns_view() is None
    np = get_backend().np
    if np is None:
        assert index.columns_view() is None
        return
    first = index.columns_view()
    assert all(len(column) == len(index) for column in first)

    converted = 0
    real_fromiter = np.fromiter

    def counting_fromiter(iterable, dtype, count=-1):
        nonlocal converted
        converted += count
        return real_fromiter(iterable, dtype=dtype, count=count)

    monkeypatch.setattr(np, "fromiter", counting_fromiter)
    new_cells = [((90 + step, None, step, None, 0), CellStats(1, {}, 0)) for step in range(3)]
    grown_cell, grown_stats = next(iter(cube.items()))
    for step in range(40):  # crosses at least one buffer doubling
        cube.apply(
            [((step, step, step, step, 77), CellStats(1, {}, 0))]
            + (new_cells if step == 0 else [])
            + [(grown_cell, CellStats(grown_stats.count + step + 1, {}, 0))]
        )
        view = index.columns_view()
        assert all(len(column) == len(index) for column in view)
    # Only new cells were converted — never the cube again, and nothing at
    # all for the cell that merely grew.
    assert converted == (40 + len(new_cells)) * index.num_dims
    monkeypatch.setattr(np, "fromiter", real_fromiter)
    rebuilt = CubeIndex.from_cube(cube).columns_view()
    assert [column.tolist() for column in index.columns_view()] == [
        column.tolist() for column in rebuilt
    ]
    assert [column.tolist() for column in first] == [
        column[: len(first[0])].tolist() for column in rebuilt
    ]


# --------------------------------------------------------------------------- #
# Observability                                                                #
# --------------------------------------------------------------------------- #


def test_store_stats_compaction_event_and_publish_seconds(caplog):
    rng = random.Random(17)

    def draw():
        return tuple(f"{d.lower()}{rng.randrange(2)}" for d in DIMS)

    serving = CubeSession.from_rows([draw() for _ in range(30)], schema=DIMS).build()
    live = len(serving)
    assert serving.stats()["store"] == {
        "live_cells": live, "slots": live, "superseded": 0,
        "compactions": 0, "limit": live,
    }
    assert serving.append([]).publish_seconds == 0.0  # no-op: nothing published

    view = serving.read_snapshot()
    apex_before = view.point({}).count
    compacted_at = None
    with caplog.at_level(logging.INFO, logger="repro.incremental.maintainer"):
        # Two dense dimensions: every append grows most cells, so superseded
        # records soon outnumber the live ones and a compaction fires.
        for step in range(1, 12):
            report = serving.append([draw() for _ in range(6)])
            assert report.mode == "delta-merge" and report.publish_seconds > 0.0
            store = serving.stats()["store"]
            assert store["slots"] == store["live_cells"] + store["superseded"]
            assert store["limit"] == store["live_cells"] == len(serving)
            assert store["superseded"] <= store["live_cells"]
            if store["compactions"] and compacted_at is None:
                compacted_at = step
                assert store["superseded"] == 0
    assert compacted_at is not None
    events = [r for r in caplog.records if getattr(r, "event", "") == "store_compaction"]
    assert len(events) == serving.stats()["store"]["compactions"] >= 1
    assert events[0].live_cells <= events[0].slots_before
    assert events[0].compactions == 1
    # The view pinned before it all kept the store it pinned.
    assert view.point({}).count == apex_before
    assert serving.point({}).count == apex_before + 66


def test_server_stats_verb_surfaces_the_store(tmp_path):
    catalog = CubeCatalog(str(tmp_path / "cubes"))
    catalog.create("sales", [("s1", "p1"), ("s1", "p2"), ("s2", "p1")],
                   schema=["store", "product"])

    async def scenario():
        async with AsyncCubeServer(catalog) as server:
            await server.query("sales", {"store": "s1"})
            await server.append("sales", [("s1", "p1")])
            return server.stats()["cubes"]["sales"]["store"]

    store = asyncio.run(scenario())
    assert store["superseded"] >= 1 and store["compactions"] == 0
    assert store["slots"] == store["live_cells"] + store["superseded"]
