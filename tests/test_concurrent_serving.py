"""Concurrency tests: RWLock, cache generations, and torn-read freedom.

The load-bearing property (the ISSUE's acceptance criterion) is
*prefix-consistency*: with appends and queries running in parallel threads
under copy-on-publish maintenance, every answer must equal the answer of
some published cube version — the cube after 0, 1, ..., k appends — and a
version-pinned read must equal exactly its version's answer.  A torn read
(a count matching no version) or a stale cache entry (a pinned mismatch)
fails the test.  Everything else here exercises the primitives that make
the property hold: the reader-writer lock, the cache's generation fencing,
the index's mutation counter, and the explicit empty-append no-ops.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro import CubeSession, Relation
from repro.concurrency import RWLock
from repro.query.cache import LRUCache
from repro.query.index import CubeIndex


# --------------------------------------------------------------------------- #
# RWLock                                                                       #
# --------------------------------------------------------------------------- #


def test_rwlock_allows_concurrent_readers():
    lock = RWLock()
    inside = threading.Barrier(3, timeout=5)

    def reader():
        with lock.read():
            inside.wait()  # all three readers hold the lock at once

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in threads)


def test_rwlock_writer_is_exclusive():
    lock = RWLock()
    counter = {"value": 0, "max_seen": 0}

    def writer():
        for _ in range(200):
            with lock.write():
                counter["value"] += 1
                counter["max_seen"] = max(counter["max_seen"], counter["value"])
                counter["value"] -= 1

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert counter["max_seen"] == 1  # never two writers inside


def test_rwlock_writer_preference_blocks_new_readers():
    lock = RWLock()
    order = []
    reader_entered = threading.Event()
    release_first_reader = threading.Event()

    def first_reader():
        with lock.read():
            reader_entered.set()
            release_first_reader.wait(timeout=5)
        order.append("reader1-out")

    def writer():
        reader_entered.wait(timeout=5)
        with lock.write():
            order.append("writer")

    def late_reader():
        # Starts while the writer is queued: must wait behind it.
        with lock.read():
            order.append("reader2")

    t1 = threading.Thread(target=first_reader)
    t2 = threading.Thread(target=writer)
    t1.start()
    reader_entered.wait(timeout=5)
    t2.start()
    time.sleep(0.05)  # let the writer queue up
    t3 = threading.Thread(target=late_reader)
    t3.start()
    time.sleep(0.05)
    release_first_reader.set()
    for thread in (t1, t2, t3):
        thread.join(timeout=5)
    assert order.index("writer") < order.index("reader2")


def test_rwlock_release_without_acquire_raises():
    lock = RWLock()
    with pytest.raises(RuntimeError):
        lock.release_read()
    with pytest.raises(RuntimeError):
        lock.release_write()


# --------------------------------------------------------------------------- #
# LRUCache generations                                                         #
# --------------------------------------------------------------------------- #


def test_put_if_generation_drops_stale_writes():
    cache: LRUCache = LRUCache(8)
    generation = cache.generation
    cache.clear()  # an invalidation in between
    assert cache.put_if_generation("key", "stale", generation) is False
    assert cache.get("key") is None
    assert cache.put_if_generation("key", "fresh", cache.generation) is True
    assert cache.get("key") == "fresh"


def test_discard_and_clear_advance_the_generation():
    cache: LRUCache = LRUCache(8)
    cache.put("a", 1)
    before = cache.generation
    assert cache.discard("a") is True
    assert cache.generation == before + 1
    cache.clear()
    assert cache.generation == before + 2
    assert cache.discard("missing") is False
    assert cache.generation == before + 2  # a no-op discard does not bump


def test_bump_generation_fences_without_dropping_entries():
    cache: LRUCache = LRUCache(8)
    cache.put("a", 1)
    generation = cache.generation
    cache.bump_generation()
    assert cache.get("a") == 1  # entries survive
    assert cache.put_if_generation("b", 2, generation) is False  # writers fenced


def test_put_if_generation_respects_capacity_and_eviction():
    cache: LRUCache = LRUCache(2)
    generation = cache.generation
    for key in ("a", "b", "c"):
        assert cache.put_if_generation(key, key, generation) is True
    assert len(cache) == 2 and cache.stats()["evictions"] == 1
    disabled: LRUCache = LRUCache(0)
    assert disabled.put_if_generation("a", 1, disabled.generation) is False


def test_stats_snapshot_is_consistent_under_hammering():
    cache: LRUCache = LRUCache(64)
    stop = threading.Event()
    failures = []

    def hammer(seed: int) -> None:
        rng = random.Random(seed)
        while not stop.is_set():
            key = rng.randrange(256)
            if rng.random() < 0.5:
                cache.put(key, key)
            else:
                cache.get(key)
            if rng.random() < 0.02:
                cache.discard(key)

    def watch() -> None:
        while not stop.is_set():
            stats = cache.stats()
            if stats["entries"] > stats["capacity"]:
                failures.append(stats)

    threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(4)]
    threads.append(threading.Thread(target=watch))
    for thread in threads:
        thread.start()
    time.sleep(0.4)
    stop.set()
    for thread in threads:
        thread.join(timeout=5)
    assert not failures, f"cache exceeded capacity under concurrency: {failures[:3]}"
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] > 0
    assert 0.0 <= stats["hit_rate"] <= 1.0


# --------------------------------------------------------------------------- #
# CubeIndex append / supersede bookkeeping                                     #
# --------------------------------------------------------------------------- #


def test_cube_index_appends_and_supersessions_are_counted():
    relation = Relation.from_rows([(0, 0), (0, 1), (1, 0)])
    cube = CubeSession.from_relation(relation).build().cube
    index = CubeIndex.from_cube(cube)
    assert len(index) == len(cube) and index.superseded == 0
    from repro.core.cube import CellStats

    index.add_cells([((9, 9), CellStats(1))])
    assert (len(index), index.superseded) == (len(cube) + 1, 0)
    # A second version of the same cell keeps its slot and logs the first.
    index.add_cells([((9, 9), CellStats(2))])
    assert (len(index), index.superseded) == (len(cube) + 1, 1)
    assert index.closure((9, 9))[1].count == 2


# --------------------------------------------------------------------------- #
# Explicit empty-append no-ops                                                 #
# --------------------------------------------------------------------------- #


def test_serving_cube_empty_append_is_explicit_noop():
    cube = CubeSession.from_rows([("a", "b"), ("a", "c")], schema=["X", "Y"]).build()
    version = cube.version
    report = cube.append([])
    assert report.mode == "no-op"
    assert report.appended_rows == 0
    assert report.elapsed_seconds == 0.0
    assert cube.version == version  # no publish happened


def test_relation_empty_append_rows_is_noop():
    relation = Relation.from_rows([(0, 1)])
    assert relation.append_rows([]) == (1, 1)
    assert relation.num_tuples == 1
    # No measure validation either: the schema has none, and none are passed.
    priced = Relation.from_rows([(0,)], measures={"m": [1.0]})
    assert priced.append_rows([]) == (1, 1)


# --------------------------------------------------------------------------- #
# Versioned reads (CubeView)                                                   #
# --------------------------------------------------------------------------- #


def test_read_snapshot_pins_a_version_across_publishes():
    rows = [("a1", "b1"), ("a1", "b2"), ("a2", "b1")]
    cube = CubeSession.from_rows(rows, schema=["A", "B"]).build()
    view = cube.read_snapshot()
    assert view.version == 0
    cube.append([("a3", "b3")], copy_on_publish=True)
    assert cube.version == 1
    assert cube.point({"A": "a3"}).count == 1        # latest sees the append
    assert view.point({"A": "a3"}).count is None      # the pin does not
    assert view.point({"A": "a1"}).count == 2
    assert len(view) != 0
    fresh = cube.read_snapshot()
    assert fresh.version == 1
    assert fresh.point({"A": "a3"}).count == 1
    # Slices and roll-ups answer at the pinned version too.
    assert {a.coordinates_dict()["A"] for a in fresh.rollup(["A"])} == {
        "a1", "a2", "a3"
    }
    assert {a.coordinates_dict()["A"] for a in view.rollup(["A"])} == {"a1", "a2"}


# --------------------------------------------------------------------------- #
# The interleaving property                                                    #
# --------------------------------------------------------------------------- #


DIMS = ["A", "B", "C"]


def _random_row(rng: random.Random):
    return tuple(f"{dim.lower()}{rng.randrange(4)}" for dim in DIMS)


def _spec_key(spec) -> tuple:
    return tuple(sorted(spec.items()))


def _rollup_key(answers) -> tuple:
    return tuple(
        sorted((tuple(sorted(a.coordinates)), a.count) for a in answers)
    )


@pytest.mark.parametrize("seed", [3, 11])
def test_concurrent_appends_and_queries_prefix_consistent(seed):
    """Concurrent append / point / rollup workers; zero torn reads."""
    rng = random.Random(seed)
    base = [_random_row(rng) for _ in range(50)]
    batches = [[_random_row(rng) for _ in range(8)] for _ in range(5)]

    # The query workload: the apex, every single-dimension value, and a few
    # two-dimensional cells — materialised or not.
    point_specs = [{}]
    for dim in DIMS:
        point_specs.extend({dim: f"{dim.lower()}{i}"} for i in range(4))
    point_specs.extend(
        {"A": f"a{rng.randrange(4)}", "C": f"c{rng.randrange(4)}"}
        for _ in range(6)
    )
    rollup_dims = [["A"], ["B"], ["A", "C"]]

    # Ground truth per version: a from-scratch rebuild over each prefix.
    prefix = list(base)
    expected_points = []
    expected_rollups = []
    prefix_cubes = [CubeSession.from_rows(list(prefix), schema=DIMS).build()]
    for batch in batches:
        prefix.extend(batch)
        prefix_cubes.append(CubeSession.from_rows(list(prefix), schema=DIMS).build())
    for reference in prefix_cubes:
        expected_points.append(
            {_spec_key(s): reference.point(s).count for s in point_specs}
        )
        expected_rollups.append(
            {tuple(d): _rollup_key(reference.rollup(d)) for d in rollup_dims}
        )
    num_versions = len(prefix_cubes)

    serving = CubeSession.from_rows(base, schema=DIMS).build()
    errors = []
    done = threading.Event()

    def point_worker(worker_seed: int) -> None:
        worker_rng = random.Random(worker_seed)
        while not done.is_set():
            spec = worker_rng.choice(point_specs)
            key = _spec_key(spec)
            # Pinned read: must match its version exactly.
            view = serving.read_snapshot()
            count = view.point(spec).count
            if count != expected_points[view.version][key]:
                errors.append(
                    ("pinned-point", spec, view.version, count,
                     expected_points[view.version][key])
                )
            # Latest read: must match *some* version (no torn state).
            count = serving.point(spec).count
            if count not in {
                expected_points[v][key] for v in range(num_versions)
            }:
                errors.append(("torn-point", spec, count))

    def rollup_worker(worker_seed: int) -> None:
        worker_rng = random.Random(worker_seed)
        while not done.is_set():
            dims = worker_rng.choice(rollup_dims)
            observed = _rollup_key(serving.rollup(dims))
            if observed not in {
                expected_rollups[v][tuple(dims)] for v in range(num_versions)
            }:
                errors.append(("torn-rollup", dims, observed))

    workers = [
        threading.Thread(target=point_worker, args=(seed * 100 + i,))
        for i in range(3)
    ] + [threading.Thread(target=rollup_worker, args=(seed * 200,))]
    for worker in workers:
        worker.start()
    try:
        for batch in batches:
            report = serving.append(batch, copy_on_publish=True)
            assert report.appended_rows == len(batch)
            time.sleep(0.02)  # let queries interleave between publishes
        time.sleep(0.05)
    finally:
        done.set()
        for worker in workers:
            worker.join(timeout=10)

    assert not errors, f"{len(errors)} inconsistent answers, e.g. {errors[:5]}"
    assert serving.version == len(batches)
    # The final state equals a from-scratch rebuild (exactness under fire).
    assert serving.cube.same_cells(prefix_cubes[-1].cube)


# --------------------------------------------------------------------------- #
# Executor offload (thread and process pools)                                  #
# --------------------------------------------------------------------------- #


def _executor_workload(seed: int = 23):
    rng = random.Random(seed)
    base = [_random_row(rng) for _ in range(40)]
    batches = [[_random_row(rng) for _ in range(6)] for _ in range(3)]
    return base, batches


def _assert_appends_exact(serving, base, batches, reports):
    assert all(report.mode == "delta-merge" for report in reports)
    rebuilt = CubeSession.from_rows(
        base + [row for batch in batches for row in batch], schema=DIMS
    ).build()
    assert serving.cube.same_cells(rebuilt.cube)
    assert serving.version == len(batches)


def test_delta_merge_never_touches_the_executor():
    """Folding a window in process is cheaper than shipping it anywhere."""

    class ExplodingExecutor:
        def submit(self, *args, **kwargs):
            raise AssertionError("a delta merge has no work to offload")

    base, batches = _executor_workload(31)
    serving = CubeSession.from_rows(base, schema=DIMS).build()
    reports = [
        serving.append(batch, copy_on_publish=True, executor=ExplodingExecutor())
        for batch in batches
    ]
    _assert_appends_exact(serving, base, batches, reports)
    # Queries after the publishes see the merged state.
    last = batches[-1][-1]
    assert serving.point(dict(zip(DIMS, last))).found


def test_partitioned_refresh_through_the_spawn_pool():
    """The spawn pool: the refresh's cubing really leaves the process."""
    from repro.incremental.parallel import create_refresh_pool

    base, batches = _executor_workload(29)
    serving = CubeSession.from_rows(base, schema=DIMS).partitioned("A").build()
    pool = create_refresh_pool(1)
    try:
        report = serving.append(batches[0], executor=pool)
    finally:
        pool.shutdown()
    assert report.mode == "partition-refresh"
    rebuilt = (
        CubeSession.from_rows(base + batches[0], schema=DIMS).partitioned("A").build()
    )
    assert serving.cube.same_cells(rebuilt.cube)


def test_partitioned_refresh_uses_the_executor():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(37)
    base = [_random_row(rng) for _ in range(40)]
    batch = [_random_row(rng) for _ in range(8)]
    serving = (
        CubeSession.from_rows(base, schema=DIMS).partitioned("A").build()
    )
    with ThreadPoolExecutor(2) as pool:
        report = serving.append(batch, copy_on_publish=True, executor=pool)
    assert report.mode == "partition-refresh"
    assert serving.version == 1
    rebuilt = CubeSession.from_rows(base + batch, schema=DIMS).partitioned("A").build()
    assert serving.cube.same_cells(rebuilt.cube)


def test_concurrent_async_appends_apply_in_order():
    rng = random.Random(5)
    base = [_random_row(rng) for _ in range(30)]
    batches = [[_random_row(rng) for _ in range(5)] for _ in range(4)]
    serving = CubeSession.from_rows(base, schema=DIMS).build()
    futures = [serving.append_async(batch) for batch in batches]
    reports = [future.result(timeout=30) for future in futures]
    assert all(report.appended_rows == 5 for report in reports)
    assert serving.version == len(batches)
    rebuilt = CubeSession.from_rows(
        base + [row for batch in batches for row in batch], schema=DIMS
    ).build()
    assert serving.cube.same_cells(rebuilt.cube)
