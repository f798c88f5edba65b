"""Tests for the multi-cube catalog (:mod:`repro.catalog`).

The load-bearing property is durability of the registry round trip: create →
save → reopen in a fresh catalog → append must land exactly where the
original process stood, including the appends that only ever hit the journal
(the per-cube append stream) and never a snapshot.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import CubeCatalog, CubeSession, Sum
from repro.core.errors import CatalogError
from repro.storage.manifest import (
    CatalogManifest,
    appends_filename,
    snapshot_filename,
    validate_cube_name,
)

ROWS = [
    ("s1", "p1"),
    ("s1", "p2"),
    ("s2", "p1"),
    ("s2", "p2"),
    ("s1", "p1"),
]
SCHEMA = ["store", "product"]


@pytest.fixture
def catalog(tmp_path):
    return CubeCatalog(str(tmp_path / "cubes"))


# --------------------------------------------------------------------------- #
# Registry operations                                                          #
# --------------------------------------------------------------------------- #


def test_create_open_list_drop(catalog):
    cube = catalog.create("sales", ROWS, schema=SCHEMA)
    assert catalog.list() == ["sales"]
    assert "sales" in catalog and len(catalog) == 1
    assert catalog.open("sales") is cube  # the live instance, not a reload
    catalog.drop("sales")
    assert catalog.list() == [] and "sales" not in catalog
    with pytest.raises(CatalogError):
        catalog.open("sales")


def test_create_writes_snapshot_immediately(catalog, tmp_path):
    catalog.create("sales", ROWS, schema=SCHEMA)
    assert os.path.exists(os.path.join(catalog.directory, "sales.cube"))
    # A fresh catalog over the same directory can serve without any save().
    reopened = CubeCatalog(catalog.directory)
    assert reopened.open("sales").point({"store": "s1"}).count == 3


def test_create_duplicate_name_rejected(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    with pytest.raises(CatalogError, match="already exists"):
        catalog.create("sales", ROWS, schema=SCHEMA)


@pytest.mark.parametrize("name", ["", ".hidden", "-flag", "a/b", "a b", "a\n"])
def test_invalid_cube_names_rejected(catalog, name):
    with pytest.raises(CatalogError, match="invalid cube name"):
        catalog.create(name, ROWS, schema=SCHEMA)


def test_validate_cube_name_accepts_sensible_names():
    for name in ("sales", "sales_2026", "a.b-c", "X"):
        assert validate_cube_name(name) == name
    assert snapshot_filename("sales") == "sales.cube"
    assert appends_filename("sales") == "sales.appends.jsonl"


def test_create_from_session_carries_configuration(catalog):
    rows = [("s1", "p1", 10.0), ("s1", "p2", 20.0), ("s2", "p1", 30.0)]
    session = (
        CubeSession.from_rows(
            rows, schema={"dimensions": SCHEMA, "measures": ["price"]}
        )
        .closed(min_sup=1)
        .measures(Sum("price"))
    )
    cube = catalog.create("priced", session)
    assert cube.point({"store": "s1"}).measure("sum(price)") == 30.0
    # The configuration survives the snapshot round trip.
    reloaded = CubeCatalog(catalog.directory).open("priced")
    assert reloaded.point({"store": "s1"}).measure("sum(price)") == 30.0


def test_build_into_registers_in_catalog(catalog):
    session = CubeSession.from_rows(ROWS, schema=SCHEMA).closed()
    cube = session.build_into(catalog, "sales")
    assert catalog.open("sales") is cube


def test_create_rejects_schema_override_for_built_sources(catalog):
    cube = CubeSession.from_rows(ROWS, schema=SCHEMA).build()
    with pytest.raises(CatalogError, match="schema cannot be overridden"):
        catalog.create("sales", cube, schema=["x", "y"])


def test_describe_reports_metadata(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    info = catalog.describe("sales")
    assert info["rows"] == len(ROWS)
    assert info["dimensions"] == SCHEMA
    assert info["loaded"] is True
    assert info["pending_appends"] == 0


# --------------------------------------------------------------------------- #
# The durability round trip                                                    #
# --------------------------------------------------------------------------- #


def test_round_trip_create_save_reopen_append(catalog):
    """The ISSUE's acceptance loop: create → save → reopen → append."""
    catalog.create("sales", ROWS, schema=SCHEMA)
    catalog.append("sales", [("s3", "p1")])
    catalog.save("sales")

    reopened = CubeCatalog(catalog.directory)
    cube = reopened.open("sales")
    assert cube.point({"store": "s3"}).count == 1
    report = reopened.append("sales", [("s3", "p2"), ("s1", "p1")])
    assert report.appended_rows == 2
    assert cube.point({"store": "s3"}).count == 2
    assert cube.point({"store": "s1", "product": "p1"}).count == 3

    # Every answer matches a from-scratch rebuild over all the rows.
    all_rows = ROWS + [("s3", "p1"), ("s3", "p2"), ("s1", "p1")]
    rebuilt = CubeSession.from_rows(all_rows, schema=SCHEMA).build()
    assert cube.cube.same_cells(rebuilt.cube)


def test_unsaved_appends_replay_from_the_journal(catalog):
    """An append that never made it into a snapshot still survives reopen."""
    catalog.create("sales", ROWS, schema=SCHEMA)
    catalog.append("sales", [("s9", "p9")])
    # No save(): the snapshot on disk predates the append.
    reopened = CubeCatalog(catalog.directory)
    assert reopened.describe("sales")["pending_appends"] == 1
    assert reopened.open("sales").point({"store": "s9"}).count == 1


@pytest.mark.parametrize("with_measures", [False, True])
def test_replay_folds_the_whole_tail_in_one_append(catalog, monkeypatch, with_measures):
    """Reopening after a kill lands on the sequentially appended cube —
    counts, measures and ``min`` representative tids — with one merge."""
    from repro import Avg, Max, ServingCube

    def rows(seed, count):
        return [
            (f"s{(seed + i) % 4}", f"p{(seed * i) % 3}")
            + ((float((seed + 3 * i) % 11),) if with_measures else ())
            for i in range(count)
        ]

    session = CubeSession.from_rows(
        rows(1, 12),
        schema={"dimensions": SCHEMA, "measures": ["m"] if with_measures else []},
    ).closed(min_sup=1)
    if with_measures:
        session = session.measures(Sum("m"), Avg("m"), Max("m"))
    live = catalog.create("sales", session)
    for seed in (2, 3, 5):
        catalog.append("sales", rows(seed, 4))
    with pytest.raises(Exception, match="."):
        catalog.append("sales", [("only-one-column",)])  # rejected, un-journaled
    catalog.append("sales", rows(7, 2))
    # No save(), no compact(): the process "dies" with four journaled batches.

    appends = []
    real_append = ServingCube.append

    def counting_append(self, batch, **kwargs):
        appends.append(len(batch))
        return real_append(self, batch, **kwargs)

    monkeypatch.setattr(ServingCube, "append", counting_append)
    reopened = CubeCatalog(catalog.directory).open("sales")
    assert appends == [14]
    assert reopened.relation.num_tuples == live.relation.num_tuples == 26
    assert set(reopened.cube) == set(live.cube)
    for cell, stats in live.cube.items():
        replayed = reopened.cube[cell]
        assert (replayed.count, replayed.rep_tid) == (stats.count, stats.rep_tid)
        # Integral values: sums and extrema are exact, and so is ``avg`` up
        # to the ulp a merge's value * count reconstruction can cost.
        assert replayed.measures == pytest.approx(stats.measures, rel=1e-12)


def test_save_truncates_the_journal(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    catalog.append("sales", [("s9", "p9")])
    path = os.path.join(catalog.directory, "sales.appends.jsonl")
    assert os.path.getsize(path) > 0
    catalog.save("sales")
    assert os.path.getsize(path) == 0
    assert catalog.describe("sales")["pending_appends"] == 0


def test_torn_journal_tail_is_tolerated(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    catalog.append("sales", [("s9", "p9")])
    path = os.path.join(catalog.directory, "sales.appends.jsonl")
    with open(path, "a") as stream:
        stream.write('{"rows": [["s8",')  # a crash mid-write
    cube = CubeCatalog(catalog.directory).open("sales")
    assert cube.point({"store": "s9"}).count == 1  # intact batch replayed
    assert cube.point({"store": "s8"}).count is None  # torn batch dropped


def test_corrupt_journal_middle_line_raises(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    path = os.path.join(catalog.directory, "sales.appends.jsonl")
    with open(path, "w") as stream:
        stream.write("not json\n")
        stream.write(json.dumps({"rows": [["s9", "p9"]]}) + "\n")
    with pytest.raises(CatalogError, match="corrupt append stream"):
        CubeCatalog(catalog.directory).open("sales")


def test_failed_append_rolls_the_journal_back(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    with pytest.raises(Exception, match="."):  # the exact failure type varies
        catalog.append("sales", [("only-one-column",)])
    assert catalog.describe("sales")["pending_appends"] == 0
    # The journal stays replayable.
    assert CubeCatalog(catalog.directory).open("sales").point(
        {"store": "s1"}
    ).count == 3


def test_journal_rollback_preserves_later_records(catalog):
    """Undoing a failed append must not erase records journaled after it."""
    catalog.create("sales", ROWS, schema=SCHEMA)
    path = os.path.join(catalog.directory, "sales.appends.jsonl")
    mine = json.dumps({"rows": [["bad", "row"]]}) + "\n"
    theirs = json.dumps({"rows": [["s7", "p7"]]}) + "\n"
    with open(path, "w") as stream:
        stream.write(mine)
        stream.write(theirs)  # another thread landed after our journal write
    catalog._remove_journal_record(path, 0, mine)
    with open(path) as stream:
        assert stream.read() == theirs
    # Fast path: our record is still the tail -> plain truncate.
    with open(path, "a") as stream:
        offset = stream.tell()
        stream.write(mine)
    catalog._remove_journal_record(path, offset, mine)
    with open(path) as stream:
        assert stream.read() == theirs


def test_journal_rollback_slow_path_survives_a_crash(catalog, monkeypatch):
    """A crash mid-rewrite must leave the journal byte-for-byte intact.

    The slow path rewrites the whole stream to drop one record; the loader
    tolerates a torn *tail* line but not a torn middle, so the rewrite goes
    through the atomic temp+rename funnel.  Simulate the crash at the worst
    instant — after the temp file is written, before the rename — and check
    that every record other writers own is still there.
    """
    from repro.storage import atomic

    catalog.create("sales", ROWS, schema=SCHEMA)
    path = os.path.join(catalog.directory, "sales.appends.jsonl")
    mine = json.dumps({"rows": [["bad", "row"]]}) + "\n"
    theirs = json.dumps({"rows": [["s7", "p7"]]}) + "\n"
    with open(path, "w") as stream:
        stream.write(mine)
        stream.write(theirs)  # forces the slow (rewrite) path

    def crash(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(atomic.os, "replace", crash)
    with pytest.raises(OSError):
        catalog._remove_journal_record(path, 0, mine)
    monkeypatch.undo()
    with open(path) as stream:
        assert stream.read() == mine + theirs
    # And with the funnel healthy again, the retraction still lands.
    catalog._remove_journal_record(path, 0, mine)
    with open(path) as stream:
        assert stream.read() == theirs


def test_concurrent_good_and_bad_appends_keep_the_journal_exact(catalog):
    """Failed appends roll back without losing concurrent good batches."""
    import threading

    catalog.create("sales", ROWS, schema=SCHEMA)
    good_rows = [[(f"s{worker}", f"p{batch}")] for worker in range(3)
                 for batch in range(5)]
    failures = []

    def good_worker(batches):
        for batch in batches:
            catalog.append("sales", batch)

    def bad_worker():
        for _ in range(10):
            try:
                catalog.append("sales", [("only-one-column",)])
            except Exception:
                failures.append(1)

    threads = [
        threading.Thread(target=good_worker, args=(good_rows[i::3],))
        for i in range(3)
    ] + [threading.Thread(target=bad_worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(failures) == 20
    # Every good batch survived in the journal and replays on reopen.
    reopened = CubeCatalog(catalog.directory)
    assert reopened.describe("sales")["pending_appends"] == len(good_rows)
    cube = reopened.open("sales")
    all_rows = ROWS + [tuple(row) for batch in good_rows for row in batch]
    rebuilt = CubeSession.from_rows(all_rows, schema=SCHEMA).build()
    assert cube.cube.same_cells(rebuilt.cube)


def test_get_loaded_never_loads(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    reopened = CubeCatalog(catalog.directory)
    assert reopened.get_loaded("sales") is None  # on disk, not in memory
    cube = reopened.open("sales")
    assert reopened.get_loaded("sales") is cube
    assert reopened.get_loaded("ghost") is None


def test_non_json_rows_rejected_with_guidance(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    with pytest.raises(CatalogError, match="JSON-serialisable"):
        catalog.append("sales", [(object(), "p1")])


def test_load_discards_the_in_memory_instance(catalog):
    cube = catalog.create("sales", ROWS, schema=SCHEMA)
    fresh = catalog.load("sales")
    assert fresh is not cube
    assert catalog.open("sales") is fresh


def test_mapping_rows_round_trip_through_the_journal(catalog):
    rows = [{"store": "s1", "product": "p1"}, {"store": "s2", "product": "p2"}]
    catalog.create("sales", rows, schema=SCHEMA)
    catalog.append("sales", [{"store": "s3", "product": "p3"}])
    reopened = CubeCatalog(catalog.directory).open("sales")
    assert reopened.point({"store": "s3"}).count == 1


def test_empty_append_is_a_noop_and_not_journaled(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    report = catalog.append("sales", [])
    assert report.mode == "no-op" and report.appended_rows == 0
    assert catalog.describe("sales")["pending_appends"] == 0


# --------------------------------------------------------------------------- #
# Compaction                                                                   #
# --------------------------------------------------------------------------- #


def _append_batches(catalog, name, count, prefix="n"):
    rows = []
    for index in range(count):
        batch = [(f"{prefix}{index}", f"p{index % 3}")]
        catalog.append(name, batch)
        rows.extend(batch)
    return rows


def test_compact_incremental_reopens_identically(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    extra = _append_batches(catalog, "sales", 6)
    assert catalog.describe("sales")["pending_appends"] == 6

    report = catalog.compact("sales")
    assert report["mode"] == "incremental"
    assert report["folded_journal_bytes"] > 0
    info = catalog.describe("sales")
    assert info["segments"] == [report["segment"]]
    assert info["pending_appends"] == 0
    # The folded journal bytes are reclaimed, not just skipped.
    assert info["journal_bytes"] == 0 and info["journal_offset"] == 0
    assert info["rows"] == len(ROWS) + len(extra)

    # Appends after the fold land in the journal tail and replay on top.
    tail = _append_batches(catalog, "sales", 2, prefix="t")
    assert catalog.describe("sales")["pending_appends"] == 2

    reopened = CubeCatalog(catalog.directory).open("sales")
    rebuilt = CubeSession.from_rows(ROWS + extra + tail, schema=SCHEMA).build()
    assert reopened.cube.same_cells(rebuilt.cube), reopened.cube.diff(rebuilt.cube)


def test_compact_full_flips_the_generation(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    extra = _append_batches(catalog, "sales", 4)
    catalog.compact("sales")  # stack one segment first
    more = _append_batches(catalog, "sales", 3, prefix="m")
    old_files = [catalog.describe("sales")["snapshot"],
                 *catalog.describe("sales")["segments"]]

    report = catalog.compact("sales", mode="full")
    assert report["mode"] == "full"
    info = catalog.describe("sales")
    assert info["generation"] == 1
    assert info["snapshot"] == "sales.g1.cube"
    assert info["segments"] == [] and info["journal_offset"] == 0
    assert info["journal_bytes"] == 0 and info["format"] == "v2"
    for stale in old_files:
        assert not os.path.exists(os.path.join(catalog.directory, stale))

    reopened = CubeCatalog(catalog.directory).open("sales")
    rebuilt = CubeSession.from_rows(ROWS + extra + more, schema=SCHEMA).build()
    assert reopened.cube.same_cells(rebuilt.cube)


def test_compact_noop_when_nothing_pending(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    assert catalog.compact("sales")["mode"] == "none"
    assert catalog.compaction_stats() == {"incremental": 0, "full": 0}


def test_compact_incremental_refused_for_iceberg_cubes(catalog):
    session = CubeSession.from_rows(ROWS + ROWS, schema=SCHEMA).closed(min_sup=2)
    catalog.create("berg", session)
    catalog.append("berg", [("s1", "p1")])
    with pytest.raises(CatalogError, match="cannot compact incrementally"):
        catalog.compact("berg", mode="incremental")
    # mode="auto" falls back to a full rewrite instead.
    report = catalog.compact("berg")
    assert report["mode"] == "full"
    reopened = CubeCatalog(catalog.directory).open("berg")
    rebuilt = (
        CubeSession.from_rows(ROWS + ROWS + [("s1", "p1")], schema=SCHEMA)
        .closed(min_sup=2)
        .build()
    )
    assert reopened.cube.same_cells(rebuilt.cube)


def test_auto_compaction_escalates_to_full_past_the_segment_bound(tmp_path):
    """mode='auto' must not stack segments forever: past the bound it
    rewrites the base, resetting the chain."""
    catalog = CubeCatalog(str(tmp_path / "cubes"), auto_compact_ratio=None,
                          auto_compact_max_segments=2)
    catalog.create("sales", ROWS, schema=SCHEMA)
    rows = list(ROWS)
    for round_index in range(3):
        rows += _append_batches(catalog, "sales", 2, prefix=f"r{round_index}")
        report = catalog.compact("sales")
        expected = "incremental" if round_index < 2 else "full"
        assert report["mode"] == expected, (round_index, report)
    info = catalog.describe("sales")
    assert info["segments"] == [] and info["generation"] == 1
    reopened = CubeCatalog(catalog.directory).open("sales")
    rebuilt = CubeSession.from_rows(rows, schema=SCHEMA).build()
    assert reopened.cube.same_cells(rebuilt.cube)


def test_compact_unknown_mode_rejected(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    with pytest.raises(CatalogError, match="unknown compaction mode"):
        catalog.compact("sales", mode="sideways")


def test_auto_compaction_triggers_on_journal_growth(tmp_path):
    catalog = CubeCatalog(
        str(tmp_path / "cubes"),
        auto_compact_ratio=0.0001,
        auto_compact_min_bytes=1,
    )
    catalog.create("sales", ROWS, schema=SCHEMA)
    rows = _append_batches(catalog, "sales", 3)
    stats = catalog.compaction_stats()
    assert stats["incremental"] >= 1
    assert catalog.describe("sales")["pending_appends"] == 0
    reopened = CubeCatalog(catalog.directory).open("sales")
    rebuilt = CubeSession.from_rows(ROWS + rows, schema=SCHEMA).build()
    assert reopened.cube.same_cells(rebuilt.cube)


def test_auto_compaction_disabled_by_default_thresholds(catalog):
    """Tiny journals stay below auto_compact_min_bytes — no churn."""
    catalog.create("sales", ROWS, schema=SCHEMA)
    _append_batches(catalog, "sales", 3)
    assert catalog.compaction_stats() == {"incremental": 0, "full": 0}
    assert catalog.describe("sales")["pending_appends"] == 3


def test_failed_compaction_rolls_the_manifest_back(catalog, monkeypatch):
    catalog.create("sales", ROWS, schema=SCHEMA)
    _append_batches(catalog, "sales", 2)
    before = catalog.describe("sales")

    from repro.storage.manifest import CatalogManifest

    def boom(self, directory):
        raise OSError("disk full")

    monkeypatch.setattr(CatalogManifest, "save", boom)
    with pytest.raises(OSError):
        catalog.compact("sales")
    monkeypatch.undo()

    after = catalog.describe("sales")
    assert after["segments"] == before["segments"] == []
    assert after["journal_offset"] == before["journal_offset"] == 0
    assert after["pending_appends"] == 2
    # The orphaned segment file was removed and the chain still replays.
    assert not any(".seg" in name for name in os.listdir(catalog.directory))
    reopened = CubeCatalog(catalog.directory).open("sales")
    assert reopened.relation.num_tuples == len(ROWS) + 2


def test_describe_reports_chain_metadata(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    info = catalog.describe("sales")
    assert info["format"] == "v2"
    assert info["generation"] == 0
    assert info["segments"] == []
    assert info["journal_offset"] == 0
    assert info["durable_bytes"] > 0
    assert info["journal_bytes"] == 0


# --------------------------------------------------------------------------- #
# Manifest format                                                              #
# --------------------------------------------------------------------------- #


def test_manifest_is_inspectable_json(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    with open(os.path.join(catalog.directory, "catalog.json")) as handle:
        manifest = json.load(handle)
    assert manifest["version"] == 1
    assert "sales" in manifest["cubes"]
    assert manifest["cubes"]["sales"]["snapshot"] == "sales.cube"


def test_legacy_manifest_entries_still_load(catalog):
    """Manifests written before the v2/compaction fields existed default to
    the legacy meaning (format v1, no segments, whole journal pending)."""
    catalog.create("sales", ROWS, schema=SCHEMA)
    catalog.append("sales", [("s9", "p9")])
    path = os.path.join(catalog.directory, "catalog.json")
    with open(path) as handle:
        manifest = json.load(handle)
    for key in ("format", "generation", "segments", "journal_offset"):
        manifest["cubes"]["sales"].pop(key, None)
    with open(path, "w") as handle:
        json.dump(manifest, handle)
    reopened = CubeCatalog(catalog.directory)
    info = reopened.describe("sales")
    assert info["format"] == "v1" and info["segments"] == []
    assert info["pending_appends"] == 1  # offset defaults to 0: full replay
    assert reopened.open("sales").point({"store": "s9"}).count == 1


def test_manifest_rejects_unknown_versions(tmp_path):
    directory = str(tmp_path)
    with open(os.path.join(directory, "catalog.json"), "w") as handle:
        json.dump({"version": 99, "cubes": {}}, handle)
    with pytest.raises(CatalogError, match="version 99"):
        CatalogManifest.load(directory)


def test_manifest_rejects_non_manifest_files(tmp_path):
    directory = str(tmp_path)
    with open(os.path.join(directory, "catalog.json"), "w") as handle:
        handle.write('{"some": "json"}')
    with pytest.raises(CatalogError, match="not a catalog manifest"):
        CatalogManifest.load(directory)


def test_drop_deletes_the_cube_files(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    snapshot = os.path.join(catalog.directory, "sales.cube")
    appends = os.path.join(catalog.directory, "sales.appends.jsonl")
    assert os.path.exists(snapshot) and os.path.exists(appends)
    catalog.drop("sales")
    assert not os.path.exists(snapshot) and not os.path.exists(appends)


def test_two_cubes_are_independent(catalog):
    catalog.create("sales", ROWS, schema=SCHEMA)
    catalog.create("web", [("u1", "/a"), ("u2", "/b")], schema=["user", "path"])
    catalog.append("sales", [("s9", "p9")])
    assert catalog.open("web").point({"user": "u1"}).count == 1
    assert catalog.open("sales").point({"store": "s9"}).count == 1
    catalog.drop("web")
    assert catalog.list() == ["sales"]
