"""Tests for snapshot persistence (:mod:`repro.storage.snapshot`).

The acceptance property: a ``save`` → ``load`` round trip preserves every
query answer — exhaustively over the lattice, in both the v1 monolithic and
the v2 streaming format — and the loaded cube keeps its maintenance
abilities (appending, re-snapshotting).  Failure modes must be crisp
:class:`SnapshotError`\\ s, not pickle stack traces: a truncated chunk, a
checksum mismatch, and an unknown version byte each name their problem.
"""

from __future__ import annotations

import struct

import pytest

from repro import CubeSession, ServingCube, Sum
from repro.core.errors import SnapshotError
from repro.storage.snapshot import (
    FRAME_CELLS,
    SNAPSHOT_MAGIC,
    SNAPSHOT_V1,
    SNAPSHOT_V2,
    save_snapshot,
    snapshot_version,
)

from test_incremental import split_rows
from test_query_engine import lattice_cells

FORMATS = ["v1", "v2"]

_HEADER_SIZE = struct.calcsize(">8sI")
_FRAME = struct.Struct(">BII")


def frame_spans(data: bytes):
    """(kind, payload_start, payload_length) for every v2 frame in ``data``."""
    spans = []
    offset = _HEADER_SIZE
    while offset < len(data):
        kind, length, _crc = _FRAME.unpack_from(data, offset)
        spans.append((kind, offset + _FRAME.size, length))
        offset += _FRAME.size + length
    return spans


@pytest.mark.parametrize("format", FORMATS)
@pytest.mark.parametrize("seed", range(6))
def test_round_trip_preserves_all_query_answers(seed, format, tmp_path):
    base_rows, _ = split_rows(seed + 40)
    cube = CubeSession.from_rows(base_rows).closed(min_sup=1).build()
    path = str(tmp_path / "cube.snap")
    size = cube.save(path, format=format)
    assert size > 0

    loaded = ServingCube.load(path)
    assert loaded.schema.dimensions == cube.schema.dimensions
    assert loaded.algorithm == cube.algorithm
    assert loaded.config == cube.config
    for cell in lattice_cells(cube.relation):
        assert loaded.engine.point(cell).count == cube.engine.point(cell).count


@pytest.mark.parametrize("format", FORMATS)
def test_round_trip_preserves_measures_and_named_answers(format, tmp_path):
    rows = [("a", "x", 2.0), ("a", "y", 4.0), ("b", "x", 8.0)]
    schema = {"dimensions": ["L", "R"], "measures": ["m"]}
    cube = (
        CubeSession.from_rows(rows, schema=schema)
        .closed(min_sup=1)
        .measures(Sum("m"))
        .build()
    )
    path = str(tmp_path / "cube.snap")
    cube.save(path, format=format)
    loaded = ServingCube.load(path)
    answer = loaded.point({"L": "a"})
    assert answer.count == 2
    assert answer.measure("sum(m)") == pytest.approx(6.0)
    assert loaded.point({"L": "never-seen"}).count is None


def test_format_versions_land_in_the_header(tmp_path):
    cube = CubeSession.from_rows([("a",), ("b",)]).closed().build()
    v1 = str(tmp_path / "cube.v1")
    v2 = str(tmp_path / "cube.v2")
    cube.save(v1, format="v1")
    cube.save(v2)  # v2 is the default
    assert snapshot_version(v1) == SNAPSHOT_V1
    assert snapshot_version(v2) == SNAPSHOT_V2
    with pytest.raises(SnapshotError, match="unknown snapshot format"):
        cube.save(str(tmp_path / "cube.v3"), format="v3")


def test_v1_v2_v1_round_trip_equality(tmp_path):
    """Converting v1 → v2 → v1 must preserve cells, measures, and min_sup,
    checked over the exhaustive lattice of a small cube."""
    rows = [("a", "x", 1.0), ("a", "y", 2.0), ("b", "x", 4.0),
            ("b", "x", 8.0), ("c", "z", 16.0)]
    schema = {"dimensions": ["L", "R"], "measures": ["m"]}
    original = (
        CubeSession.from_rows(rows, schema=schema)
        .closed(min_sup=1)
        .measures(Sum("m"))
        .build()
    )
    paths = [str(tmp_path / name) for name in ("a.v1", "b.v2", "c.v1")]
    original.save(paths[0], format="v1")
    middle = ServingCube.load(paths[0])
    middle.save(paths[1], format="v2")
    back = ServingCube.load(paths[1])
    back.save(paths[2], format="v1")
    final = ServingCube.load(paths[2])
    assert snapshot_version(paths[0]) == snapshot_version(paths[2]) == SNAPSHOT_V1
    assert snapshot_version(paths[1]) == SNAPSHOT_V2
    for cube in (middle, back, final):
        assert cube.config.min_sup == original.config.min_sup
        assert cube.config.closed == original.config.closed
        # Measure specs pickle as equivalent-but-distinct objects; compare
        # their identity by name.
        assert [spec.name for spec in cube.config.measures] == [
            spec.name for spec in original.config.measures
        ]
        assert cube.cube.same_cells(original.cube)
        for cell, stats in original.cube.items():
            assert cube.cube[cell].measures == pytest.approx(stats.measures)
    for cell in lattice_cells(original.relation):
        assert final.engine.point(cell).count == original.engine.point(cell).count


def test_loaded_cube_keeps_appending_incrementally(tmp_path):
    base_rows, delta_rows = split_rows(99)
    cube = CubeSession.from_rows(base_rows).closed(min_sup=1).build()
    path = str(tmp_path / "cube.snap")
    cube.save(path)

    loaded = ServingCube.load(path)
    report = loaded.append(delta_rows)
    assert report.mode == "delta-merge"
    rebuilt = CubeSession.from_rows(base_rows + delta_rows).closed(min_sup=1).build()
    for cell in lattice_cells(loaded.relation):
        assert loaded.engine.point(cell).count == rebuilt.engine.point(cell).count
    # ... and re-snapshots.
    second = str(tmp_path / "cube2.snap")
    loaded.save(second)
    assert ServingCube.load(second).relation.num_tuples == loaded.relation.num_tuples


def test_partitioned_round_trip(tmp_path):
    rows = [("s1", "a"), ("s1", "b"), ("s2", "a"), ("s2", "a"), ("s3", "b")]
    cube = (
        CubeSession.from_rows(rows, schema=["store", "product"])
        .closed()
        .partitioned("store")
        .build()
    )
    path = str(tmp_path / "part.snap")
    cube.save(path)
    loaded = ServingCube.load(path)
    assert loaded.config.partitioned
    assert loaded.engine.partition_dim == cube.engine.partition_dim
    for cell in lattice_cells(cube.relation):
        assert loaded.engine.point(cell).count == cube.engine.point(cell).count
    assert loaded.append([("s1", "c")]).mode == "partition-refresh"
    assert loaded.point({"store": "s1"}).count == 3


@pytest.mark.parametrize("format", FORMATS)
def test_save_overwrites_atomically(format, tmp_path):
    cube = CubeSession.from_rows([("a",), ("b",)]).closed().build()
    path = str(tmp_path / "cube.snap")
    cube.save(path, format=format)
    cube.append([("c",)])
    cube.save(path, format=format)
    assert ServingCube.load(path).relation.num_tuples == 3
    assert list(tmp_path.iterdir()) == [tmp_path / "cube.snap"], (
        "no temporary files may be left behind"
    )


def test_not_a_snapshot_raises(tmp_path):
    path = tmp_path / "noise.bin"
    path.write_bytes(b"definitely not a snapshot")
    with pytest.raises(SnapshotError, match="magic"):
        ServingCube.load(str(path))


def test_truncated_snapshot_raises(tmp_path):
    path = tmp_path / "short.snap"
    path.write_bytes(SNAPSHOT_MAGIC[:4])
    with pytest.raises(SnapshotError, match="too short"):
        ServingCube.load(str(path))


def test_unknown_version_byte_raises(tmp_path):
    cube = CubeSession.from_rows([("a",)]).closed().build()
    path = tmp_path / "future.snap"
    save_snapshot(cube, str(path))
    data = bytearray(path.read_bytes())
    data[8:12] = (99).to_bytes(4, "big")
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="version 99"):
        ServingCube.load(str(path))


def test_v1_corrupt_payload_raises(tmp_path):
    cube = CubeSession.from_rows([("a",)]).closed().build()
    path = tmp_path / "cube.snap"
    save_snapshot(cube, str(path), format="v1")
    data = path.read_bytes()
    path.write_bytes(data[:16])  # header intact, payload chopped
    with pytest.raises(SnapshotError, match="corrupt payload"):
        ServingCube.load(str(path))


def test_v2_truncated_chunk_raises(tmp_path):
    """A file that stops mid-chunk — the torn-write crash artefact — must
    name the truncation, not raise a pickle stack trace."""
    cube = CubeSession.from_rows([("a", "x"), ("b", "y")]).closed().build()
    path = tmp_path / "cube.snap"
    save_snapshot(cube, str(path))
    data = path.read_bytes()
    kind, start, length = next(
        span for span in frame_spans(data) if span[0] == FRAME_CELLS
    )
    path.write_bytes(data[: start + max(1, length // 2)])
    with pytest.raises(SnapshotError, match="truncated"):
        ServingCube.load(str(path))


def test_v2_torn_frame_header_raises(tmp_path):
    cube = CubeSession.from_rows([("a",)]).closed().build()
    path = tmp_path / "cube.snap"
    save_snapshot(cube, str(path))
    data = path.read_bytes()
    path.write_bytes(data[: _HEADER_SIZE + 4])  # half a frame header
    with pytest.raises(SnapshotError, match="truncated mid-frame-header"):
        ServingCube.load(str(path))


def test_v2_missing_end_frame_raises(tmp_path):
    cube = CubeSession.from_rows([("a",)]).closed().build()
    path = tmp_path / "cube.snap"
    save_snapshot(cube, str(path))
    data = path.read_bytes()
    kind, start, length = frame_spans(data)[-1]
    header_start = start - _FRAME.size
    path.write_bytes(data[:header_start])  # every frame intact, END dropped
    with pytest.raises(SnapshotError, match="END frame"):
        ServingCube.load(str(path))


def test_v2_checksum_mismatch_raises(tmp_path):
    cube = CubeSession.from_rows([("a", "x"), ("b", "y")]).closed().build()
    path = tmp_path / "cube.snap"
    save_snapshot(cube, str(path))
    data = bytearray(path.read_bytes())
    kind, start, length = next(
        span for span in frame_spans(bytes(data)) if span[0] == FRAME_CELLS
    )
    data[start + length // 2] ^= 0xFF  # flip one payload byte
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="checksum"):
        ServingCube.load(str(path))


# --------------------------------------------------------------------------- #
# Delta segments (v2 incremental mode)                                          #
# --------------------------------------------------------------------------- #


def test_delta_segments_fold_to_the_live_state(tmp_path):
    """base + segments must equal the cube that kept appending in memory."""
    base_rows, delta_rows = split_rows(7)
    cube = CubeSession.from_rows(base_rows).closed(min_sup=1).build()
    base = str(tmp_path / "base.snap")
    cube.save(base)
    segments = []
    for index in range(2):
        start = cube.relation.num_tuples
        half = delta_rows[index::2]
        cube.append(half)
        segment = str(tmp_path / f"seg{index}")
        assert cube.save_delta(segment, start) > 0
        segments.append(segment)

    loaded = ServingCube.load(base, segments=segments)
    assert loaded.cube.same_cells(cube.cube), loaded.cube.diff(cube.cube)
    for cell in lattice_cells(cube.relation):
        assert loaded.engine.point(cell).count == cube.engine.point(cell).count
    # The folded cube keeps maintaining and re-snapshotting itself.
    loaded.append(base_rows[:1])
    cube.append(base_rows[:1])
    assert loaded.cube.same_cells(cube.cube)
    resaved = str(tmp_path / "resaved.snap")
    loaded.save(resaved)
    assert ServingCube.load(resaved).cube.same_cells(cube.cube)


def test_delta_segments_carry_rows_only(tmp_path):
    cube = CubeSession.from_rows([("a", "x"), ("b", "y")]).closed().build()
    start = cube.relation.num_tuples
    cube.append([("c", "z"), ("a", "y")])
    segment = str(tmp_path / "seg")
    cube.save_delta(segment, start)
    with open(segment, "rb") as stream:
        kinds = [kind for kind, _start, _length in frame_spans(stream.read())]
    assert FRAME_CELLS not in kinds


def test_segment_written_with_a_delta_cube_still_loads(tmp_path):
    """Earlier builds wrote the closed delta cube beside the rows."""
    import pickle

    from repro import compute_closed_cube
    from repro.storage import snapshot as snapshot_module

    base_rows, delta_rows = split_rows(7)
    cube = CubeSession.from_rows(base_rows).closed(min_sup=1).build()
    base = str(tmp_path / "base.snap")
    cube.save(base)
    start = cube.relation.num_tuples
    cube.append(delta_rows)
    relation = cube.relation
    window = relation.select(range(start, relation.num_tuples))
    delta_cube = compute_closed_cube(window, min_sup=1)

    def write_legacy(stream):
        write_frame = snapshot_module._write_frame
        stream.write(struct.pack(">8sI", SNAPSHOT_MAGIC, SNAPSHOT_V2))
        write_frame(stream, snapshot_module.FRAME_META, {
            "kind": "delta", "start": start, "rows": window.num_tuples,
            "dimensions": relation.num_dimensions,
            "decoders": [dict(decoder) for decoder in relation.decoders],
            "algorithm": "qc-dfs", "num_cells": len(delta_cube),
        })
        for index, column in enumerate(window.columns):
            snapshot_module._write_column_frames(stream, "dim", index, column)
        for _chunk in snapshot_module._write_cell_frames(stream, delta_cube):
            pass
        write_frame(stream, snapshot_module.FRAME_END, {
            "cells": len(delta_cube), "postings": 0, "best_slot": None,
        })

    segment = str(tmp_path / "legacy.seg")
    with open(segment, "wb") as stream:
        write_legacy(stream)
    loaded = ServingCube.load(base, segments=[segment])
    assert loaded.cube.same_cells(cube.cube), loaded.cube.diff(cube.cube)
    assert {c: s.rep_tid for c, s in loaded.cube.items()} == {
        c: s.rep_tid for c, s in cube.cube.items()
    }
    # Its cell frames are still checked against the END frame's count.
    with open(segment, "rb") as stream:
        data = bytearray(stream.read())
    kind, payload_start, length = frame_spans(bytes(data))[-1]
    end = pickle.loads(bytes(data[payload_start:payload_start + length]))
    assert kind == snapshot_module.FRAME_END and end["cells"] == len(delta_cube)
    torn = str(tmp_path / "torn.seg")
    with open(torn, "wb") as stream:
        cells_at = next(
            at - _FRAME.size for k, at, _ in frame_spans(bytes(data)) if k == FRAME_CELLS
        )
        stream.write(data[:cells_at])
        snapshot_module._write_frame(stream, snapshot_module.FRAME_END, end)
    with pytest.raises(SnapshotError, match="incomplete"):
        ServingCube.load(base, segments=[torn])


def test_delta_segments_must_stack_in_order(tmp_path):
    cube = CubeSession.from_rows([("a", "x"), ("b", "y")]).closed().build()
    base = str(tmp_path / "base.snap")
    cube.save(base)
    start = cube.relation.num_tuples
    cube.append([("c", "z")])
    first = str(tmp_path / "seg1")
    cube.save_delta(first, start)
    start = cube.relation.num_tuples
    cube.append([("d", "w")])
    second = str(tmp_path / "seg2")
    cube.save_delta(second, start)
    with pytest.raises(SnapshotError, match="write order"):
        ServingCube.load(base, segments=[second, first])
    with pytest.raises(SnapshotError, match="not a delta segment|segment"):
        ServingCube.load(base, segments=[base])  # a base is not a segment


def test_delta_segment_refused_for_iceberg_cubes(tmp_path):
    rows = [("a", "x"), ("a", "x"), ("b", "y"), ("b", "y")]
    cube = CubeSession.from_rows(rows).closed(min_sup=2).build()
    cube.append(rows)
    with pytest.raises(SnapshotError, match="full closed cubes"):
        cube.save_delta(str(tmp_path / "seg"), 4)


def test_delta_segment_with_no_new_rows_refused(tmp_path):
    cube = CubeSession.from_rows([("a", "x")]).closed().build()
    with pytest.raises(SnapshotError, match="nothing to fold"):
        cube.save_delta(str(tmp_path / "seg"), cube.relation.num_tuples)


def test_save_refuses_guessed_config(tmp_path):
    """Snapshotting a config-less cube would launder guessed build settings
    into an explicit config on load, re-enabling maintenance the original
    cube refuses — it must raise instead."""
    from repro import compute_closed_cube
    from repro.core.relation import Relation
    from repro.query.engine import QueryEngine
    from repro.session.schema import CubeSchema

    relation = Relation.from_rows([("a",), ("b",)])
    iceberg = compute_closed_cube(relation, min_sup=2)
    serving = ServingCube(
        relation, CubeSchema(("d0",)), iceberg, QueryEngine(iceberg), "c-cubing-star"
    )
    path = str(tmp_path / "guessed.snap")
    with pytest.raises(SnapshotError, match="ServingConfig"):
        serving.save(path)
    assert list(tmp_path.iterdir()) == [], "the refused save must write nothing"


# --------------------------------------------------------------------------- #
# Corruption fuzzing: no byte flip or truncation may load silently             #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(20))
def test_fuzzed_corruption_always_raises_snapshot_error(seed, tmp_path):
    """Random byte flips and truncations across the whole v2 file: every
    single one must surface as SnapshotError — never a silently-wrong cube,
    never a raw struct/zlib/Unicode error leaking out of the loader.

    The per-frame CRC32 catches payload damage; the header checks catch
    magic/version damage; everything structural that slips past a CRC
    (e.g. a flipped frame-kind byte re-framing the stream) is wrapped by
    the loader's consistency net.  This test is the contract that the net
    has no holes.
    """
    import random as random_module

    rows = [("a", "x", 2.0), ("a", "y", 4.0), ("b", "x", 8.0), ("b", "y", 1.0)]
    schema = {"dimensions": ["L", "R"], "measures": ["m"]}
    cube = (
        CubeSession.from_rows(rows, schema=schema)
        .closed(min_sup=1)
        .measures(Sum("m"))
        .build()
    )
    pristine_path = str(tmp_path / "cube.snap")
    cube.save(pristine_path, format="v2")
    with open(pristine_path, "rb") as handle:
        pristine = handle.read()

    rng = random_module.Random(seed)
    target = str(tmp_path / "corrupt.snap")
    for case in range(25):
        data = bytearray(pristine)
        if case % 5 == 4:
            # Truncate anywhere, including mid-header and mid-frame.
            data = data[: rng.randrange(len(data))]
        else:
            # Flip 1-4 random bytes (XOR with a random non-zero mask).
            for _ in range(rng.randint(1, 4)):
                position = rng.randrange(len(data))
                data[position] ^= rng.randint(1, 255)
        with open(target, "wb") as handle:
            handle.write(bytes(data))
        try:
            loaded = ServingCube.load(target)
        except SnapshotError:
            continue
        except Exception as exc:  # pragma: no cover - the failure mode
            pytest.fail(
                f"seed {seed} case {case}: non-SnapshotError leaked: "
                f"{type(exc).__name__}: {exc}"
            )
        # A successful load of corrupted bytes is only acceptable when the
        # damage landed in dead space and the cube is bit-identical in
        # behaviour; CRC32 over every frame makes that impossible for any
        # byte the loader actually reads, so reaching here is a bug.
        pytest.fail(  # pragma: no cover - the failure mode
            f"seed {seed} case {case}: corrupted snapshot loaded "
            f"({len(loaded)} cells)"
        )
