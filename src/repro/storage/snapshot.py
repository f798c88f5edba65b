"""Versioned cube snapshots: a serving cube that survives process restarts.

A snapshot persists everything a :class:`~repro.session.serving.ServingCube`
needs to answer queries again without recomputing: the named schema, the
relation's encoded columns *and value dictionaries* (so future appends keep
growing the same append-only encoding), the materialised closed cells with
their counts / payload-measure values / representative tuple ids (the state
incremental merge reconstructs closedness from), and the serving
configuration (algorithm, iceberg threshold, measure specs, cache size,
partitioning).

Two on-disk formats share one 12-byte header (magic + version)::

    8 bytes   magic  b"RPROCUBE"
    4 bytes   format version, big-endian unsigned

**v1** (the original format) follows the header with one monolithic pickle of
a snapshot dictionary.  It remains fully readable and writable
(``save_snapshot(..., format="v1")``), but its load time and peak memory
scale with the whole cube twice over: the unpickled payload dictionary and
the constructed serving state coexist, and the inverted index is rebuilt
cell by cell.

**v2** (the current default) is a *chunked streaming* format.  After the
header comes a sequence of self-describing frames, each one::

    1 byte    frame kind
    4 bytes   payload length, big-endian unsigned
    4 bytes   CRC-32 of the payload
    payload   pickle of one bounded chunk

The relation's columns and the cube's cells are split across fixed-size
chunks, so the reader materialises one chunk at a time and never holds the
raw payload and the constructed state together.  v2 additionally persists the
closure index's posting lists (derived state v1 rebuilds on every load) and
the pre-scored apex slot, so a v2 load is a straight reconstruction instead
of a re-index — the speedup ``benchmarks/bench_snapshot.py`` gates.  A
mandatory END frame carries the expected totals; a file that stops before it
— the torn-write crash artefact — raises a crisp
:class:`~repro.core.errors.SnapshotError` naming the truncation, as do a
checksum mismatch and an unknown version byte.

v2 also has an **incremental mode**: :func:`save_delta_segment` writes a
*delta segment* — the appended relation rows as typed column tails, plus the
grown value dictionaries — instead of rewriting the world.
:func:`load_snapshot` accepts an ordered list of segments and folds each
one's rows into the base with the same merge
(:func:`repro.incremental.merge.merge_closed_cubes`) the live append path
uses, landing on the exact serving state.  Segments are how
:meth:`repro.catalog.CubeCatalog.compact` folds a long append journal without
rewriting the base snapshot.  (Segments written before the merge became
rows-based also carry the closed delta cube of their rows as CELLS frames;
those still load — the frames are checked and skipped.)

Writes go through a same-directory temporary file followed by an atomic
rename, so readers never observe a half-written snapshot.

.. warning::
   The payloads are **pickle** (raw dimension values and measure specs are
   arbitrary Python objects, which pickle is the only stdlib codec for).
   Unpickling executes code embedded in the stream, and the header and
   checksums authenticate nothing — they detect corruption, not tampering.
   Only load snapshots you (or a process you trust) wrote.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from itertools import islice
from typing import TYPE_CHECKING, BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple

from .atomic import atomic_write

from ..core.cube import CellStats, CubeResult
from ..core.errors import SnapshotError
from ..core.measures import MeasureSet
from ..core.relation import Relation, Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session.serving import ServingCube

#: File magic identifying a repro cube snapshot.
SNAPSHOT_MAGIC = b"RPROCUBE"
#: The original monolithic-pickle format version.
SNAPSHOT_V1 = 1
#: The chunked streaming format version.
SNAPSHOT_V2 = 2
#: Current default snapshot format version.
SNAPSHOT_VERSION = SNAPSHOT_V2
#: Every version this build knows how to read.
SUPPORTED_VERSIONS = (SNAPSHOT_V1, SNAPSHOT_V2)

_HEADER = struct.Struct(">8sI")
#: v2 frame header: kind byte, payload length, CRC-32 of the payload.
_FRAME = struct.Struct(">BII")

#: v2 frame kinds.
FRAME_META = 0x01
FRAME_COLUMN = 0x02
FRAME_CELLS = 0x03
FRAME_POSTINGS = 0x04
FRAME_END = 0x7F

#: Cells per v2 CELLS frame — bounds the reader's per-chunk materialisation.
CELL_CHUNK = 4096
#: Column values per v2 COLUMN frame.
COLUMN_CHUNK = 65536


def _resolve_format(format: object) -> int:
    if format in ("v1", 1, SNAPSHOT_V1):
        return SNAPSHOT_V1
    if format in ("v2", 2, None, SNAPSHOT_V2):
        return SNAPSHOT_V2
    raise SnapshotError(
        f"unknown snapshot format {format!r}; use 'v1' or 'v2'"
    )


def _check_config(serving: "ServingCube") -> None:
    if not serving.config_known:
        # Persisting the guessed default config would come back as an
        # explicit one on load, re-enabling the maintenance paths this cube
        # refuses — under assumptions (min_sup, closed, measures) that may
        # not match how the cube was computed.
        raise SnapshotError(
            "this ServingCube was constructed without a ServingConfig; "
            "snapshotting it would persist guessed build settings — build "
            "it through CubeSession (or pass config=...) before saving"
        )


def _atomic_write(path: str, write_body) -> int:
    """Write through the shared same-directory temp file + rename helper."""
    return atomic_write(path, write_body, prefix=".snapshot-")


# --------------------------------------------------------------------------- #
# Saving                                                                       #
# --------------------------------------------------------------------------- #


def save_snapshot(serving: "ServingCube", path: str, format: object = "v2") -> int:
    """Write ``serving`` to ``path``; returns the snapshot size in bytes.

    ``format`` selects the on-disk layout: ``"v2"`` (default) streams chunked
    frames, ``"v1"`` writes the original monolithic pickle.  Both round-trip
    through :func:`load_snapshot`.
    """
    _check_config(serving)
    version = _resolve_format(format)
    if version == SNAPSHOT_V1:
        return _atomic_write(path, lambda stream: _write_v1(serving, stream))
    return _atomic_write(path, lambda stream: _write_v2(serving, stream))


def _partition_dim(serving: "ServingCube") -> Optional[int]:
    from ..query.engine import PartitionedQueryEngine

    if isinstance(serving.engine, PartitionedQueryEngine):
        return serving.engine.partition_dim
    return None


def _write_v1(serving: "ServingCube", stream: BinaryIO) -> None:
    relation = serving.relation
    payload: Dict[str, object] = {
        "version": SNAPSHOT_V1,
        "schema": {
            "dimensions": list(relation.schema.dimension_names),
            "measures": list(relation.schema.measure_names),
        },
        "relation": {
            "columns": [list(column) for column in relation.columns],
            "measure_columns": [list(column) for column in relation.measure_columns],
            "decoders": [dict(decoder) for decoder in relation.decoders],
        },
        "cube": {
            "name": serving.cube.name,
            "cells": [
                (cell, stats.count, dict(stats.measures), stats.rep_tid)
                for cell, stats in serving.cube.items()
            ],
        },
        "algorithm": serving.algorithm,
        "config": serving.config,
        "build_seconds": serving.build_seconds,
        "partition_dim": _partition_dim(serving),
        "partition_report": serving.partition_report,
    }
    stream.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_V1))
    pickle.dump(payload, stream, protocol=pickle.HIGHEST_PROTOCOL)


def _write_frame(stream: BinaryIO, kind: int, obj: object) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_FRAME.pack(kind, len(payload), zlib.crc32(payload)))
    stream.write(payload)


def _write_column_frames(
    stream: BinaryIO, role: str, index: int, column: Sequence[object]
) -> None:
    # Chunk by slicing the live column: each frame pickles a bounded copy, so
    # peak writer memory stays O(chunk), not O(relation).
    total = len(column)
    start = 0
    while start < total or (total == 0 and start == 0):
        chunk = list(column[start : start + COLUMN_CHUNK])
        _write_frame(stream, FRAME_COLUMN, (role, index, start, chunk))
        start += COLUMN_CHUNK
        if total == 0:
            break


def _write_cell_frames(stream: BinaryIO, cube: CubeResult):
    """Write ``cube``'s cells as CELLS frames, yielding each written chunk.

    The single serialisation point for the cell tuple shape
    ``(cell, count, measures, rep_tid)``.  Callers must drain the generator;
    full snapshots use the yielded chunks to derive posting lists in write
    order.
    """
    items = iter(cube.items())
    while True:
        chunk = [
            (cell, stats.count, dict(stats.measures), stats.rep_tid)
            for cell, stats in islice(items, CELL_CHUNK)
        ]
        if not chunk:
            return
        _write_frame(stream, FRAME_CELLS, chunk)
        yield chunk


def _write_v2(serving: "ServingCube", stream: BinaryIO) -> None:
    relation = serving.relation
    cube = serving.cube
    partition_dim = _partition_dim(serving)
    num_dims = relation.num_dimensions
    stream.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_V2))
    _write_frame(stream, FRAME_META, {
        "kind": "full",
        "schema": {
            "dimensions": list(relation.schema.dimension_names),
            "measures": list(relation.schema.measure_names),
        },
        "decoders": [dict(decoder) for decoder in relation.decoders],
        "name": cube.name,
        "algorithm": serving.algorithm,
        "config": serving.config,
        "build_seconds": serving.build_seconds,
        "partition_dim": partition_dim,
        "partition_report": serving.partition_report,
        "num_tuples": relation.num_tuples,
        "num_cells": len(cube),
        "cell_chunk": CELL_CHUNK,
    })
    for index, column in enumerate(relation.columns):
        _write_column_frames(stream, "dim", index, column)
    for index, column in enumerate(relation.measure_columns):
        _write_column_frames(stream, "measure", index, column)

    # Stream the cells in chunks, deriving the posting lists and the apex
    # slot as we go: slots are assigned in write order, so the persisted
    # index state is exactly what a from-scratch rebuild over these cells
    # would produce — minus the per-cell Python loop at load time.
    want_postings = partition_dim is None
    postings: List[Dict[int, List[int]]] = [{} for _ in range(num_dims)]
    best_slot: Optional[int] = None
    best_count = -1
    slot = 0
    for chunk in _write_cell_frames(stream, cube):
        if want_postings:
            for cell, count, _measures, _rep in chunk:
                for dim, value in enumerate(cell):
                    if value is not None:
                        postings[dim].setdefault(value, []).append(slot)
                if count > best_count:
                    best_count = count
                    best_slot = slot
                slot += 1
    if want_postings:
        for dim in range(num_dims):
            _write_frame(stream, FRAME_POSTINGS, (dim, postings[dim]))
    _write_frame(stream, FRAME_END, {
        "cells": len(cube),
        "postings": num_dims if want_postings else 0,
        "best_slot": best_slot,
    })


# --------------------------------------------------------------------------- #
# Delta segments (v2 incremental mode)                                         #
# --------------------------------------------------------------------------- #


def save_delta_segment(serving: "ServingCube", path: str, start_tid: int) -> int:
    """Write the rows appended since ``start_tid`` as a compacted delta segment.

    The segment holds the appended column tails and the grown value
    dictionaries — the compacted form of an append journal: encoded columns
    instead of line-JSON batches.  Apply with
    ``load_snapshot(base, segments=[...])``; folding extends the relation and
    runs :func:`repro.incremental.merge.merge_closed_cubes` over the
    segment's window, so the loaded state is cell-for-cell what the live
    append path produced.

    Only exact-maintenance configurations can be segmented (full closed
    cubes: ``closed=True, min_sup == 1``, unpartitioned, at most
    :data:`~repro.incremental.maintainer.MAX_DELTA_DIMS` dimensions) —
    anything else must rewrite the base (see
    :func:`delta_segment_supported`).  Returns the segment size in bytes.
    """
    _check_config(serving)
    reason = delta_segment_supported(serving)
    if reason is not None:
        raise SnapshotError(f"cannot write a delta segment: {reason}")
    relation = serving.relation
    num_tuples = relation.num_tuples
    if not 0 <= start_tid <= num_tuples:
        raise SnapshotError(
            f"segment start tid {start_tid} outside 0..{num_tuples}"
        )
    if start_tid == num_tuples:
        raise SnapshotError("no rows appended since the base; nothing to fold")

    def write_body(stream: BinaryIO) -> None:
        stream.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_V2))
        _write_frame(stream, FRAME_META, {
            "kind": "delta",
            "start": start_tid,
            "rows": num_tuples - start_tid,
            "dimensions": relation.num_dimensions,
            "decoders": [dict(decoder) for decoder in relation.decoders],
            "num_cells": 0,
        })
        for index, column in enumerate(relation.columns):
            _write_column_frames(
                stream, "dim", index, column[start_tid:num_tuples]
            )
        for index, column in enumerate(relation.measure_columns):
            _write_column_frames(
                stream, "measure", index, column[start_tid:num_tuples]
            )
        _write_frame(stream, FRAME_END, {
            "cells": 0, "postings": 0, "best_slot": None,
        })

    return _atomic_write(path, write_body)


def delta_segment_supported(serving: "ServingCube") -> Optional[str]:
    """``None`` when ``serving`` can be incrementally snapshotted, else why not.

    The conditions mirror the exact incremental-maintenance gate: segment
    folding runs :func:`~repro.incremental.merge.merge_closed_cubes`,
    which is exact only for full closed cubes.
    """
    from ..incremental.maintainer import MAX_DELTA_DIMS

    config = serving.config
    if not serving.config_known:
        return "the cube carries no explicit ServingConfig"
    if not config.closed or config.min_sup != 1:
        return (
            "only full closed cubes (closed=True, min_sup=1) support delta "
            "segments; iceberg/non-closed cubes have discarded state"
        )
    if config.partitioned or _partition_dim(serving) is not None:
        return "partitioned cubes refresh per partition, not by delta merge"
    if serving.relation.num_dimensions > MAX_DELTA_DIMS:
        return (
            f"{serving.relation.num_dimensions} dimensions exceed the "
            f"delta-merge bound of {MAX_DELTA_DIMS}"
        )
    return None


# --------------------------------------------------------------------------- #
# Loading                                                                      #
# --------------------------------------------------------------------------- #


def _read_header(stream: BinaryIO, path: str) -> int:
    header = stream.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise SnapshotError(f"{path!r} is too short to be a cube snapshot")
    magic, version = _HEADER.unpack(header)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(
            f"{path!r} is not a cube snapshot (bad magic {magic!r})"
        )
    if version not in SUPPORTED_VERSIONS:
        raise SnapshotError(
            f"{path!r} uses snapshot format version {version}; this build "
            f"reads versions {list(SUPPORTED_VERSIONS)}"
        )
    return version


def _read_frames(stream: BinaryIO, path: str) -> Iterator[Tuple[int, object]]:
    """Yield validated (kind, object) frames; stop after the END frame.

    Raises :class:`SnapshotError` on a short header or payload (a torn final
    chunk — the crash artefact of an interrupted write), on a CRC mismatch,
    and on a stream that ends before its END frame.
    """
    ended = False
    while True:
        header = stream.read(_FRAME.size)
        if not header:
            if not ended:
                raise SnapshotError(
                    f"{path!r} is truncated: the stream ends before its END "
                    "frame (torn write?)"
                )
            return
        if ended:
            raise SnapshotError(
                f"{path!r} carries data after its END frame"
            )
        if len(header) < _FRAME.size:
            raise SnapshotError(
                f"{path!r} is truncated mid-frame-header (torn write?)"
            )
        kind, length, crc = _FRAME.unpack(header)
        payload = stream.read(length)
        if len(payload) < length:
            raise SnapshotError(
                f"{path!r} is truncated: a {length}-byte chunk stops after "
                f"{len(payload)} bytes (torn write?)"
            )
        if zlib.crc32(payload) != crc:
            raise SnapshotError(
                f"{path!r} failed its chunk checksum (CRC mismatch: stored "
                f"{crc:#010x}, computed {zlib.crc32(payload):#010x})"
            )
        try:
            obj = pickle.loads(payload)
        except Exception as exc:
            raise SnapshotError(
                f"{path!r} has a corrupt chunk payload: {exc}"
            ) from exc
        if kind == FRAME_END:
            ended = True
        yield kind, obj


def load_snapshot(path: str, segments: Sequence[str] = ()) -> "ServingCube":
    """Rebuild a serving cube from a snapshot written by :func:`save_snapshot`.

    The relation, closed cells, and configuration come back verbatim; caches
    come back cold.  v2 snapshots stream chunk by chunk and reuse their
    persisted posting lists; v1 snapshots take the original monolithic path.
    ``segments`` — ordered delta segments written by
    :func:`save_delta_segment` — are folded in before the engine opens, each
    one via closed-cube merge.  The returned cube serves, appends, and
    snapshots again exactly like the one that was saved.

    Only load trusted files: the payloads are pickle, so loading a crafted
    snapshot executes arbitrary code (see the module warning).
    """
    try:
        with open(path, "rb") as stream:
            version = _read_header(stream, path)
            if version == SNAPSHOT_V1:
                state = _load_v1(stream, path)
            else:
                state = _load_v2(stream, path)
        relation, cube, meta = state
        config = meta["config"]
        measures = MeasureSet(tuple(config.measures))
        cube.measure_set = measures
    except SnapshotError:
        raise
    except Exception as exc:
        # Corruption that survives the per-frame CRC (e.g. a flipped frame
        # *kind* byte making one frame's payload land in another frame's
        # decoder) must still surface as a crisp SnapshotError, never as a
        # stray unpack/KeyError — the fuzz tests hold the loader to that.
        raise SnapshotError(
            f"{path!r} has inconsistent snapshot state: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    for segment in segments:
        _apply_segment(relation, cube, measures, segment)
    return _open_serving(relation, cube, meta)


_LoadedState = Tuple[Relation, CubeResult, Dict[str, object]]


def _load_v1(stream: BinaryIO, path: str) -> _LoadedState:
    try:
        payload = pickle.load(stream)
    except Exception as exc:
        raise SnapshotError(f"{path!r} has a corrupt payload: {exc}") from exc
    schema_spec = payload["schema"]
    schema = Schema(
        tuple(schema_spec["dimensions"]), tuple(schema_spec["measures"])
    )
    relation_spec = payload["relation"]
    relation = Relation(
        schema,
        [list(column) for column in relation_spec["columns"]],
        [list(column) for column in relation_spec["measure_columns"]],
        [dict(decoder) for decoder in relation_spec["decoders"]],
    )
    cube_spec = payload["cube"]
    cube = CubeResult(relation.num_dimensions, name=cube_spec["name"])
    for cell, count, measures, rep_tid in cube_spec["cells"]:
        cube.add(tuple(cell), count, measures, rep_tid)
    meta = {
        "config": payload["config"],
        "algorithm": payload["algorithm"],
        "build_seconds": payload["build_seconds"],
        "partition_dim": payload["partition_dim"],
        "partition_report": payload["partition_report"],
        "schema": schema,
    }
    return relation, cube, meta


def _load_v2(stream: BinaryIO, path: str) -> _LoadedState:
    from ..query.index import CubeIndex

    meta: Optional[Dict[str, object]] = None
    columns: List[List[object]] = []
    measure_columns: List[List[float]] = []
    cells: List[tuple] = []
    stats: List[CellStats] = []
    cube: Optional[CubeResult] = None
    postings: List[Optional[Dict[int, set]]] = []
    slot_ints: Optional[List[int]] = None
    filled: Dict[str, List[int]] = {}
    end: Optional[Dict[str, object]] = None
    for kind, obj in _read_frames(stream, path):
        if kind == FRAME_META:
            meta = obj  # type: ignore[assignment]
            if meta.get("kind") != "full":
                raise SnapshotError(
                    f"{path!r} is a {meta.get('kind')!r} segment, not a base "
                    "snapshot; pass it via segments=[...] instead"
                )
            # Preallocate every column at its exact final size: chunks fill
            # slices in place, so the assembled lists carry no growth-doubling
            # overallocation (they match what a monolithic load would build).
            num_tuples = meta["num_tuples"]
            columns = [[None] * num_tuples for _ in meta["schema"]["dimensions"]]
            measure_columns = [
                [None] * num_tuples for _ in meta["schema"]["measures"]
            ]
            filled = {
                "dim": [0] * len(columns),
                "measure": [0] * len(measure_columns),
            }
            postings = [None] * len(columns)
            cube = CubeResult(len(columns), name=meta["name"])
        elif meta is None or cube is None:
            raise SnapshotError(f"{path!r} carries data before its META frame")
        elif kind == FRAME_COLUMN:
            role, index, start, values = obj
            target = columns if role == "dim" else measure_columns
            if (
                role not in filled
                or not 0 <= index < len(target)
                or start != filled[role][index]
                or start + len(values) > len(target[index])
            ):
                raise SnapshotError(
                    f"{path!r} has an out-of-order column chunk "
                    f"({role} {index} at offset {start})"
                )
            target[index][start : start + len(values)] = values
            filled[role][index] = start + len(values)
        elif kind == FRAME_CELLS:
            cube_cells = cube._cells
            for cell, count, cell_measures, rep_tid in obj:
                cube_cells[cell] = entry = CellStats(count, cell_measures, rep_tid)
                cells.append(cell)
                stats.append(entry)
        elif kind == FRAME_POSTINGS:
            dim, dim_postings = obj
            if not 0 <= dim < len(postings):
                raise SnapshotError(
                    f"{path!r} has postings for unknown dimension {dim}"
                )
            # Intern slot ids through one shared table: pickle materialises
            # a fresh int object per posting entry, which would bloat the
            # resident index by megabytes on large cubes.  Converting frame
            # by frame also frees each raw chunk before the next one loads.
            if slot_ints is None:
                slot_ints = list(range(len(cells)))
            try:
                postings[dim] = {
                    value: {slot_ints[slot] for slot in slots}
                    for value, slots in dim_postings.items()
                }
            except IndexError as exc:
                raise SnapshotError(
                    f"{path!r} has a posting entry outside its "
                    f"{len(cells)} cell slots"
                ) from exc
        elif kind == FRAME_END:
            end = obj  # type: ignore[assignment]
        else:
            raise SnapshotError(
                f"{path!r} contains an unknown frame kind {kind:#04x}"
            )
    if meta is None or cube is None or end is None:
        raise SnapshotError(f"{path!r} is missing its META frame")
    if len(cube) != end["cells"] or len(cube) != meta["num_cells"]:
        raise SnapshotError(
            f"{path!r} is incomplete: expected {end['cells']} cells, "
            f"found {len(cube)}"
        )
    expected_tuples = meta["num_tuples"]
    if any(
        count != expected_tuples for counts in filled.values() for count in counts
    ):
        raise SnapshotError(
            f"{path!r} is incomplete: column chunks do not cover its "
            f"{expected_tuples} tuples"
        )
    schema = Schema(
        tuple(meta["schema"]["dimensions"]), tuple(meta["schema"]["measures"])
    )
    relation = Relation(schema, columns, measure_columns, meta["decoders"])
    if end["postings"]:
        if any(dim_postings is None for dim_postings in postings):
            raise SnapshotError(f"{path!r} is missing posting-list frames")
        # Attach the reconstructed index as the cube's live closure index:
        # subsequent merges (segment folding, appends) maintain it in place,
        # exactly as if it had been rebuilt from scratch.
        cube._closure_index = CubeIndex.from_snapshot_state(
            cube.num_dims, cells, stats, postings, end["best_slot"],
            slot_ints=slot_ints,
        )
    meta_out = {
        "config": meta["config"],
        "algorithm": meta["algorithm"],
        "build_seconds": meta["build_seconds"],
        "partition_dim": meta["partition_dim"],
        "partition_report": meta["partition_report"],
        "schema": schema,
    }
    return relation, cube, meta_out


def _apply_segment(
    relation: Relation,
    cube: CubeResult,
    measures: MeasureSet,
    path: str,
) -> None:
    """Fold one delta segment into the loaded base state, in order."""
    with open(path, "rb") as stream:
        version = _read_header(stream, path)
        if version != SNAPSHOT_V2:
            raise SnapshotError(
                f"{path!r} is not a delta segment (format version {version})"
            )
        meta: Optional[Dict[str, object]] = None
        legacy_cells = 0
        dim_tails: List[List[object]] = []
        measure_tails: List[List[float]] = []
        for kind, obj in _read_frames(stream, path):
            if kind == FRAME_META:
                meta = obj  # type: ignore[assignment]
                if meta.get("kind") != "delta":
                    raise SnapshotError(
                        f"{path!r} is not a delta segment (it is a "
                        f"{meta.get('kind')!r} snapshot)"
                    )
                if meta["dimensions"] != relation.num_dimensions:
                    raise SnapshotError(
                        f"{path!r} covers {meta['dimensions']} dimensions, "
                        f"the base has {relation.num_dimensions}"
                    )
                if meta["start"] != relation.num_tuples:
                    raise SnapshotError(
                        f"{path!r} starts at tuple {meta['start']} but the "
                        f"base holds {relation.num_tuples} tuples; segments "
                        "must be applied in write order"
                    )
                dim_tails = [[] for _ in range(relation.num_dimensions)]
                measure_tails = [[] for _ in relation.measure_columns]
            elif meta is None:
                raise SnapshotError(
                    f"{path!r} carries data before its META frame"
                )
            elif kind == FRAME_COLUMN:
                role, index, start, values = obj
                target = dim_tails if role == "dim" else measure_tails
                if not 0 <= index < len(target) or start != len(target[index]):
                    raise SnapshotError(
                        f"{path!r} has an out-of-order column chunk "
                        f"({role} {index} at offset {start})"
                    )
                target[index].extend(values)
            elif kind == FRAME_CELLS:
                # The delta cube an earlier build wrote beside the rows; the
                # merge below works from the rows alone.
                legacy_cells += len(obj)
            elif kind == FRAME_END:
                if legacy_cells != obj["cells"]:
                    raise SnapshotError(
                        f"{path!r} is incomplete: expected {obj['cells']} "
                        f"delta cells, found {legacy_cells}"
                    )
            else:
                raise SnapshotError(
                    f"{path!r} contains an unknown frame kind {kind:#04x}"
                )
    if meta is None:
        raise SnapshotError(f"{path!r} is missing its META frame")
    if any(len(tail) != meta["rows"] for tail in dim_tails + measure_tails):
        raise SnapshotError(
            f"{path!r} is incomplete: column tails do not cover its "
            f"{meta['rows']} rows"
        )
    for dim, tail in enumerate(dim_tails):
        relation.columns[dim].extend(tail)
    for index, tail in enumerate(measure_tails):
        relation.measure_columns[index].extend(tail)
    for dim, decoder in enumerate(meta["decoders"]):
        relation.decoders[dim].update(decoder)
    # The exact same merge the live append path runs, over this segment's
    # window of the grown relation.
    cube.merge(relation, meta["start"], measures=measures)


def _open_serving(
    relation: Relation, cube: CubeResult, meta: Dict[str, object]
) -> "ServingCube":
    from ..query.engine import PartitionedQueryEngine, QueryEngine
    from ..session.schema import CubeSchema
    from ..session.serving import ServingCube

    config = meta["config"]
    schema: Schema = meta["schema"]
    partition_dim = meta["partition_dim"]
    if partition_dim is not None:
        engine = PartitionedQueryEngine(
            cube, partition_dim=partition_dim, cache_size=config.cache_size
        )
    else:
        engine = QueryEngine(cube, cache_size=config.cache_size)
    return ServingCube(
        relation=relation,
        schema=CubeSchema(schema.dimension_names, schema.measure_names),
        cube=cube,
        engine=engine,
        algorithm=meta["algorithm"],
        plan=None,
        build_seconds=meta["build_seconds"],
        config=config,
        partition_report=meta["partition_report"],
    )


def snapshot_version(path: str) -> int:
    """The format version of the snapshot at ``path`` (header read only)."""
    with open(path, "rb") as stream:
        return _read_header(stream, path)
