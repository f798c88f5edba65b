"""The cube catalog: a named, durable registry of serving cubes.

One :class:`CubeCatalog` owns one directory.  Inside it live a JSON manifest
(:mod:`repro.storage.manifest`), one snapshot per cube (the versioned format
of :mod:`repro.storage.snapshot` — v2 streaming for everything this build
writes, v1 still loadable), optional *delta segments* (compacted journal
folds, see below), and one *append stream* per cube — a line-JSON journal of
the row batches appended since the cube's durable state was last advanced.
Together they make the catalog crash-consistent without ever rewriting a
snapshot per append: a reopened catalog loads each cube's snapshot, folds its
delta segments, and replays the journal tail, landing exactly where the
process died.

    catalog = CubeCatalog("/var/lib/cubes")
    catalog.create("sales", rows, schema={"dimensions": ["store", "product"]})
    catalog.append("sales", more_rows)          # journaled + merged
    catalog.compact("sales")                    # journal folded durably
    catalog.save("sales")                       # full fresh snapshot
    ...
    catalog = CubeCatalog("/var/lib/cubes")     # later / elsewhere
    catalog.open("sales").point({"store": "nyc"})

**Compaction.**  The append journal grows without bound until something folds
it.  :meth:`CubeCatalog.compact` does that fold in one of two modes:
*incremental* (the default when the cube supports exact delta maintenance)
writes a delta segment — the appended rows as encoded column tails — next to
the base snapshot; *full* rewrites a fresh snapshot under a
new generation file name.  Either way the manifest advances ``journal_offset``
in the same atomic manifest flip that publishes the new file, so a crash at
any point leaves a consistent chain: the half-written file is unreferenced
garbage and the journal tail still replays.  An automatic policy
(``auto_compact_ratio``) triggers compaction from :meth:`append` once the
un-folded journal bytes exceed a configurable fraction of the durable state's
size (never below ``auto_compact_min_bytes``, so small cubes are not churned).

``create`` accepts raw rows (with an optional schema), a configured
:class:`~repro.session.session.CubeSession` (build settings travel with it),
or an already-built :class:`~repro.session.serving.ServingCube`.  ``open``
returns the live in-memory cube, loading it on first use; ``load`` forces a
fresh load from disk.  Catalog state (manifest, instance table) is guarded by
one reentrant lock; the heavy per-cube work — snapshot loads, appends,
compaction folds — serialises on a *per-name* gate instead, so maintenance on
one cube never stalls queries, appends, or loads on another.

The snapshot payloads are pickle (see :mod:`repro.storage.snapshot`): only
open catalog directories you trust.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from ..core.errors import CatalogError, LeaseFencedError
from ..session.serving import ServingCube
from ..session.session import CubeSession
from ..storage import atomic
from ..storage.chain import read_journal_tail
from ..storage.locks import ManifestLock
from ..storage.manifest import (
    CatalogManifest,
    CubeEntry,
    appends_filename,
    segment_filename,
    snapshot_filename,
    validate_cube_name,
)
from ..storage.snapshot import delta_segment_supported

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Executor

    from ..incremental.maintainer import AppendReport

#: What :meth:`CubeCatalog.create` accepts as a cube source.
CubeSource = Union[ServingCube, CubeSession, Sequence[object]]

#: Default auto-compaction trigger: un-folded journal bytes exceeding this
#: fraction of the durable state's on-disk size.
AUTO_COMPACT_RATIO = 0.5
#: Journals below this many un-folded bytes never auto-compact — folding a
#: few hundred bytes of journal is pure churn on small cubes.
AUTO_COMPACT_MIN_BYTES = 64 * 1024
#: Once a cube's segment chain reaches this length, ``mode="auto"``
#: compaction escalates to a full rewrite instead of stacking another
#: segment — bounding both reopen cost (one merge per segment) and the
#: chain's disk footprint.  Explicit ``mode="incremental"`` is not bounded.
AUTO_COMPACT_MAX_SEGMENTS = 8


class CubeCatalog:
    """A directory of named serving cubes with durable append streams.

    ``auto_compact_ratio`` / ``auto_compact_min_bytes`` configure the
    automatic journal-folding policy (``auto_compact_ratio=None`` disables
    it; see :meth:`compact`).
    """

    def __init__(
        self,
        directory: str,
        auto_compact_ratio: Optional[float] = AUTO_COMPACT_RATIO,
        auto_compact_min_bytes: int = AUTO_COMPACT_MIN_BYTES,
        auto_compact_max_segments: int = AUTO_COMPACT_MAX_SEGMENTS,
    ) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.auto_compact_ratio = auto_compact_ratio
        self.auto_compact_min_bytes = auto_compact_min_bytes
        self.auto_compact_max_segments = auto_compact_max_segments
        self._lock = threading.RLock()
        self._manifest = CatalogManifest.load(self.directory)
        #: Live cubes by name (loaded lazily by :meth:`open`).
        self._cubes: Dict[str, ServingCube] = {}
        #: Per-name gates serialising the heavy per-cube operations (snapshot
        #: load, append fold, compaction) against each other, *off* the
        #: catalog-wide lock — work on one cube never blocks another.
        #: Reentrant so an append-triggered auto-compaction can re-enter.
        self._gates: Dict[str, threading.RLock] = {}
        #: Compaction counters by mode, for server stats.
        self._compactions: Dict[str, int] = {"incremental": 0, "full": 0}

    # ------------------------------------------------------------------ #
    # Registry operations                                                 #
    # ------------------------------------------------------------------ #

    def create(
        self,
        name: str,
        source: CubeSource,
        schema: Optional[object] = None,
    ) -> ServingCube:
        """Register a new cube under ``name`` and persist its first snapshot.

        ``source`` is raw rows (``schema`` as for :meth:`CubeSession.
        from_rows`), a configured :class:`CubeSession` (built here with its
        own settings), or an existing :class:`ServingCube`.  The snapshot is
        written immediately — a created cube survives a crash without any
        explicit ``save``.
        """
        validate_cube_name(name)
        if isinstance(source, ServingCube):
            if schema is not None:
                raise CatalogError(
                    "schema cannot be overridden when registering a built "
                    "ServingCube"
                )
            cube = source
        elif isinstance(source, CubeSession):
            if schema is not None:
                raise CatalogError(
                    "schema cannot be overridden when building from a "
                    "CubeSession (the session already has one)"
                )
            cube = source.build()
        else:
            cube = CubeSession.from_rows(source, schema=schema).build()
        with self._gate(name):
            with self._lock:
                if name in self._manifest.entries:
                    raise CatalogError(
                        f"cube {name!r} already exists in catalog "
                        f"{self.directory!r}; drop() it first or pick another "
                        "name"
                    )
                entry = CubeEntry(
                    snapshot=snapshot_filename(name),
                    appends=appends_filename(name),
                    created_at=time.time(),
                )
                self._manifest.entries[name] = entry
                self._cubes[name] = cube
            try:
                self._write_full_snapshot(name, cube, entry)
            except BaseException:
                with self._lock:
                    self._manifest.entries.pop(name, None)
                    self._cubes.pop(name, None)
                raise
        return cube

    def open(self, name: str) -> ServingCube:
        """The live cube called ``name``, loading (and replaying) on first use."""
        with self._lock:
            cube = self._cubes.get(name)
            if cube is not None:
                return cube
        return self._load(name)

    def get_loaded(self, name: str) -> Optional[ServingCube]:
        """The live cube if (and only if) it is already in memory.

        Never touches disk — the probe introspection paths (e.g.
        :meth:`repro.server.AsyncCubeServer.stats`) use so they cannot stall
        on a snapshot load.
        """
        with self._lock:
            return self._cubes.get(name)

    def load(self, name: str) -> ServingCube:
        """Force a fresh load of ``name`` from its snapshot + append stream.

        Discards the in-memory instance (unsaved *in-memory only* state of a
        cube appended outside the catalog is lost — catalog appends are
        journaled and therefore replayed).
        """
        with self._lock:
            self._cubes.pop(name, None)
        return self._load(name)

    def drop(self, name: str) -> None:
        """Unregister ``name`` and delete its snapshot, segments, and stream."""
        with self._gate(name):
            with self._lock:
                entry = self._entry(name)
                del self._manifest.entries[name]
                self._cubes.pop(name, None)
                self._save_manifest()
                self._unlink(
                    [entry.snapshot, entry.appends, *entry.segments]
                )

    def list(self) -> List[str]:
        """Registered cube names, sorted."""
        with self._lock:
            return sorted(self._manifest.entries)

    def describe(self, name: str) -> Dict[str, object]:
        """Manifest metadata for one cube (no snapshot is opened)."""
        with self._lock:
            entry = self._entry(name)
            return {
                "name": name,
                "snapshot": entry.snapshot,
                "appends": entry.appends,
                "created_at": entry.created_at,
                "saved_at": entry.saved_at,
                "rows": entry.rows,
                "cells": entry.cells,
                "algorithm": entry.algorithm,
                "dimensions": list(entry.dimensions),
                "format": entry.format,
                "generation": entry.generation,
                "segments": list(entry.segments),
                "journal_offset": entry.journal_offset,
                "leader_id": entry.leader_id,
                "leader_epoch": entry.leader_epoch,
                "lease_expires_at": entry.lease_expires_at,
                "durable_bytes": self._durable_bytes(entry),
                "journal_bytes": self._journal_size(entry),
                "loaded": name in self._cubes,
                "pending_appends": self._journal_batches(entry),
            }

    def install(self, name: str, cube: ServingCube) -> ServingCube:
        """Adopt ``cube`` as the live in-memory instance of ``name``.

        The manifest must already know ``name``; nothing is written to disk.
        This is the promotion hook of the replicated tier: a follower that
        has tailed a cube to the chain tip installs its replica here and
        starts serving writes immediately, instead of paying a full reload
        of a chain it already holds in memory.
        """
        with self._lock:
            self._entry(name)  # raises if the manifest does not know it
            self._cubes[name] = cube
        return cube

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._manifest.entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._manifest.entries)

    # ------------------------------------------------------------------ #
    # Maintenance                                                         #
    # ------------------------------------------------------------------ #

    def append(
        self,
        name: str,
        rows: Sequence[object],
        copy_on_publish: bool = False,
        executor: Optional["Executor"] = None,
        lease: Optional[object] = None,
    ) -> "AppendReport":
        """Append rows to ``name`` durably: journal first, then merge.

        The batch is written to the cube's append stream before the merge
        runs, so a crash at any later point replays it on the next load; a
        merge *failure* (bad rows) rolls the journal entry back.  Rows must
        be JSON-serialisable (they are for every protocol-fed workload); for
        non-JSON values append on the cube directly and :meth:`save` to
        persist.  ``executor`` passes through to
        :meth:`repro.session.serving.ServingCube.append`; ``copy_on_publish``
        is accepted for compatibility and ignored, as it is there.

        ``lease`` carries the replicated tier's single-writer claim: any
        object with ``holder_id`` / ``epoch`` attributes (in practice a
        :class:`repro.replication.CubeLease`).  When given, the on-disk
        manifest is re-read and the append is *fenced* — it raises
        :class:`~repro.core.errors.LeaseFencedError` before journaling
        anything if the cube's lease has moved to another holder or a higher
        epoch.  ``lease=None`` (the default) keeps the single-process
        behaviour: no fencing, no extra manifest read.

        When the automatic compaction policy is enabled and the un-folded
        journal has outgrown the durable state, the fold runs here, inline,
        before returning (appends to *other* cubes proceed meanwhile).
        """
        cube = self.open(name)
        if not rows:
            return cube.append(rows)
        try:
            line = json.dumps({"rows": [self._jsonable_row(row) for row in rows]})
        except (TypeError, ValueError) as exc:
            raise CatalogError(
                f"rows appended through the catalog must be JSON-serialisable "
                f"({exc}); append on the ServingCube directly and save() to "
                "persist non-JSON values"
            ) from exc
        record = line + "\n"
        with self._gate(name):
            with self._lock:
                entry = self._entry(name)
                if lease is not None:
                    self._check_lease(name, lease)
                path = os.path.join(self.directory, entry.appends)
                with open(path, "a") as stream:
                    offset = stream.tell()
                    stream.write(record)
            try:
                report = cube.append(rows, executor=executor)
            except BaseException:
                # The journal must not replay a batch the cube rejected —
                # but other writers may have journaled *after* this line
                # (e.g. a direct journal injection while the merge failed),
                # so a blind truncate(offset) would erase their records.
                # Truncate only when the file still ends with exactly our
                # record; otherwise rewrite with one occurrence removed.
                with self._lock:
                    self._remove_journal_record(path, offset, record)
                raise
            self._maybe_auto_compact(name, cube)
        return report

    def save(self, name: Optional[str] = None) -> None:
        """Write a fresh full snapshot of one cube (or every loaded cube).

        Folds everything — segments and journal included — into one v2
        snapshot and resets the chain (segments dropped, journal truncated).
        Only *loaded* cubes are written on a catalog-wide save: an unloaded
        cube's snapshot chain on disk is already its durable state.
        """
        if name is not None:
            names = [name]
        else:
            with self._lock:
                names = sorted(self._cubes)
        for cube_name in names:
            with self._gate(cube_name):
                with self._lock:
                    entry = self._manifest.entries.get(cube_name)
                    cube = self._cubes.get(cube_name)
                if entry is None:
                    if name is not None:
                        self._entry(cube_name)  # raises with the known names
                    continue  # dropped since the name snapshot: nothing to save
                if cube is None:
                    if name is not None:
                        raise CatalogError(
                            f"cube {cube_name!r} is not loaded; open() it "
                            "before save(), or rely on its on-disk state"
                        )
                    continue
                self._write_full_snapshot(cube_name, cube, entry)

    def compact(self, name: str, mode: str = "auto") -> Dict[str, object]:
        """Fold ``name``'s append journal into durable snapshot state.

        ``mode``:

        * ``"incremental"`` — write a compacted *delta segment* (the appended
          rows as encoded column tails) next to the base snapshot; the cheap
          fold, available when the cube supports exact delta maintenance
          (full closed cube, unpartitioned).
        * ``"full"`` — rewrite one fresh v2 snapshot under a new generation
          file name, dropping all segments; always available.
        * ``"auto"`` (default) — incremental when supported, else full;
          escalates to full once the segment chain reaches
          ``auto_compact_max_segments``, so chains stay bounded.

        The new file is written first (atomic rename), then one manifest flip
        publishes it and advances ``journal_offset`` past the folded bytes;
        on any failure the manifest is rolled back and the orphan file
        removed, so the previous chain keeps serving.  Returns a report of
        what was done, including ``{"mode": "none"}`` when nothing needed
        folding.
        """
        if mode not in ("auto", "full", "incremental"):
            raise CatalogError(
                f"unknown compaction mode {mode!r}; use 'auto', "
                "'incremental', or 'full'"
            )
        cube = self.open(name)
        with self._gate(name):
            with self._lock:
                entry = self._entry(name)
            journal_size = self._journal_size(entry)
            pending_bytes = max(0, journal_size - entry.journal_offset)
            start = entry.rows
            total = cube.relation.num_tuples
            reason = delta_segment_supported(cube)
            if mode == "incremental" and reason is not None:
                raise CatalogError(
                    f"cube {name!r} cannot compact incrementally: {reason}"
                )
            if total == start and pending_bytes == 0 and not (
                mode == "full" and (entry.segments or journal_size)
            ):
                return {"name": name, "mode": "none", "folded_rows": 0}
            incremental = (
                mode == "incremental"
                or (
                    mode == "auto"
                    and reason is None
                    and total > start
                    and len(entry.segments) < self.auto_compact_max_segments
                )
            )
            if incremental:
                report = self._write_delta_segment(name, cube, entry, start)
            else:
                report = self._write_full_snapshot(name, cube, entry)
            with self._lock:
                self._compactions[report["mode"]] += 1
            return report

    def compaction_stats(self) -> Dict[str, int]:
        """How many incremental / full folds this catalog instance ran."""
        with self._lock:
            return dict(self._compactions)

    # ------------------------------------------------------------------ #
    # Internals                                                           #
    # ------------------------------------------------------------------ #

    def _gate(self, name: str) -> threading.RLock:
        with self._lock:
            return self._gates.setdefault(name, threading.RLock())

    def _save_manifest(self) -> None:
        """Write the manifest, preserving lease state written by others.

        Lease transitions (:mod:`repro.replication.lease`) are made by other
        *processes* directly against the on-disk manifest; this catalog
        instance's in-memory copy can be arbitrarily stale about them.  Every
        manifest write therefore re-reads the lease triple from disk into the
        in-memory entries, so a chain flip (compaction, save, drop) never
        rolls back a leadership change it did not make.  The whole
        load-merge-save runs under the directory's cross-process
        :class:`~repro.storage.locks.ManifestLock` — the same mutex every
        lease transition holds — so a takeover landing *between* the re-read
        and the save cannot be clobbered either: without the lock that
        window would roll the fence back on disk, letting a deposed leader's
        appends pass while the legitimate leader is rejected.  Caller holds
        the catalog lock.
        """
        with ManifestLock(self.directory):
            try:
                on_disk = CatalogManifest.load(self.directory)
            except CatalogError:
                on_disk = CatalogManifest()
            for name, entry in self._manifest.entries.items():
                disk_entry = on_disk.entries.get(name)
                if disk_entry is None:
                    continue
                entry.leader_id = disk_entry.leader_id
                entry.leader_epoch = disk_entry.leader_epoch
                entry.lease_expires_at = disk_entry.lease_expires_at
            self._manifest.save(self.directory)

    def _check_lease(self, name: str, lease: object) -> None:
        """Fence an append against the *on-disk* lease state (lock held).

        ``lease`` is duck-typed — anything with ``holder_id`` and ``epoch``.
        The check reads the manifest fresh from disk because lease takeovers
        happen in other processes: a paused leader's in-memory view is
        exactly what cannot be trusted.  Expiry alone does not fence (the
        holder may simply be between renewals); only an actually-recorded
        takeover — a different holder or a higher epoch — does.
        """
        holder_id = getattr(lease, "holder_id", None)
        epoch = getattr(lease, "epoch", None)
        if not holder_id or epoch is None:
            raise CatalogError(
                f"append lease must carry holder_id/epoch, got {lease!r}"
            )
        disk_entry = CatalogManifest.load(self.directory).entries.get(name)
        if disk_entry is None:
            raise CatalogError(
                f"cube {name!r} vanished from the on-disk manifest of "
                f"{self.directory!r} while appending"
            )
        if disk_entry.leader_epoch > epoch or (
            disk_entry.leader_id and disk_entry.leader_id != holder_id
        ):
            raise LeaseFencedError(
                f"append to {name!r} fenced: writer {holder_id!r} holds "
                f"epoch {epoch}, but the manifest records leader "
                f"{disk_entry.leader_id!r} at epoch {disk_entry.leader_epoch}"
            )
        # Sync what we just learned so later describe()/saves stay honest.
        entry = self._manifest.entries.get(name)
        if entry is not None:
            entry.leader_id = disk_entry.leader_id
            entry.leader_epoch = disk_entry.leader_epoch
            entry.lease_expires_at = disk_entry.lease_expires_at

    def _entry(self, name: str) -> CubeEntry:
        entry = self._manifest.entries.get(name)
        if entry is None:
            raise CatalogError(
                f"no cube named {name!r} in catalog {self.directory!r}; "
                f"known cubes: {sorted(self._manifest.entries)}"
            )
        return entry

    def _unlink(self, filenames: Sequence[str]) -> None:
        for filename in filenames:
            try:
                os.unlink(os.path.join(self.directory, filename))
            except FileNotFoundError:
                pass

    def _journal_size(self, entry: CubeEntry) -> int:
        path = os.path.join(self.directory, entry.appends)
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def _durable_bytes(self, entry: CubeEntry) -> int:
        """On-disk size of the snapshot chain (base + segments)."""
        total = 0
        for filename in (entry.snapshot, *entry.segments):
            try:
                total += os.path.getsize(os.path.join(self.directory, filename))
            except OSError:
                pass
        return total

    @staticmethod
    def _jsonable_row(row: object) -> object:
        """A JSON-shaped copy of one raw row (tuples become lists)."""
        if isinstance(row, dict):
            return dict(row)
        return list(row)  # type: ignore[call-overload]

    @staticmethod
    def _remove_journal_record(path: str, offset: int, record: str) -> None:
        """Undo one journal write without touching later writers' records.

        Fast path: the file still ends with our record at our offset —
        truncate it away.  Slow path (another writer appended while our
        merge was failing): rewrite the stream with a single occurrence of
        the record dropped.  The rewrite is atomic (temp + rename): the
        journal loader tolerates one torn *tail* line, not a torn middle,
        so an in-place rewrite interrupted by a crash would corrupt records
        other writers own.  Caller holds the catalog lock, so no journal
        write can interleave with the rewrite; our record sits at or past
        the folded ``journal_offset``, so bytes before it keep their
        positions either way.
        """
        with open(path, "r+") as stream:
            stream.seek(offset)
            tail = stream.read()
            if tail == record:
                stream.truncate(offset)
                return
        with open(path) as stream:
            lines = stream.readlines()
        try:
            lines.reverse()
            lines.remove(record)
            lines.reverse()
        except ValueError:  # pragma: no cover - record already gone
            return
        atomic.replace_lines(path, lines)

    def _maybe_auto_compact(self, name: str, cube: ServingCube) -> None:
        """Apply the auto-compaction policy after an append (gate held)."""
        ratio = self.auto_compact_ratio
        if ratio is None:
            return
        with self._lock:
            entry = self._entry(name)
        pending = max(0, self._journal_size(entry) - entry.journal_offset)
        if pending < self.auto_compact_min_bytes:
            return
        if pending > ratio * max(1, self._durable_bytes(entry)):
            self.compact(name, mode="auto")

    def _write_full_snapshot(
        self, name: str, cube: ServingCube, entry: CubeEntry
    ) -> Dict[str, object]:
        """Fold everything into one fresh v2 snapshot (gate held).

        When segments or journal bytes are stacked on the current base, the
        new snapshot lands under a *new generation* file name and one atomic
        manifest flip publishes it — a crash before the flip leaves the old
        chain fully intact, a crash after it leaves only unreferenced
        garbage.  Without anything stacked, the rewrite happens in place
        (the rename itself is the atomic switch).
        """
        journal_size = self._journal_size(entry)
        supersedes_chain = bool(entry.segments) or journal_size > 0
        if supersedes_chain:
            new_generation = entry.generation + 1
            new_snapshot = snapshot_filename(name, new_generation)
        else:
            new_generation = entry.generation
            new_snapshot = entry.snapshot
        folded_rows = cube.relation.num_tuples - entry.rows
        size = cube.save(os.path.join(self.directory, new_snapshot))
        with self._lock:
            stale = [
                filename
                for filename in (entry.snapshot, *entry.segments)
                if filename != new_snapshot
            ]
            rollback = (
                entry.snapshot, entry.generation, entry.format, entry.segments,
                entry.journal_offset, entry.saved_at, entry.rows, entry.cells,
                entry.algorithm, entry.dimensions,
            )
            entry.snapshot = new_snapshot
            entry.generation = new_generation
            entry.format = "v2"
            entry.segments = ()
            entry.journal_offset = journal_size
            entry.saved_at = time.time()
            entry.rows = cube.relation.num_tuples
            entry.cells = len(cube)
            entry.algorithm = cube.algorithm
            entry.dimensions = tuple(cube.schema.dimensions)
            try:
                self._save_manifest()
            except BaseException:
                (
                    entry.snapshot, entry.generation, entry.format,
                    entry.segments, entry.journal_offset, entry.saved_at,
                    entry.rows, entry.cells, entry.algorithm, entry.dimensions,
                ) = rollback
                if new_snapshot != entry.snapshot:
                    self._unlink([new_snapshot])
                raise
            # The flip is durable: superseded files are garbage now, and the
            # folded journal bytes can go (no appends interleave — the gate
            # is held).  A crash in here costs nothing but disk space.
            self._unlink(stale)
            atomic.truncate(os.path.join(self.directory, entry.appends))
            if entry.journal_offset:
                entry.journal_offset = 0
                self._save_manifest()
        return {
            "name": name,
            "mode": "full",
            "snapshot": new_snapshot,
            "bytes": size,
            "folded_rows": folded_rows,
            "folded_journal_bytes": journal_size,
        }

    def _write_delta_segment(
        self, name: str, cube: ServingCube, entry: CubeEntry, start: int
    ) -> Dict[str, object]:
        """Fold the journal tail into one delta segment (gate held)."""
        segment = segment_filename(name, entry.generation, len(entry.segments) + 1)
        size = cube.save_delta(os.path.join(self.directory, segment), start)
        with self._lock:
            journal_size = self._journal_size(entry)
            rollback = (
                entry.segments, entry.journal_offset, entry.saved_at,
                entry.rows, entry.cells,
            )
            entry.segments = (*entry.segments, segment)
            entry.journal_offset = journal_size
            entry.saved_at = time.time()
            entry.rows = cube.relation.num_tuples
            entry.cells = len(cube)
            try:
                self._save_manifest()
            except BaseException:
                (
                    entry.segments, entry.journal_offset, entry.saved_at,
                    entry.rows, entry.cells,
                ) = rollback
                self._unlink([segment])
                raise
            # The flip folded every journal byte (the gate is held, so no
            # append interleaved); reclaim them.  A crash between the
            # truncate and the offset reset reads as an offset past the
            # file's end — an empty tail — so every window stays consistent.
            atomic.truncate(os.path.join(self.directory, entry.appends))
            entry.journal_offset = 0
            self._save_manifest()
        return {
            "name": name,
            "mode": "incremental",
            "segment": segment,
            "bytes": size,
            "folded_rows": entry.rows - start,
            "folded_journal_bytes": journal_size - rollback[1],
        }

    def _journal_batches(self, entry: CubeEntry) -> int:
        """Number of journaled batches pending replay for one entry."""
        path = os.path.join(self.directory, entry.appends)
        if not os.path.exists(path):
            return 0
        with open(path) as stream:
            stream.seek(min(entry.journal_offset, self._journal_size(entry)))
            return sum(1 for line in stream if line.strip())

    def _load(self, name: str) -> ServingCube:
        """Load snapshot chain + replay stream, off the catalog-wide lock.

        The heavy part (reading the snapshot, folding delta segments,
        replaying journaled batches) runs under the per-name gate only, so
        appends and opens on other cubes — the whole point of a multi-cube
        catalog — proceed while this cube loads.  Duplicate concurrent loads
        of one name serialise on the gate, and the first finished instance
        wins.
        """
        with self._gate(name):
            with self._lock:
                cube = self._cubes.get(name)
                if cube is not None:
                    return cube
                entry = self._entry(name)
                snapshot_path = os.path.join(self.directory, entry.snapshot)
                segment_paths = [
                    os.path.join(self.directory, segment)
                    for segment in entry.segments
                ]
                batches = self._read_journal(entry)
            cube = ServingCube.load(snapshot_path, segments=segment_paths)
            # The closed cube — counts and ``min`` representatives included —
            # is a function of the relation alone, so the whole journal tail
            # folds in one append, not one per journaled batch.
            cube.append([
                tuple(row) if isinstance(row, list) else row
                for batch in batches
                for row in batch
            ])
            with self._lock:
                existing = self._cubes.get(name)
                if existing is not None:
                    return existing
                self._cubes[name] = cube
                return cube

    def _read_journal(self, entry: CubeEntry) -> List[List[object]]:
        """The un-folded journaled batches, tolerating one torn tail line.

        Bytes before ``entry.journal_offset`` are already folded into the
        snapshot chain (compaction advances the offset atomically with its
        manifest flip) and are skipped; a post-truncation offset past the
        file's end reads as an empty tail.
        """
        path = os.path.join(self.directory, entry.appends)
        batches, _ = read_journal_tail(path, entry.journal_offset)
        return batches

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CubeCatalog({self.directory!r}, cubes={self.list()!r}, "
            f"loaded={sorted(self._cubes)!r})"
        )
