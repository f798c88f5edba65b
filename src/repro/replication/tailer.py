"""Followers: replaying the catalog chain into read-only replicas.

A follower process points a :class:`ReplicationTailer` at the *same catalog
directory* the leader writes (shared-nothing applies to serving state, not
to the replication log — the chain on disk IS the log).  Per tailed cube a
:class:`CubeFollower` keeps

* a **replica** :class:`~repro.session.serving.ServingCube` built once from
  the snapshot chain (the bootstrap), then advanced incrementally,
* a :class:`~repro.storage.chain.ChainPosition` **cursor** — which chain
  identity the replica has folded and how many journal bytes past it,
* a published :class:`~repro.session.serving.CubeView` — the pinned,
  cache-free read surface follower servers answer from, re-pinned after
  every applied batch,
* a cached **lag** pair (un-applied journal bytes + leader-epoch delta) so
  server ``stats()`` never touches disk.

Each :meth:`CubeFollower.poll` reconciles against the manifest:

1. durable rows exceed the replica's rows → a compaction folded batches the
   replica never saw (or the replica is behind a truncated journal); the
   only safe move is a full **re-bootstrap** from the new chain.  Delta
   segments cannot be applied to a live replica — the on-disk fold is
   exact-start-aligned and pre-engine — so the tailer never tries.
2. the chain identity (generation / segment list) changed but the replica
   already holds at least the durable rows → the compaction folded batches
   the replica *had already replayed from the journal*; adopt the new
   identity and reset the cursor to the entry's journal offset.  No data
   moves.
3. otherwise replay the journal tail from the cursor (tolerating one torn
   tail line by not advancing past it) and apply each batch; in-flight
   reads keep their pinned view (appends never mutate what a view pins).

Cursors persist (``<name>.cursor.json`` under ``state_dir``, written through
the :mod:`repro.storage.atomic` funnel), so a tailer restarted over a
still-live replica resumes from the cursor and replays only the journal
tail — no snapshot re-read (``snapshot_loads`` stays 0 across the restart).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import CatalogError, ReplicationError
from ..session.serving import CubeView, ServingCube
from ..storage.atomic import atomic_write_text
from ..storage.chain import ChainPosition, read_journal_tail
from ..storage.manifest import CatalogManifest, CubeEntry
from . import lease as lease_mod

__all__ = ["CubeFollower", "ReplicationTailer"]

#: How often a background tailer polls the chain for new records.
DEFAULT_POLL_INTERVAL = 0.05

#: After this many *consecutive* failed polls a follower stops claiming its
#: cached ``caught_up`` lag: one or two failures are transient races with
#: the leader (a compaction unlinking a chain file between the manifest
#: read and the load) that the next poll resolves, but a persistent streak
#: means the cached lag is a stale claim and operators must see the
#: follower as degraded, not frozen-but-healthy.
POLL_ERRORS_BEFORE_STALE = 3

#: Default promotion catch-up budget, in seconds (see
#: :meth:`ReplicationTailer.promote`).
DEFAULT_CATCHUP_TIMEOUT = 30.0


class CubeFollower:
    """One cube's read-only replica, advanced by tailing its chain."""

    def __init__(
        self, directory: str, name: str, state_dir: Optional[str] = None
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.name = name
        self.state_dir = os.path.abspath(state_dir) if state_dir else None
        self.replica: Optional[ServingCube] = None
        self.cursor = ChainPosition()
        self._view: Optional[CubeView] = None
        self._lag: Dict[str, object] = {
            "journal_bytes": 0,
            "epoch_delta": 0,
            "caught_up": False,
        }
        self._caught_up_epoch = 0
        self.counters: Dict[str, int] = {
            "polls": 0,
            "poll_errors": 0,
            "snapshot_loads": 0,
            "rebootstraps": 0,
            "batches_applied": 0,
            "rows_applied": 0,
        }
        self._last_error: Optional[str] = None
        self._consecutive_errors = 0
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #
    # Chain access                                                    #
    # -------------------------------------------------------------- #

    def _entry(self) -> CubeEntry:
        manifest = CatalogManifest.load(self.directory)
        entry = manifest.entries.get(self.name)
        if entry is None:
            raise ReplicationError(
                f"cube {self.name!r} is not in the manifest of "
                f"{self.directory!r}; known cubes: {sorted(manifest.entries)}"
            )
        return entry

    def _journal_path(self, entry: CubeEntry) -> str:
        return os.path.join(self.directory, entry.appends)

    @staticmethod
    def _as_rows(batch: List[object]) -> List[object]:
        return [tuple(row) if isinstance(row, list) else row for row in batch]

    # -------------------------------------------------------------- #
    # Bootstrap / resume                                              #
    # -------------------------------------------------------------- #

    def bootstrap(self) -> None:
        """Build the replica from the full chain: snapshot + segments + tail."""
        entry = self._entry()
        snapshot_path = os.path.join(self.directory, entry.snapshot)
        segment_paths = [
            os.path.join(self.directory, segment) for segment in entry.segments
        ]
        replica = ServingCube.load(snapshot_path, segments=segment_paths)
        self.counters["snapshot_loads"] += 1
        batches, consumed = read_journal_tail(
            self._journal_path(entry), entry.journal_offset
        )
        for batch in batches:
            rows = self._as_rows(batch)
            replica.append(rows)
            self.counters["batches_applied"] += 1
            self.counters["rows_applied"] += len(rows)
        self.replica = replica
        self.cursor = ChainPosition(
            generation=entry.generation,
            segments=tuple(entry.segments),
            journal_offset=consumed,
            rows=replica.relation.num_tuples,
        )
        self._publish(entry)
        self._persist_cursor()

    def resume(
        self, replica: ServingCube, cursor: Optional[ChainPosition] = None
    ) -> None:
        """Adopt a still-live ``replica`` and continue from its cursor.

        This is the warm-restart path: a tailer torn down and rebuilt in the
        same process (or handed a replica by its supervisor) does not pay a
        snapshot re-read — it trusts the persisted cursor, verifies it still
        matches the replica and the on-disk chain, and replays only the
        journal tail on the next :meth:`poll`.  Falls back to a cold
        :meth:`bootstrap` when no valid cursor exists or the chain has moved
        past it.
        """
        if cursor is None:
            cursor = self._load_cursor()
        if cursor is None:
            self.bootstrap()
            return
        entry = self._entry()
        if (
            cursor.rows != replica.relation.num_tuples
            or not cursor.same_chain(entry.generation, tuple(entry.segments))
            or entry.rows > cursor.rows
        ):
            self.bootstrap()
            return
        self.replica = replica
        self.cursor = cursor
        self._publish(entry)

    # -------------------------------------------------------------- #
    # Tailing                                                         #
    # -------------------------------------------------------------- #

    def poll(self) -> bool:
        """Advance the replica by one reconciliation pass.

        Returns whether anything changed (batches applied, identity adopted,
        or a re-bootstrap).  Thread-safe against concurrent :meth:`poll` /
        :meth:`view` calls.
        """
        with self._lock:
            changed = self._poll_locked()
            self._consecutive_errors = 0
            return changed

    def note_poll_error(self, exc: BaseException) -> None:
        """Record a failed :meth:`poll` so the failure is visible, not fatal.

        The background tailer routes every poll exception here and keeps
        tailing: a cube dropped from the manifest, a compaction unlinking a
        stale snapshot between the manifest read and the load, a torn
        cursor directory — all either resolve on a later poll or deserve an
        operator's eye, and neither justifies silently killing the thread
        for every *other* follower.  After
        :data:`POLL_ERRORS_BEFORE_STALE` consecutive failures the cached
        lag stops claiming ``caught_up`` so ``stats()`` shows the follower
        degraded instead of frozen at its last healthy report.
        """
        self.counters["poll_errors"] += 1
        self._consecutive_errors += 1
        self._last_error = f"{type(exc).__name__}: {exc}"
        if self._consecutive_errors >= POLL_ERRORS_BEFORE_STALE:
            lag = dict(self._lag)
            lag["caught_up"] = False
            self._lag = lag

    def _poll_locked(self) -> bool:
        self.counters["polls"] += 1
        if self.replica is None:
            self.bootstrap()
            return True
        entry = self._entry()
        applied = self.cursor.rows
        if entry.rows > applied:
            # Durable state holds rows this replica never replayed: a
            # compaction folded batches from a journal window we missed.
            self.counters["rebootstraps"] += 1
            self.bootstrap()
            return True
        changed = False
        if not self.cursor.same_chain(entry.generation, tuple(entry.segments)):
            # Compaction folded batches we had already applied from the
            # journal: adopt the new identity, nothing to re-read.
            self.cursor = ChainPosition(
                generation=entry.generation,
                segments=tuple(entry.segments),
                journal_offset=entry.journal_offset,
                rows=applied,
            )
            changed = True
        path = self._journal_path(entry)
        try:
            batches, consumed = read_journal_tail(
                path, self.cursor.journal_offset
            )
        except CatalogError:
            # The journal was truncated and rewritten underneath our cursor
            # (compaction raced this poll); the chain identity we would
            # reconcile against is already stale too.  Start over.
            self.counters["rebootstraps"] += 1
            self.bootstrap()
            return True
        for batch in batches:
            rows = self._as_rows(batch)
            self.replica.append(rows)
            self.counters["batches_applied"] += 1
            self.counters["rows_applied"] += len(rows)
        if batches or changed:
            self.cursor = ChainPosition(
                generation=self.cursor.generation,
                segments=self.cursor.segments,
                journal_offset=consumed,
                rows=self.replica.relation.num_tuples,
            )
            self._publish(entry)
            self._persist_cursor()
        else:
            self._update_lag(entry)
        return bool(batches) or changed

    def _publish(self, entry: CubeEntry) -> None:
        assert self.replica is not None
        self._view = self.replica.read_snapshot()
        self._update_lag(entry)

    def _update_lag(self, entry: CubeEntry) -> None:
        try:
            size = os.path.getsize(self._journal_path(entry))
        except OSError:
            size = 0
        pending = max(0, size - min(self.cursor.journal_offset, size))
        caught_up = pending == 0 and entry.rows <= self.cursor.rows
        if caught_up:
            self._caught_up_epoch = entry.leader_epoch
        self._lag = {
            "journal_bytes": pending,
            "epoch_delta": max(0, entry.leader_epoch - self._caught_up_epoch),
            "caught_up": caught_up,
        }

    # -------------------------------------------------------------- #
    # Read surface                                                    #
    # -------------------------------------------------------------- #

    def view(self) -> CubeView:
        """The replica's current pinned read view."""
        view = self._view
        if view is None:
            raise ReplicationError(
                f"follower for {self.name!r} has not bootstrapped yet"
            )
        return view

    def lag(self) -> Dict[str, object]:
        """The lag pair cached at the last poll — never touches disk."""
        return dict(self._lag)

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = dict(self.counters)
        stats["cursor"] = self.cursor.as_dict()
        stats["replica_lag"] = self.lag()
        stats["rows"] = self.cursor.rows
        stats["last_error"] = self._last_error
        return stats

    # -------------------------------------------------------------- #
    # Cursor persistence                                              #
    # -------------------------------------------------------------- #

    def _cursor_path(self) -> Optional[str]:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, f"{self.name}.cursor.json")

    def _persist_cursor(self) -> None:
        path = self._cursor_path()
        if path is None:
            return
        os.makedirs(self.state_dir, exist_ok=True)  # type: ignore[arg-type]
        text = json.dumps(self.cursor.as_dict(), sort_keys=True) + "\n"
        atomic_write_text(path, text, prefix=".cursor-")

    def _load_cursor(self) -> Optional[ChainPosition]:
        path = self._cursor_path()
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                return ChainPosition.from_dict(json.load(handle))
        except (OSError, ValueError, CatalogError):
            return None


class ReplicationTailer:
    """Tail a catalog directory's cubes into replicas on a background thread.

    The follower server hands queries to :meth:`view`; operators read
    :meth:`stats` (surfaced through the server's ``stats()`` as
    ``replica_lag``).  ``cubes=None`` tails every cube registered at start
    time.
    """

    def __init__(
        self,
        directory: str,
        cubes: Optional[Sequence[str]] = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        state_dir: Optional[str] = None,
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.poll_interval = poll_interval
        if cubes is None:
            cubes = sorted(CatalogManifest.load(self.directory).entries)
        self.followers: Dict[str, CubeFollower] = {
            name: CubeFollower(self.directory, name, state_dir=state_dir)
            for name in cubes
        }
        #: Guards mutation of the followers map (:meth:`promote` removes
        #: entries from the caller's thread while :meth:`_run` iterates).
        self._followers_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = False

    def _snapshot_followers(self) -> List[Tuple[str, CubeFollower]]:
        """A point-in-time copy of the followers map, safe to iterate.

        Every iteration over the map goes through here: :meth:`promote`
        deletes entries from the caller's thread, and a ``del`` landing
        mid-iteration in the background :meth:`_run` loop would raise
        ``RuntimeError`` and kill the tailer thread for every remaining
        follower.
        """
        with self._followers_lock:
            return list(self.followers.items())

    # -------------------------------------------------------------- #
    # Lifecycle                                                       #
    # -------------------------------------------------------------- #

    def start(self) -> "ReplicationTailer":
        """Bootstrap every follower, then poll on a daemon thread."""
        if self._started:
            return self
        for _, follower in self._snapshot_followers():
            if follower.replica is None:
                follower.poll()  # first poll bootstraps
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-replication-tailer", daemon=True
        )
        self._thread.start()
        self._started = True
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None
        self._started = False

    def __enter__(self) -> "ReplicationTailer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.is_set():
            for _, follower in self._snapshot_followers():
                if self._stop.is_set():
                    break
                try:
                    follower.poll()
                except Exception as exc:  # noqa: BLE001 — see note_poll_error
                    # A cube dropped mid-tail (ReplicationError), a chain
                    # file unlinked by a leader compaction between the
                    # manifest read and the load (FileNotFoundError/OSError),
                    # a corrupt manifest read (CatalogError): record it and
                    # keep tailing.  The daemon dying here would silently
                    # freeze every replica while their servers keep
                    # reporting the last cached lag.
                    follower.note_poll_error(exc)
            self._stop.wait(self.poll_interval)

    # -------------------------------------------------------------- #
    # Read surface                                                    #
    # -------------------------------------------------------------- #

    def _follower(self, name: str) -> CubeFollower:
        follower = self.followers.get(name)
        if follower is None:
            raise ReplicationError(
                f"tailer does not follow {name!r}; following "
                f"{sorted(self.followers)}"
            )
        return follower

    def view(self, name: str) -> CubeView:
        return self._follower(name).view()

    def lag(self, name: str) -> Dict[str, object]:
        return self._follower(name).lag()

    def stats(self) -> Dict[str, object]:
        return {
            name: follower.stats()
            for name, follower in self._snapshot_followers()
        }

    def caught_up(self) -> bool:
        """Whether every follower reported zero lag at its last poll."""
        return all(
            follower.lag().get("caught_up")
            for _, follower in self._snapshot_followers()
        )

    def wait_caught_up(self, timeout: float = 30.0) -> None:
        """Block until every follower reaches the chain tip (or raise)."""
        deadline = time.time() + timeout
        while True:
            if not self._started:
                for _, follower in self._snapshot_followers():
                    follower.poll()
            if self.caught_up():
                return
            if time.time() > deadline:
                lags = {
                    name: follower.lag()
                    for name, follower in self._snapshot_followers()
                    if not follower.lag().get("caught_up")
                }
                raise ReplicationError(
                    f"followers did not catch up within {timeout}s: {lags}"
                )
            time.sleep(self.poll_interval)

    # -------------------------------------------------------------- #
    # Promotion                                                       #
    # -------------------------------------------------------------- #

    def promote(
        self,
        name: str,
        holder_id: str,
        catalog: Optional[object] = None,
        ttl: float = lease_mod.DEFAULT_LEASE_TTL,
        catchup_timeout: float = DEFAULT_CATCHUP_TIMEOUT,
    ) -> Tuple["lease_mod.CubeLease", ServingCube]:
        """Take the cube's lease and hand its replica over as the new leader.

        Failover: acquire the lease (only possible once the old leader's
        lease expired — the acquisition bumps the epoch, fencing the old
        leader's stragglers), drain the journal until the replica reports
        ``caught_up``, stop following, and install the replica into
        ``catalog`` (a :class:`~repro.catalog.CubeCatalog`, if given) so
        the new leader serves writes without reloading a chain it already
        holds.

        A replica that cannot reach the chain tip within
        ``catchup_timeout`` seconds is **never installed**: the lease is
        released (the epoch bump stays — epochs are monotonic, so nothing
        is un-fenced) and :class:`~repro.core.errors.ReplicationError` is
        raised.  Installing a behind replica would let the new leader's
        next compaction snapshot the behind in-memory state and truncate
        the journal, permanently losing the rows that existed only in the
        journal tail.
        """
        follower = self._follower(name)
        acquired = lease_mod.acquire(self.directory, name, holder_id, ttl=ttl)
        try:
            deadline = time.time() + catchup_timeout
            while True:
                follower.poll()  # drain under our own (now-fenced) epoch
                if follower.lag().get("caught_up"):
                    break
                if time.time() > deadline:
                    raise ReplicationError(
                        f"cannot promote {name!r}: replica still behind the "
                        f"chain tip after {catchup_timeout}s "
                        f"(lag {follower.lag()!r})"
                    )
                time.sleep(self.poll_interval)
        except BaseException:
            # Not leader material: free the lease for the next candidate.
            lease_mod.release(self.directory, acquired)
            raise
        replica = follower.replica
        assert replica is not None
        with self._followers_lock:
            self.followers.pop(name, None)
        if catalog is not None:
            catalog.install(name, replica)  # type: ignore[attr-defined]
        return acquired, replica
