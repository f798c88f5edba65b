"""The asyncio serving layer: concurrent queries and appends over a catalog.

:class:`AsyncCubeServer` fronts a :class:`~repro.catalog.CubeCatalog` with
one event loop and three execution domains, chosen so the read hot path
never waits on maintenance:

* **queries** flow through one bounded :class:`asyncio.Queue` per cube
  (back-pressure: a full queue makes ``await query(...)`` wait its turn
  instead of letting an unbounded backlog eat the process).  A per-cube
  dispatcher coalesces whatever is queued — up to ``max_batch`` specs — into
  a single :meth:`~repro.session.serving.ServingCube.query_many` call on the
  query thread pool, so a bursty client costs one executor hop per batch,
  not per query;
* **appends** serialise per cube (an :class:`asyncio.Lock` each) and run on
  the maintenance thread pool: the merge is evaluated against the live
  store and lands with one short O(delta) publish, so queries interleave
  with the append and only ever see a fully published cube version;
* **cubing compute** (the partition recomputes of a partitioned cube's
  refresh) optionally runs in a process pool (``refresh_processes``), taking
  that CPU burn out of the GIL the query threads share.

Appends to one cube apply in submission order; appends to different cubes
overlap.  Queries against cube A proceed while cube B (or A!) is mid-append
— zero torn reads is the contract the interleaving tests enforce.

**Roles.**  A server is a ``"leader"`` (the default: full read/write surface)
or a ``"follower"`` in the replicated tier (:mod:`repro.replication`): wired
to a :class:`~repro.replication.ReplicationTailer`, it answers queries from
the tailer's pinned replica views and *rejects* every mutating verb (append,
create, drop, save, compact, ``advise(apply=True)``) — the single-writer
lease lives with the leader.  Followers report their role and per-cube
``replica_lag`` in :meth:`~AsyncCubeServer.stats`.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..catalog import CubeCatalog
from ..core.errors import ServerError, ServerTimeout
from ..incremental.maintainer import AppendReport
from ..incremental.parallel import create_refresh_pool
from ..loadgen.histogram import LatencyHistogram
from ..session.serving import BatchResult, NamedAnswer, QuerySpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..replication.tailer import ReplicationTailer

#: Queue sentinel that tells a dispatcher to shut down.
_SHUTDOWN = object()


@dataclass
class _QueryItem:
    """One queued unit of query work: a batch of specs and its future."""

    specs: List[QuerySpec]
    future: "asyncio.Future[List[BatchResult]]"
    enqueued: float = 0.0


@dataclass
class _Channel:
    """Per-cube serving state: the queue, its dispatcher, the append lock."""

    queue: "asyncio.Queue[object]"
    dispatcher: "asyncio.Task[None]"
    append_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Deepest the queue has ever been — the saturation telltale stats()
    #: reports as ``pending_hwm`` (a rising mark under steady offered load
    #: means the dispatcher is falling behind).
    depth_hwm: int = 0


class AsyncCubeServer:
    """Serve many cubes concurrently: batched queries, non-blocking appends.

    Use as an async context manager (or call :meth:`start` / :meth:`stop`)::

        catalog = CubeCatalog(directory)
        async with AsyncCubeServer(catalog, refresh_processes=2) as server:
            answer = await server.query("sales", {"store": "nyc"})
            await server.append("sales", new_rows)   # queries keep flowing

    Parameters
    ----------
    catalog:
        The cube registry to serve.  Cubes are loaded lazily on first touch.
    max_pending:
        Bound of each per-cube query queue — the back-pressure knob.
    max_batch:
        Most query specs coalesced into one ``query_many`` executor call.
    query_workers:
        Threads answering queries.  Queries are index lookups (microseconds);
        a handful of threads saturates them.
    maintenance_workers:
        Threads driving appends and catalog I/O.  One append occupies a
        worker for its whole merge, so this bounds *concurrent* appends
        (appends to one cube serialise regardless).
    refresh_processes:
        When set, a ``spawn`` process pool of this size computes the
        partition recomputes of partitioned cubes, freeing the GIL for query
        threads (delta-merge appends are cheaper in process).
    refresh_executor:
        Alternatively, bring your own executor for the cubing compute (the
        tests inject a thread pool); mutually exclusive with
        ``refresh_processes``.
    request_timeout:
        When set, every query and append is bounded to this many seconds
        end to end (queueing + lock wait + execution).  Exceeding it
        raises :class:`~repro.core.errors.ServerTimeout` (answered as
        ``{"ok": false}`` over TCP), counted under the ``timeouts``
        counter in :meth:`stats` — so one wedged maintenance task cannot
        silently hang a connection forever.
    role:
        ``"leader"`` (default) serves the full surface; ``"follower"``
        serves reads from ``tailer``'s pinned replica views and rejects
        every mutating verb with :class:`~repro.core.errors.ServerError`.
    tailer:
        The :class:`~repro.replication.ReplicationTailer` a follower
        answers from (required for — and only legal with — the follower
        role).  The caller starts and stops it.
    """

    def __init__(
        self,
        catalog: CubeCatalog,
        max_pending: int = 1024,
        max_batch: int = 64,
        query_workers: int = 4,
        maintenance_workers: int = 2,
        refresh_processes: Optional[int] = None,
        refresh_executor: Optional[Executor] = None,
        request_timeout: Optional[float] = None,
        role: str = "leader",
        tailer: Optional["ReplicationTailer"] = None,
    ) -> None:
        if refresh_processes is not None and refresh_executor is not None:
            raise ServerError(
                "pass refresh_processes (server-owned pool) or "
                "refresh_executor (caller-owned), not both"
            )
        if request_timeout is not None and request_timeout <= 0:
            raise ServerError("request_timeout must be positive (seconds)")
        if role not in ("leader", "follower"):
            raise ServerError(
                f"unknown server role {role!r}; use 'leader' or 'follower'"
            )
        if (role == "follower") != (tailer is not None):
            raise ServerError(
                "the follower role requires a ReplicationTailer (and a "
                "leader must not carry one)"
            )
        self.role = role
        self.tailer = tailer
        self.catalog = catalog
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.request_timeout = request_timeout
        self._query_workers = query_workers
        self._maintenance_workers = maintenance_workers
        self._refresh_processes = refresh_processes
        self._refresh_executor = refresh_executor
        self._owns_refresh_pool = False
        self._query_pool: Optional[ThreadPoolExecutor] = None
        self._maintenance_pool: Optional[ThreadPoolExecutor] = None
        self._channels: Dict[str, _Channel] = {}
        self._started = False
        self._closing = False
        self._counters: Dict[str, int] = {
            "queries": 0,
            "batches": 0,
            "appends": 0,
            "appended_rows": 0,
            "compactions": 0,
            "errors": 0,
            "timeouts": 0,
        }
        # Server-side latency, per operation class, measured from enqueue
        # to answer on the event loop (so it brackets queueing + executor
        # time but not the network).  The load harness cross-checks its
        # client-side view against these.
        self._latency: Dict[str, LatencyHistogram] = {
            "query": LatencyHistogram(),
            "append": LatencyHistogram(),
        }

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #

    async def start(self) -> "AsyncCubeServer":
        """Create the execution pools; idempotent."""
        if self._started:
            return self
        self._query_pool = ThreadPoolExecutor(
            max_workers=self._query_workers, thread_name_prefix="repro-query"
        )
        self._maintenance_pool = ThreadPoolExecutor(
            max_workers=self._maintenance_workers,
            thread_name_prefix="repro-maint",
        )
        if self._refresh_processes is not None:
            self._refresh_executor = create_refresh_pool(self._refresh_processes)
            self._owns_refresh_pool = True
        self._started = True
        self._closing = False
        return self

    async def stop(self) -> None:
        """Drain dispatchers, fail queued work, and shut the pools down."""
        if not self._started:
            return
        self._closing = True
        for channel in list(self._channels.values()):
            await channel.queue.put(_SHUTDOWN)
        for channel in list(self._channels.values()):
            await channel.dispatcher
        self._channels.clear()
        if self._query_pool is not None:
            self._query_pool.shutdown(wait=True)
            self._query_pool = None
        if self._maintenance_pool is not None:
            self._maintenance_pool.shutdown(wait=True)
            self._maintenance_pool = None
        if self._owns_refresh_pool and self._refresh_executor is not None:
            self._refresh_executor.shutdown(wait=True)
            self._refresh_executor = None
            self._owns_refresh_pool = False
        self._started = False

    async def __aenter__(self) -> "AsyncCubeServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    def _require_running(self) -> None:
        if not self._started or self._closing:
            raise ServerError("the server is not running (start() it first)")

    def _require_writable(self, op: str) -> None:
        if self.role != "leader":
            raise ServerError(
                f"{op!r} is a write and this server is a read-only "
                "follower; route writes to the leader (the lease holder)"
            )

    # ------------------------------------------------------------------ #
    # Queries                                                             #
    # ------------------------------------------------------------------ #

    async def query(self, cube: str, spec: QuerySpec) -> NamedAnswer:
        """Answer one point spec (``{dimension: value}``) on ``cube``.

        Enqueued behind the cube's earlier queries; a full queue makes this
        await (back-pressure).  The answer reflects some published cube
        version current while the query was in flight — never a torn state.
        """
        results = await self.execute_many(cube, [spec])
        answer = results[0]
        if not isinstance(answer, NamedAnswer):  # pragma: no cover - guarded by spec
            raise ServerError("point spec produced a non-point result")
        return answer

    async def execute(self, cube: str, spec: QuerySpec) -> BatchResult:
        """Answer one op-spec (``{"op": "slice"/"rollup"/"point", ...}``)."""
        results = await self.execute_many(cube, [spec])
        return results[0]

    async def execute_many(
        self, cube: str, specs: Sequence[QuerySpec]
    ) -> List[BatchResult]:
        """Answer a batch of specs in order — the server's native unit.

        The whole batch enters the cube's queue as one item and is answered
        by (at most a few) ``query_many`` calls, so callers that naturally
        batch pay one round trip.
        """
        self._require_running()
        if not specs:
            return []
        loop = asyncio.get_running_loop()
        item = _QueryItem(
            specs=list(specs), future=loop.create_future(),
            enqueued=time.monotonic(),
        )
        channel = self._channel(cube)
        await channel.queue.put(item)
        depth = channel.queue.qsize()
        if depth > channel.depth_hwm:
            channel.depth_hwm = depth
        if self.request_timeout is None:
            return await item.future
        try:
            # wait_for cancels the future on timeout; the dispatcher's
            # ``cancelled()`` guards make the late answer a no-op.
            return await asyncio.wait_for(item.future, self.request_timeout)
        except asyncio.TimeoutError:
            self._counters["timeouts"] += 1
            raise ServerTimeout(
                f"query batch on {cube!r} timed out after "
                f"{self.request_timeout}s ({len(item.specs)} specs)"
            ) from None

    def _channel(self, cube: str) -> _Channel:
        channel = self._channels.get(cube)
        if channel is None:
            queue: "asyncio.Queue[object]" = asyncio.Queue(maxsize=self.max_pending)
            dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch(cube, queue)
            )
            channel = _Channel(queue=queue, dispatcher=dispatcher)
            self._channels[cube] = channel
        return channel

    async def _dispatch(self, cube: str, queue: "asyncio.Queue[object]") -> None:
        """Per-cube dispatcher: coalesce queued items, answer them batched."""
        loop = asyncio.get_running_loop()
        while True:
            first = await queue.get()
            if first is _SHUTDOWN:
                self._fail_pending(queue)
                return
            batch: List[_QueryItem] = [first]  # type: ignore[list-item]
            total = len(batch[0].specs)
            while total < self.max_batch:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is _SHUTDOWN:
                    # Serve what we already took, then shut down.
                    await queue.put(_SHUTDOWN)
                    break
                batch.append(item)  # type: ignore[arg-type]
                total += len(item.specs)  # type: ignore[union-attr]
            await self._answer_batch(loop, cube, batch)

    async def _answer_batch(
        self,
        loop: asyncio.AbstractEventLoop,
        cube: str,
        batch: List[_QueryItem],
    ) -> None:
        specs: List[QuerySpec] = []
        for item in batch:
            specs.extend(item.specs)
        try:
            results = await loop.run_in_executor(
                self._query_pool, partial(self._run_batch, cube, specs)
            )
        except Exception:
            # One bad spec must not fail its queue-mates: isolate per item.
            await self._answer_items_individually(loop, cube, batch)
            return
        self._counters["queries"] += len(specs)
        self._counters["batches"] += 1
        now = time.monotonic()
        cursor = 0
        for item in batch:
            share = results[cursor : cursor + len(item.specs)]
            cursor += len(item.specs)
            # Record service latency even for callers that timed out and
            # went away — their work was still done, and hiding it would
            # bias the server-side tail downward.
            self._latency["query"].record(
                max(0.0, now - item.enqueued), len(item.specs)
            )
            if not item.future.cancelled():
                item.future.set_result(share)

    async def _answer_items_individually(
        self,
        loop: asyncio.AbstractEventLoop,
        cube: str,
        batch: List[_QueryItem],
    ) -> None:
        for item in batch:
            try:
                results = await loop.run_in_executor(
                    self._query_pool, partial(self._run_batch, cube, item.specs)
                )
            except Exception as exc:
                self._counters["errors"] += 1
                if not item.future.cancelled():
                    item.future.set_exception(exc)
            else:
                self._counters["queries"] += len(item.specs)
                self._counters["batches"] += 1
                self._latency["query"].record(
                    max(0.0, time.monotonic() - item.enqueued), len(item.specs)
                )
                if not item.future.cancelled():
                    item.future.set_result(results)

    def _run_batch(self, cube: str, specs: List[QuerySpec]) -> List[BatchResult]:
        """Executed on a query worker thread: resolve the cube, answer all.

        A follower answers from the tailer's pinned replica view — the
        whole batch resolves at one published replica version and the
        leader's catalog instance is never loaded in this process.
        """
        if self.tailer is not None:
            return self.tailer.view(cube).query_many(specs)
        return self.catalog.open(cube).query_many(specs)

    def _fail_pending(self, queue: "asyncio.Queue[object]") -> None:
        while True:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is not _SHUTDOWN and not item.future.cancelled():  # type: ignore[union-attr]
                item.future.set_exception(  # type: ignore[union-attr]
                    ServerError("the server stopped before answering")
                )

    # ------------------------------------------------------------------ #
    # Maintenance                                                         #
    # ------------------------------------------------------------------ #

    async def append(self, cube: str, rows: Sequence[object]) -> AppendReport:
        """Append rows to ``cube`` without stalling anyone's queries.

        Per-cube appends serialise (submission order); the merge runs on
        the maintenance pool — and its cubing compute in the refresh process
        pool when one is configured — so concurrent queries, including
        queries on this very cube, keep answering against the published
        version until the short publish section.

        With ``request_timeout`` set, one deadline brackets the whole
        append — the wait for the cube's append lock *and* the merge — so
        an earlier wedged append surfaces here as a
        :class:`~repro.core.errors.ServerTimeout` instead of an unbounded
        lock wait.  A merge abandoned by its timeout keeps running on its
        worker thread and may still publish; the catalog's per-name gates
        keep that safe.
        """
        self._require_running()
        self._require_writable("append")
        loop = asyncio.get_running_loop()
        channel = self._channel(cube)
        started = time.monotonic()
        deadline = (
            None if self.request_timeout is None
            else started + self.request_timeout
        )
        if deadline is None:
            await channel.append_lock.acquire()
        else:
            try:
                await asyncio.wait_for(
                    channel.append_lock.acquire(), deadline - started
                )
            except asyncio.TimeoutError:
                self._counters["timeouts"] += 1
                raise ServerTimeout(
                    f"append to {cube!r} timed out after "
                    f"{self.request_timeout}s waiting for an earlier append"
                ) from None
        try:
            work = loop.run_in_executor(
                self._maintenance_pool,
                partial(
                    self.catalog.append,
                    cube,
                    rows,
                    executor=self._refresh_executor,
                ),
            )
            if deadline is None:
                report = await work
            else:
                try:
                    report = await asyncio.wait_for(
                        work, max(0.0, deadline - time.monotonic())
                    )
                except asyncio.TimeoutError:
                    self._counters["timeouts"] += 1
                    raise ServerTimeout(
                        f"append to {cube!r} timed out after "
                        f"{self.request_timeout}s mid-merge (the merge may "
                        "still publish in the background)"
                    ) from None
        finally:
            channel.append_lock.release()
        self._latency["append"].record(max(0.0, time.monotonic() - started))
        self._counters["appends"] += 1
        self._counters["appended_rows"] += report.appended_rows
        return report

    async def create(
        self,
        name: str,
        rows: Sequence[object],
        schema: Optional[object] = None,
    ) -> Dict[str, object]:
        """Build and register a new cube from raw rows; returns its metadata."""
        self._require_running()
        self._require_writable("create")
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._maintenance_pool,
            partial(self.catalog.create, name, rows, schema=schema),
        )
        return await self.describe(name)

    async def describe(self, name: str) -> Dict[str, object]:
        """One cube's catalog metadata, without blocking the event loop.

        :meth:`repro.catalog.CubeCatalog.describe` counts the journaled
        batches pending replay, which means opening and scanning the cube's
        append stream — real disk I/O that must not run on the loop thread.
        It runs on the maintenance pool instead, like every other
        catalog-touching operation.
        """
        self._require_running()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._maintenance_pool, partial(self.catalog.describe, name)
        )

    async def drop(self, name: str) -> None:
        """Unregister a cube and delete its files; its queue drains first."""
        self._require_running()
        self._require_writable("drop")
        channel = self._channels.pop(name, None)
        if channel is not None:
            await channel.queue.put(_SHUTDOWN)
            await channel.dispatcher
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._maintenance_pool, partial(self.catalog.drop, name)
        )

    async def save(self, name: Optional[str] = None) -> None:
        """Snapshot one cube (or all loaded cubes) through the catalog."""
        self._require_running()
        self._require_writable("save")
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._maintenance_pool, partial(self.catalog.save, name)
        )

    async def compact(self, name: str, mode: str = "auto") -> Dict[str, object]:
        """Fold a cube's append journal into durable snapshot state.

        Runs :meth:`repro.catalog.CubeCatalog.compact` on the maintenance
        pool, serialised against that cube's appends (the catalog's per-name
        gate); queries on every cube — including this one — keep flowing
        meanwhile.  Returns the catalog's compaction report.
        """
        self._require_running()
        self._require_writable("compact")
        loop = asyncio.get_running_loop()
        channel = self._channel(name)
        async with channel.append_lock:
            report = await loop.run_in_executor(
                self._maintenance_pool,
                partial(self.catalog.compact, name, mode),
            )
        if report.get("mode") != "none":
            self._counters["compactions"] += 1
        return report

    # ------------------------------------------------------------------ #
    # Adaptive rollups                                                    #
    # ------------------------------------------------------------------ #

    async def rollups(self, name: str) -> Dict[str, object]:
        """One cube's rollup-router statistics (``{"enabled": False}`` when
        no router is installed).  Loads the cube if needed, so it runs off
        the event loop like every catalog-touching operation."""
        self._require_running()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._query_pool,
            partial(self._rollup_stats, name),
        )

    def _rollup_stats(self, name: str) -> Dict[str, object]:
        return self.catalog.open(name).rollup_stats()

    async def advise(
        self,
        name: str,
        budget_bytes: Optional[int] = None,
        top_k: Optional[int] = None,
        apply: bool = False,
    ) -> Dict[str, object]:
        """Mine ``name``'s query log for rollup candidates; optionally apply.

        The dry run (default) estimates sizes without building anything and
        runs on the query pool.  ``apply=True`` materialises the chosen
        tables and installs the router — maintenance-class work, so it runs
        on the maintenance pool under the cube's append lock (an advisor
        snapshot racing an append would size tables for a superseded
        relation length).
        """
        self._require_running()
        loop = asyncio.get_running_loop()
        if apply:
            self._require_writable("advise(apply=True)")
            channel = self._channel(name)
            async with channel.append_lock:
                report = await loop.run_in_executor(
                    self._maintenance_pool,
                    partial(self._apply_rollups, name, budget_bytes, top_k),
                )
            return report
        return await loop.run_in_executor(
            self._query_pool,
            partial(self._advise_rollups, name, budget_bytes, top_k),
        )

    def _advise_rollups(
        self, name: str, budget_bytes: Optional[int], top_k: Optional[int]
    ) -> Dict[str, object]:
        report = self.catalog.open(name).advise_rollups(
            budget_bytes=budget_bytes, top_k=top_k
        )
        report["applied"] = False
        return report

    def _apply_rollups(
        self, name: str, budget_bytes: Optional[int], top_k: Optional[int]
    ) -> Dict[str, object]:
        report = self.catalog.open(name).enable_rollups(
            budget_bytes=budget_bytes, top_k=top_k
        )
        report["applied"] = True
        return report

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def list_cubes(self) -> List[str]:
        return self.catalog.list()

    def stats(self) -> Dict[str, object]:
        """Server-level counters plus per-cube queue depth and version.

        Runs on the event loop, so it must never touch disk: versions are
        reported only for cubes already in memory
        (:meth:`CubeCatalog.get_loaded`), never by triggering a snapshot
        load.
        """
        cubes: Dict[str, Dict[str, object]] = {}
        names = set(self._channels)
        if self.tailer is not None:
            # Followed cubes appear even before their first query, so an
            # operator watching lag sees every replica from the start.
            names.update(self.tailer.followers)
        for name in sorted(names):
            channel = self._channels.get(name)
            entry: Dict[str, object] = {
                "pending": 0 if channel is None else channel.queue.qsize(),
                "pending_hwm": 0 if channel is None else channel.depth_hwm,
                "appending": (
                    False if channel is None else channel.append_lock.locked()
                ),
            }
            if self.tailer is not None and name in self.tailer.followers:
                follower = self.tailer.followers[name]
                # Cached at the tailer's last poll — no disk from here.
                entry["replica_lag"] = follower.lag()
                entry["replica_rows"] = follower.cursor.rows
            loaded = self.catalog.get_loaded(name)
            if loaded is not None:
                entry["version"] = loaded.version
                entry["store"] = loaded.store_stats()
                rollups = loaded.rollup_stats()
                # A summary, not the full per-grain table map: stats() runs
                # on the event loop and feeds dashboards, not debuggers.
                entry["rollups"] = {
                    "enabled": rollups.get("enabled", False),
                    "grains": rollups.get("grains", 0),
                    "total_bytes": rollups.get("total_bytes", 0),
                    "routed_points": rollups.get("routed_points", 0),
                    "routed_slices": rollups.get("routed_slices", 0),
                    "fallbacks": rollups.get("fallbacks", 0),
                }
            cubes[name] = entry
        return {
            "running": self._started and not self._closing,
            "role": self.role,
            "max_pending": self.max_pending,
            "max_batch": self.max_batch,
            "request_timeout": self.request_timeout,
            "counters": dict(self._counters),
            "latency": {
                name: histogram.summary()
                for name, histogram in self._latency.items()
            },
            "compaction": self.catalog.compaction_stats(),
            "cubes": cubes,
        }

    def replica_status(self) -> Dict[str, object]:
        """The replication view of this server (the TCP ``replica`` verb).

        On a follower: the tailer's per-cube cursor, counters, and cached
        lag.  On a leader: just the role — leaders have no replicas to
        report on.  Never touches disk (the lag pair is cached at each
        tailer poll), so it is safe on the event loop.
        """
        if self.tailer is None:
            return {"role": self.role, "cubes": {}}
        return {"role": self.role, "cubes": self.tailer.stats()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncCubeServer(cubes={self.list_cubes()!r}, "
            f"running={self._started})"
        )
