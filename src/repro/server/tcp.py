"""Line-JSON TCP protocol over an :class:`~repro.server.AsyncCubeServer`.

The wire format is one JSON object per line, both directions — trivially
scriptable (``nc``, a five-line client in any language) and the same shape
the catalog's append streams use.  Requests::

    {"op": "ping"}
    {"op": "list"}
    {"op": "stats"}
    {"op": "replica"}
    {"op": "describe", "cube": "sales"}
    {"op": "query",      "cube": "sales", "q": {"store": "nyc"}}
    {"op": "query_many", "cube": "sales", "q": [{...}, {"op": "rollup", ...}]}
    {"op": "append",     "cube": "sales", "rows": [[...], ...]}
    {"op": "create",     "cube": "sales", "rows": [...], "schema": {...}}
    {"op": "drop",       "cube": "sales"}
    {"op": "save",       "cube": "sales"}
    {"op": "compact",    "cube": "sales", "mode": "auto"}
    {"op": "rollups",    "cube": "sales"}
    {"op": "advise",     "cube": "sales", "budget_bytes": 4000000,
                         "top_k": 4, "apply": true}

An optional ``"id"`` is echoed back verbatim.  Responses are
``{"id": ..., "ok": true, "result": ...}`` or ``{"id": ..., "ok": false,
"error": {"type": ..., "message": ...}}`` — a request that overruns the
server's ``request_timeout`` answers ``ok: false`` with type
``ServerTimeout`` rather than stalling the connection; answers serialise as
``{"coordinates": {...}, "count": ..., "measures": {...}, "closure": ...,
"found": ...}``.  Requests on one connection are answered in order; open
many connections for client-side parallelism — the server batches across
connections anyway.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Union

from ..core.errors import ReproError, ServerError
from ..incremental.maintainer import AppendReport
from ..session.serving import BatchResult, NamedAnswer
from .server import AsyncCubeServer

#: Bytes per request line we are willing to buffer (64 MiB: bulk appends).
MAX_LINE_BYTES = 64 * 1024 * 1024


def serialize_answer(answer: NamedAnswer) -> Dict[str, object]:
    """A :class:`NamedAnswer` as plain JSON data."""
    return {
        "coordinates": dict(answer.coordinates),
        "count": answer.count,
        "measures": dict(answer.measures),
        "closure": None if answer.closure is None else dict(answer.closure),
        "found": answer.found,
    }


def serialize_result(result: BatchResult) -> Union[Dict[str, object], List[object]]:
    """One batch result: a single answer or a list of answers."""
    if isinstance(result, NamedAnswer):
        return serialize_answer(result)
    return [serialize_answer(answer) for answer in result]


def serialize_report(report: AppendReport) -> Dict[str, object]:
    """An :class:`AppendReport` as plain JSON data."""
    return {
        "appended_rows": report.appended_rows,
        "mode": report.mode,
        "algorithm": report.algorithm,
        "elapsed_seconds": report.elapsed_seconds,
        "invalidated_answers": report.invalidated_answers,
        "publish_seconds": report.publish_seconds,
    }


async def _dispatch_request(
    server: AsyncCubeServer, request: Dict[str, object]
) -> object:
    """Execute one decoded request; returns the JSON-shaped result."""
    op = request.get("op")
    if op == "ping":
        return "pong"
    if op == "list":
        return server.list_cubes()
    if op == "stats":
        return server.stats()
    if op == "replica":
        return server.replica_status()
    if op not in (
        "describe", "query", "query_many", "append", "create", "drop", "save",
        "compact", "rollups", "advise",
    ):
        raise ServerError(
            f"unknown op {op!r}; expected ping/list/stats/replica/describe/"
            "query/query_many/append/create/drop/save/compact/rollups/advise"
        )
    cube = request.get("cube")
    if not isinstance(cube, str):
        raise ServerError(f"op {op!r} needs a string 'cube' field")
    if op == "describe":
        # Via the server, not server.catalog: describe() scans the cube's
        # append journal on disk and must stay off the event loop.
        return await server.describe(cube)
    if op == "query":
        spec = request.get("q")
        if not isinstance(spec, dict):
            raise ServerError("'query' needs a 'q' object ({dimension: value})")
        return serialize_result(await server.execute(cube, spec))
    if op == "query_many":
        specs = request.get("q")
        if not isinstance(specs, list):
            raise ServerError("'query_many' needs a 'q' array of specs")
        results = await server.execute_many(cube, specs)
        return [serialize_result(result) for result in results]
    if op == "append":
        rows = request.get("rows")
        if not isinstance(rows, list):
            raise ServerError("'append' needs a 'rows' array")
        decoded = [tuple(row) if isinstance(row, list) else row for row in rows]
        return serialize_report(await server.append(cube, decoded))
    if op == "create":
        rows = request.get("rows")
        if not isinstance(rows, list):
            raise ServerError("'create' needs a 'rows' array")
        decoded = [tuple(row) if isinstance(row, list) else row for row in rows]
        return await server.create(cube, decoded, schema=request.get("schema"))
    if op == "drop":
        await server.drop(cube)
        return {"dropped": cube}
    if op == "compact":
        mode = request.get("mode", "auto")
        if not isinstance(mode, str):
            raise ServerError("'compact' takes an optional string 'mode'")
        return await server.compact(cube, mode)
    if op == "rollups":
        return await server.rollups(cube)
    if op == "advise":
        budget_bytes = request.get("budget_bytes")
        top_k = request.get("top_k")
        apply = request.get("apply", False)
        if budget_bytes is not None and not isinstance(budget_bytes, int):
            raise ServerError("'advise' takes an optional integer 'budget_bytes'")
        if top_k is not None and not isinstance(top_k, int):
            raise ServerError("'advise' takes an optional integer 'top_k'")
        if not isinstance(apply, bool):
            raise ServerError("'advise' takes an optional boolean 'apply'")
        return await server.advise(
            cube, budget_bytes=budget_bytes, top_k=top_k, apply=apply
        )
    await server.save(cube)
    return {"saved": cube}


async def handle_connection(
    server: AsyncCubeServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client connection until EOF (one JSON object per line)."""
    try:
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                await _respond(
                    writer,
                    None,
                    error=ServerError(
                        f"request line exceeds {MAX_LINE_BYTES} bytes"
                    ),
                )
                return
            if not line:
                return
            if not line.strip():
                continue
            request_id: object = None
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ServerError("a request must be a JSON object")
                request_id = request.get("id")
                result = await _dispatch_request(server, request)
            except Exception as exc:
                # Any request-induced failure — library errors, but also
                # e.g. a TypeError from an unhashable JSON value inside a
                # spec — must answer {"ok": false} and keep the connection
                # (and its pipelined requests) alive.  Cancellation is
                # BaseException and still propagates.
                if not isinstance(exc, (ReproError, ValueError)):
                    exc = ServerError(
                        f"request failed: {type(exc).__name__}: {exc}"
                    )
                await _respond(writer, request_id, error=exc)
            else:
                await _respond(writer, request_id, result=result)
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def _respond(
    writer: asyncio.StreamWriter,
    request_id: object,
    result: object = None,
    error: Optional[Exception] = None,
) -> None:
    if error is None:
        payload: Dict[str, object] = {"id": request_id, "ok": True, "result": result}
    else:
        payload = {
            "id": request_id,
            "ok": False,
            "error": {"type": type(error).__name__, "message": str(error)},
        }
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def serve_tcp(
    server: AsyncCubeServer, host: str = "127.0.0.1", port: int = 7171
) -> "asyncio.AbstractServer":
    """Start listening; returns the :class:`asyncio.Server` (caller closes)."""

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await handle_connection(server, reader, writer)

    return await asyncio.start_server(
        handler, host=host, port=port, limit=MAX_LINE_BYTES
    )
