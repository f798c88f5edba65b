"""``python -m repro.server`` with span recorders around its public calls.

The traced run of the benchmark starts the server through this file.  It
edits nothing under ``src/``: :func:`install` wraps the public functions at
each layer boundary (patching the attribute the caller looks up, so a
``from x import f`` use site is patched where it is used) with recorders that
keep ``(name, start, end, parent, value)`` in memory.  The parent comes from a
``contextvars`` variable, which is per thread for the worker pools and per
task on the event loop.  Timestamps are ``time.perf_counter()`` —
``CLOCK_MONOTONIC``, which the harness process shares — so the harness can
cut spans by its own phase boundaries.

Spans are written (with the public ``stats()`` dumps) on SIGTERM, and on
SIGUSR1 without exiting — the harness asks for that before it SIGKILLs a
server, whose spans would otherwise die with it.  The harness imports this
module too, to trace the in-process ``CubeCatalog.create`` of its set-up.
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import functools
import importlib
import json
import os
import signal
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_CURRENT: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
    "e2e_span", default=None
)
#: Every span ever opened: ``[name, start, end, parent record, value]``.
_SPANS: List[list] = []
#: The traced process's server object, once started (for the stats dump).
_SERVERS: List[object] = []

Measure = Callable[[tuple, object], float]


def _first_len(args: tuple, _result: object) -> float:
    """Size of the first real argument (after ``self`` for methods)."""
    for arg in args:
        if isinstance(arg, (list, tuple)):
            return float(len(arg))
    return 0.0


def _result_number(_args: tuple, result: object) -> float:
    return float(result) if isinstance(result, (int, float)) else 0.0


#: ``(module, attribute path, span name, value recorded with the span)``.
TARGETS: Sequence[Tuple[str, str, str, Optional[Measure]]] = (
    # query path
    ("repro.server.server", "AsyncCubeServer.execute", "server.execute", None),
    ("repro.server.tcp", "serialize_result", "server_tcp.encode", None),
    ("repro.session.serving", "ServingCube.query_many", "session.query_many",
     _first_len),
    ("repro.query.engine", "QueryEngine.point", "query.engine", None),
    ("repro.query.engine", "QueryEngine.slice", "query.engine", None),
    ("repro.query.engine", "QueryEngine.rollup", "query.engine", None),
    ("repro.rollup.router", "RollupRouter.route_point", "rollup.route", None),
    ("repro.rollup.router", "RollupRouter.route_slice", "rollup.route", None),
    # append path
    ("repro.server.server", "AsyncCubeServer.append", "server.append", None),
    ("repro.server.server", "AsyncCubeServer.compact", "server.compact", None),
    ("repro.catalog.catalog", "CubeCatalog.append", "catalog.append", None),
    ("repro.catalog.catalog", "CubeCatalog.compact", "catalog.compact", None),
    ("repro.session.serving", "ServingCube.append", "session.append", None),
    ("repro.core.cube", "CubeResult.clone", "core.clone", None),
    ("repro.incremental.maintainer", "CubeMaintainer.append",
     "incremental.maintain", None),
    ("repro.incremental.merge", "merge_closed_cubes", "incremental.merge", None),
    ("repro.algorithms.base", "CubingAlgorithm.run", "algorithms.run", None),
    ("repro.vector.kernels", "repair_pairs", "vector.repair", _first_len),
    ("repro.vector.kernels", "grouped_closed_aggregate", "vector.aggregate", None),
    ("repro.vector.kernels", "aggregate_measures", "vector.aggregate", None),
    ("repro.query.engine", "QueryEngine.publish", "query.publish", None),
    ("repro.core.cube", "CubeResult.closure_index", "core.closure_index", None),
    ("repro.rollup.table", "RollupTable.merged_delta", "rollup.merged_delta", None),
    # persistence, build and restart
    ("repro.storage.snapshot", "save_delta_segment", "storage.save_segment",
     _result_number),
    ("repro.storage.snapshot", "save_snapshot", "storage.save_snapshot",
     _result_number),
    ("repro.storage.snapshot", "load_snapshot", "storage.load", None),
    ("repro.catalog.catalog", "CubeCatalog.create", "catalog.create", None),
    ("repro.session.session", "build_serving_state", "session.build", None),
    ("repro.session.serving", "build_serving_state", "session.build", None),
)


def _wrap(function: Callable, name: str, measure: Optional[Measure]) -> Callable:
    if asyncio.iscoroutinefunction(function):
        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, _CURRENT.get(), 0.0]
            _SPANS.append(record)
            token = _CURRENT.set(record)
            try:
                return await function(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                _CURRENT.reset(token)

        return traced_async

    @functools.wraps(function)
    def traced(*args, **kwargs):
        record = [name, time.perf_counter(), 0.0, _CURRENT.get(), 0.0]
        _SPANS.append(record)
        token = _CURRENT.set(record)
        try:
            result = function(*args, **kwargs)
            if measure is not None:
                record[4] = measure(args, result)
            return result
        finally:
            record[2] = time.perf_counter()
            _CURRENT.reset(token)

    return traced


def _wrap_open(function: Callable) -> Callable:
    """``CubeCatalog.open`` runs once per query batch; span only real loads."""
    traced = _wrap(function, "catalog.open", None)

    @functools.wraps(function)
    def maybe_traced(self, name, *args, **kwargs):
        if self.get_loaded(name) is not None:
            return function(self, name, *args, **kwargs)
        return traced(self, name, *args, **kwargs)

    return maybe_traced


def _wrap_start(function: Callable) -> Callable:
    @functools.wraps(function)
    async def start(self, *args, **kwargs):
        _SERVERS.append(self)
        return await function(self, *args, **kwargs)

    return start


def _patch(module_name: str, path: str, wrap: Callable[[Callable], Callable]) -> None:
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = owner.__dict__[attribute] if isinstance(owner, type) else None
    function = getattr(owner, attribute)
    wrapped = wrap(raw.__func__ if isinstance(raw, (classmethod, staticmethod))
                   else function)
    if isinstance(raw, classmethod):
        wrapped = classmethod(wrapped)
    elif isinstance(raw, staticmethod):
        wrapped = staticmethod(wrapped)
    setattr(owner, attribute, wrapped)


def install() -> None:
    """Wrap every target; a name a later commit has dropped is skipped."""
    for module_name, path, name, measure in TARGETS:
        try:
            _patch(module_name, path,
                   lambda function, n=name, m=measure: _wrap(function, n, m))
        except (ImportError, AttributeError, KeyError):
            print(f"traced_server: no {module_name}:{path} to trace", file=sys.stderr)
    _patch("repro.catalog.catalog", "CubeCatalog.open", _wrap_open)
    _patch("repro.server.server", "AsyncCubeServer.start", _wrap_start)


def _public_stats() -> Dict[str, Any]:
    """The server's and its loaded cubes' public ``stats()`` dumps."""
    dump: Dict[str, Any] = {}
    for server in _SERVERS:
        dump["server"] = server.stats()
        catalog = server.catalog
        cubes = {}
        for name in catalog.list():
            cube = catalog.get_loaded(name)
            if cube is not None:
                cubes[name] = cube.stats()
        dump["cubes"] = cubes
    return dump


def collect() -> Dict[str, Any]:
    """Finished spans as ``[name, start, end, parent index, value]`` rows."""
    finished = [record for record in list(_SPANS) if record[2] > 0.0]
    index_of = {id(record): index for index, record in enumerate(finished)}
    rows = [
        [name, start, end, index_of.get(id(parent), -1), value]
        for name, start, end, parent, value in finished
    ]
    return {"spans": rows, "stats": _public_stats()}


def dump(path: str) -> None:
    """Write the trace next to ``path`` and rename it in (then a marker)."""
    payload = collect()
    try:
        text = json.dumps(payload, default=str)
    except (TypeError, ValueError):  # a stats() shape JSON cannot carry
        payload["stats"] = {}
        text = json.dumps(payload)
    partial = path + ".partial"
    with open(partial, "w") as handle:
        handle.write(text)
    os.replace(partial, path)
    with open(path + ".done", "w"):
        pass


async def _serve(args: argparse.Namespace, trace_out: str) -> None:
    from repro.server.__main__ import run_server

    loop = asyncio.get_running_loop()
    serving = asyncio.ensure_future(run_server(args))
    loop.add_signal_handler(signal.SIGTERM, serving.cancel)
    loop.add_signal_handler(signal.SIGUSR1, dump, trace_out)
    try:
        await serving
    except asyncio.CancelledError:
        pass
    finally:
        dump(trace_out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.server.__main__ import build_parser

    own = argparse.ArgumentParser(add_help=False)
    own.add_argument("--trace-out", required=True)
    ours, rest = own.parse_known_args(argv)
    args = build_parser().parse_args(rest)
    install()
    asyncio.run(_serve(args, ours.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
