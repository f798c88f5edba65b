"""``python -m repro.server``: serve a catalog directory over TCP.

Example::

    PYTHONPATH=src python -m repro.server /var/lib/cubes --port 7171

then, from anywhere::

    printf '%s\n' '{"op": "list"}' | nc 127.0.0.1 7171

See :mod:`repro.server.tcp` for the line-JSON protocol.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
from typing import Optional, Sequence

from ..catalog import CubeCatalog
from .server import AsyncCubeServer
from .tcp import serve_tcp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a cube catalog directory over a line-JSON TCP "
        "protocol (concurrent queries and appends).",
    )
    parser.add_argument("catalog", help="catalog directory (created if missing)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7171)
    parser.add_argument(
        "--query-workers", type=int, default=4,
        help="threads answering queries (default 4)",
    )
    parser.add_argument(
        "--maintenance-workers", type=int, default=2,
        help="threads driving appends and catalog I/O (default 2)",
    )
    parser.add_argument(
        "--refresh-processes", type=int, default=None,
        help="worker processes for partition-refresh cubing "
        "(default: compute in the maintenance threads)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="most query specs coalesced per engine call (default 64)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=1024,
        help="per-cube query queue bound (back-pressure, default 1024)",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=None,
        help="per-request deadline in seconds (queueing + lock wait + "
        "execution); exceeded requests answer {ok:false} with a "
        "ServerTimeout and are counted in stats() (default: no timeout)",
    )
    return parser


async def run_server(args: argparse.Namespace) -> None:
    catalog = CubeCatalog(args.catalog)
    server = AsyncCubeServer(
        catalog,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        query_workers=args.query_workers,
        maintenance_workers=args.maintenance_workers,
        refresh_processes=args.refresh_processes,
        request_timeout=args.request_timeout,
    )
    async with server:
        tcp = await serve_tcp(server, host=args.host, port=args.port)
        sockets = tcp.sockets or ()
        for sock in sockets:
            print(f"serving catalog {catalog.directory!r} "
                  f"({len(catalog)} cubes) on {sock.getsockname()}")
        try:
            await asyncio.Event().wait()  # run until cancelled
        finally:
            tcp.close()
            await tcp.wait_closed()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(run_server(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
