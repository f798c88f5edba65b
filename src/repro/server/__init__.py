"""Concurrent serving: the asyncio front end over a cube catalog.

* :class:`AsyncCubeServer` (:mod:`repro.server.server`) — batched queries,
  back-pressure, O(delta)-publish appends that never block the read hot path.
  Runs as a ``"leader"`` (the default) or, wired to a
  :class:`~repro.replication.ReplicationTailer`, as a read-only
  ``"follower"`` that answers from pinned replica views and reports
  ``replica_lag`` in ``stats()``;
* :mod:`repro.server.tcp` — the line-JSON TCP protocol
  (``python -m repro.server CATALOG_DIR`` serves a leader,
  ``python -m repro.replication CATALOG_DIR`` a follower; the ``replica``
  verb reports follower cursors and lag).
"""

from .server import AsyncCubeServer
from .tcp import serve_tcp

__all__ = ["AsyncCubeServer", "serve_tcp"]
