"""Exception hierarchy for the C-Cubing reproduction library.

Every error raised by the library derives from :class:`ReproError`, so callers
can guard an entire pipeline with a single ``except ReproError`` clause while
still being able to distinguish configuration problems from data problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """Raised when a relation schema is inconsistent or misused.

    Examples: duplicate dimension names, a tuple whose arity does not match
    the schema, or a reference to an unknown dimension.
    """


class EncodingError(ReproError):
    """Raised when dictionary encoding or decoding of dimension values fails."""


class MeasureError(ReproError):
    """Raised when a measure specification is invalid or cannot be aggregated."""


class AlgorithmError(ReproError):
    """Raised when a cubing algorithm is configured or invoked incorrectly."""


class UnknownAlgorithmError(AlgorithmError):
    """Raised when an algorithm name is not present in the registry."""


class ValidationError(ReproError):
    """Raised when a computed cube fails a correctness validation check."""


class WorkloadError(ReproError):
    """Raised when a benchmark workload or figure specification is invalid."""


class PartitionError(ReproError):
    """Raised by the external/partitioned computation driver (Section 6.3)."""


class IncrementalError(ReproError):
    """Raised when incremental cube maintenance (merge / append) cannot proceed.

    Examples: a relation and a cube of different dimensionality, a cube whose
    cells lack representative tuple ids, or a merge requested on a cube whose
    payload measures cannot be reconstructed into mergeable states.
    """


class SnapshotError(ReproError):
    """Raised when a cube snapshot cannot be written or read back.

    Examples: a file that does not start with the snapshot magic, a snapshot
    written by an unsupported format version, or a truncated payload.
    """


class CatalogError(ReproError):
    """Raised when a cube catalog operation cannot proceed.

    Examples: creating a cube under a name already registered, opening a name
    the manifest does not know, an invalid cube name, or a corrupt manifest
    file.
    """


class ServerError(ReproError):
    """Raised by the concurrent serving layer (:mod:`repro.server`).

    Examples: querying a cube the server's catalog does not hold, submitting
    to a server that is shutting down, or a malformed protocol request.
    """


class ServerTimeout(ServerError):
    """Raised when a served request exceeds the server's per-request timeout.

    The timeout covers the whole request — queueing, any per-cube lock
    wait, and execution — so a wedged maintenance task surfaces as a
    counted, answerable error instead of a connection hung forever.  Note
    that a timed-out *append* may still land: the merge thread cannot be
    interrupted, only abandoned.
    """


class ReplicationError(ReproError):
    """Raised by the replicated serving tier (:mod:`repro.replication`).

    Examples: acquiring a lease another process still holds, tailing a cube
    the catalog manifest does not know, or promoting a follower that cannot
    reach the chain tip.
    """


class LeaseFencedError(ReplicationError):
    """Raised when a write arrives under a lease that is no longer current.

    The single-writer contract: every durable append carries the writer's
    ``(holder_id, epoch)`` and the catalog checks it against the manifest
    *before* journaling.  A leader that paused (GC, network partition) past
    its lease expiry and was superseded by a higher epoch gets this error
    instead of silently forking the replication log.
    """


class QueryError(ReproError):
    """Raised when a closure query against a served cube is malformed.

    Examples: a query cell whose arity does not match the cube, a slice whose
    group-by dimensions overlap its fixed dimensions, or a query routed to a
    partitioned engine built over a different schema.
    """
