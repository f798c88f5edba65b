"""repro: a reproduction of "C-Cubing: Efficient Computation of Closed Cubes by
Aggregation-Based Checking" (Xin, Shao, Han, Liu — ICDE 2006).

The package provides:

* a fact-table substrate (:class:`repro.core.relation.Relation`),
* the aggregation-based closedness measure
  (:class:`repro.core.closedness.ClosednessState`),
* the paper's three closed-cubing algorithms — C-Cubing(MM), C-Cubing(Star),
  C-Cubing(StarArray) — together with their iceberg engines (MM-Cubing,
  Star-Cubing, StarArray) and the baselines they are compared against
  (BUC, QC-DFS, output-index checking, a brute-force oracle),
* synthetic and weather-like data generators matching the paper's workloads,
* closed-rule mining (Section 6.2) and partitioned computation (Section 6.3),
* a benchmark harness regenerating every figure of the evaluation section,
* a closure-query serving layer (:mod:`repro.query`) answering point, slice,
  and roll-up queries on any lattice cell from the closed cube alone, via
  per-dimension inverted indexes, an LRU cache, and partition-aware routing,
* a named-schema session API (:mod:`repro.session`) — the documented entry
  point: named dimensions and measures, raw values, a fluent build chain, and
  an algorithm auto-planner,
* incremental cube maintenance (:mod:`repro.incremental`) — append fact rows
  to a served cube and fold them in by aggregation-based checking (one
  lattice sweep over the new rows) instead of recomputing, with in-place
  index maintenance and targeted cache invalidation,
* snapshot persistence (:mod:`repro.storage.snapshot`) — a versioned on-disk
  format (``ServingCube.save`` / ``ServingCube.load``) so a cube survives
  process restarts and keeps appending afterwards,
* a multi-cube catalog (:mod:`repro.catalog`) — named serving cubes over one
  durable directory (per-cube snapshots + replayable append streams),
* concurrent serving (:mod:`repro.server`) — an asyncio front end with query
  batching, back-pressure, and O(delta)-publish appends (optionally computed
  in a process pool) that never block the read hot path; ``python -m
  repro.server`` exposes it over a line-JSON TCP protocol,
* a replicated serving tier (:mod:`repro.replication`) — per-cube
  single-writer leases held through the catalog manifest (epoch-fenced
  appends), a :class:`~repro.replication.ReplicationTailer` replaying the
  append journal into read-only follower replicas (``python -m
  repro.replication``), and a :class:`~repro.replication.ReplicaSet` client
  routing writes to the leader and load-balancing reads over followers.

Quick start::

    from repro import CubeSession

    rows = [("a1", "b1", "c1", "d1"),
            ("a1", "b1", "c1", "d3"),
            ("a1", "b2", "c2", "d2")]
    cube = (
        CubeSession.from_rows(rows, schema=["A", "B", "C", "D"])
        .closed(min_sup=2)
        .using("auto")
        .build()
    )
    print(cube.point({"A": "a1", "C": "c1"}).count)   # -> 2
    print(cube.explain({"A": "a1", "C": "c1"}).describe())

The positional facade (:func:`repro.core.api.compute_closed_cube` and
friends) remains fully supported as the layer the session delegates to; see
``docs/MIGRATION.md``.
"""

from .core.api import (
    DEFAULT_CLOSED_ALGORITHM,
    DEFAULT_ICEBERG_ALGORITHM,
    compute_closed_cube,
    compute_cube,
    open_query_engine,
    run_algorithm,
)
from .core.cube import CellStats, CubeResult
from .core.errors import ReproError
from .core.measures import (
    AvgMeasure,
    CountMeasure,
    IcebergCondition,
    MaxMeasure,
    MeasureSet,
    MinMeasure,
    SumMeasure,
)
from .core.relation import Relation, Schema
from .algorithms.base import (
    algorithm_capabilities,
    algorithms_supporting_closed,
    available_algorithms,
)
from .session import (
    Avg,
    Count,
    CubeSchema,
    CubeSession,
    CubeView,
    Explanation,
    Max,
    Min,
    NamedAnswer,
    Plan,
    RelationStats,
    ServingConfig,
    ServingCube,
    Sum,
    plan_algorithm,
)
from .catalog import CubeCatalog
from .concurrency import RWLock
from .incremental import (
    AppendReport,
    MergeReport,
    create_refresh_pool,
    merge_closed_cubes,
)
from .server import AsyncCubeServer, serve_tcp
from .replication import (
    CubeFollower,
    CubeLease,
    ReplicaSet,
    ReplicationTailer,
)
from .storage import load_snapshot, save_snapshot
from .query import (
    PartitionedQueryEngine,
    PointQuery,
    QueryAnswer,
    QueryEngine,
    RollupQuery,
    SliceQuery,
    open_partitioned_query_engine,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CubeSession",
    "ServingCube",
    "ServingConfig",
    "CubeView",
    "CubeCatalog",
    "AsyncCubeServer",
    "serve_tcp",
    "CubeFollower",
    "CubeLease",
    "ReplicaSet",
    "ReplicationTailer",
    "RWLock",
    "create_refresh_pool",
    "NamedAnswer",
    "Explanation",
    "CubeSchema",
    "AppendReport",
    "MergeReport",
    "merge_closed_cubes",
    "load_snapshot",
    "save_snapshot",
    "Plan",
    "RelationStats",
    "plan_algorithm",
    "Sum",
    "Min",
    "Max",
    "Avg",
    "Count",
    "Relation",
    "Schema",
    "CubeResult",
    "CellStats",
    "ReproError",
    "compute_cube",
    "compute_closed_cube",
    "run_algorithm",
    "open_query_engine",
    "open_partitioned_query_engine",
    "QueryEngine",
    "PartitionedQueryEngine",
    "QueryAnswer",
    "PointQuery",
    "SliceQuery",
    "RollupQuery",
    "available_algorithms",
    "algorithms_supporting_closed",
    "algorithm_capabilities",
    "DEFAULT_CLOSED_ALGORITHM",
    "DEFAULT_ICEBERG_ALGORITHM",
    "CountMeasure",
    "SumMeasure",
    "MinMeasure",
    "MaxMeasure",
    "AvgMeasure",
    "MeasureSet",
    "IcebergCondition",
]
