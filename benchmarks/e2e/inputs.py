"""Seeded inputs for the end-to-end benchmark, and the oracle that checks them.

Everything the server is sent derives from ``--seed`` here: the base relation,
the query specs of each workload, the appended rows, and the arrival
schedules.  Nothing in this file imports the program under test, so the
inputs are byte-identical on whichever commit the benchmark runs against.

The :class:`Oracle` is the correctness reference: brute-force group-by counts
over (base rows + acked appended rows) with plain dict counting.  The closed
cube is a *lossless* compression, so every served answer must equal these
counts exactly.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from collections import Counter
from itertools import combinations
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

CUBE = "traffic"
NUM_DIMS = 5
CARDINALITY = 8
SKEW = 0.5
DIMENSIONS: Tuple[str, ...] = tuple(f"d{dim}" for dim in range(NUM_DIMS))
VALUES: Tuple[str, ...] = tuple(f"v{value}" for value in range(CARDINALITY))

Row = Tuple[str, ...]
Spec = Dict[str, Any]


def zipf_cdf(size: int, skew: float) -> List[float]:
    """CDF of ``P(rank) ~ 1 / (rank + 1) ** skew`` over ``size`` ranks."""
    weights = [1.0 / ((rank + 1) ** skew) for rank in range(size)]
    total = sum(weights)
    cdf: List[float] = []
    cumulative = 0.0
    for weight in weights:
        cumulative += weight / total
        cdf.append(cumulative)
    cdf[-1] = 1.0
    return cdf


def make_rows(rng: random.Random, count: int) -> List[Row]:
    """``count`` fact rows: D=5, C=8, Zipf skew 0.5 on every dimension."""
    cdf = zipf_cdf(CARDINALITY, SKEW)
    draw = rng.random
    return [
        tuple(VALUES[bisect_left(cdf, draw())] for _ in range(NUM_DIMS))
        for _ in range(count)
    ]


def point_spec(rng: random.Random, min_dims: int, max_dims: int) -> Spec:
    """A point probe fixing ``min_dims..max_dims`` dimensions, values uniform."""
    dims = sorted(rng.sample(range(NUM_DIMS), rng.randint(min_dims, max_dims)))
    return {DIMENSIONS[dim]: rng.choice(VALUES) for dim in dims}


def hot_pool(rng: random.Random, distinct: int = 200) -> List[Spec]:
    """``distinct`` different 1-3-dim point specs.

    200 specs fit the server's 1024-entry answer caches, so after warm-up
    draws from this pool are answered without touching the engine.
    """
    pool: Dict[str, Spec] = {}
    while len(pool) < distinct:
        spec = point_spec(rng, 1, 3)
        pool.setdefault(json.dumps(spec, sort_keys=True), spec)
    return list(pool.values())


def zipf_draws(rng: random.Random, pool: Sequence, count: int) -> List:
    """``count`` Zipf(1) draws from ``pool``, most popular first."""
    cdf = zipf_cdf(len(pool), 1.0)
    return [pool[bisect_left(cdf, rng.random())] for _ in range(count)]


def cold_points(rng: random.Random, count: int, min_dims: int = 3,
                max_dims: int = 5) -> List[Spec]:
    """Uniform 3-5-dim probes over ~58k cells: far more than the caches hold."""
    return [point_spec(rng, min_dims, max_dims) for _ in range(count)]


def slice_shapes() -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """All 40 slice shapes: 2-3 fixed dimensions, 2 group-by dimensions.

    With the fixed values drawn uniformly that is ~7k distinct slices against
    a 1024-entry slice cache: nearly every one is a miss, so the slice cost is
    stationary over a run instead of decaying as a small key space warms up.
    Every shape answers with up to 64 rows at a similar cost, so the slices
    are one latency class and a tail percentile that falls inside it is
    steady.  The set is symmetric in the dimensions, so whichever grain the
    rollup advisor picks, the same share of shapes routes: the seed moves
    values and arrival times, not the mix.
    """
    shapes: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    for fixed_count in (2, 3):
        for fixed in combinations(range(NUM_DIMS), fixed_count):
            free = [dim for dim in range(NUM_DIMS) if dim not in fixed]
            shapes.extend((fixed, group) for group in combinations(free, 2))
    return shapes


def slices(rng: random.Random, count: int = 0) -> List[Spec]:
    """Multi-row reads with uniform fixed values: ``count`` uniform draws of
    the shape, or (``count`` 0) one slice of every shape."""
    shapes = slice_shapes()
    drawn = [rng.choice(shapes) for _ in range(count)] if count else shapes
    return [
        {
            "op": "slice",
            "fixed": {DIMENSIONS[dim]: rng.choice(VALUES) for dim in fixed},
            "group_by": [DIMENSIONS[dim] for dim in group],
        }
        for fixed, group in drawn
    ]


def is_slice(spec: Spec) -> bool:
    return spec.get("op") == "slice"


def query_line(spec: Spec) -> bytes:
    """One pre-encoded ``query`` request line of the line-JSON protocol."""
    return json.dumps({"op": "query", "cube": CUBE, "q": spec}).encode() + b"\n"


def append_line(rows: Sequence[Row]) -> bytes:
    request = {"op": "append", "cube": CUBE, "rows": [list(row) for row in rows]}
    return json.dumps(request).encode() + b"\n"


def compact_line(mode: str) -> bytes:
    return json.dumps({"op": "compact", "cube": CUBE, "mode": mode}).encode() + b"\n"


def poisson_times(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Arrival offsets of a Poisson process of ``rate``/s over ``duration`` s."""
    times: List[float] = []
    now = rng.expovariate(rate)
    while now < duration:
        times.append(now)
        now += rng.expovariate(rate)
    return times


def fixed_times(interval: float, duration: float, first: float) -> List[float]:
    """Fixed-interval arrival offsets in ``[first, duration)``."""
    times: List[float] = []
    now = first
    while now < duration:
        times.append(now)
        now += interval
    return times


class Oracle:
    """Brute-force group-by counts over every row the server has acked."""

    def __init__(self, rows: Sequence[Row]) -> None:
        self.rows: List[Row] = list(rows)
        self._tables: Dict[Tuple[int, ...], Counter] = {}

    def extend(self, rows: Sequence[Row]) -> None:
        """Account for one acked append."""
        added = [tuple(row) for row in rows]
        self.rows.extend(added)
        for dims, table in self._tables.items():
            table.update(self._project(added, dims))

    @staticmethod
    def _project(rows: Sequence[Row], dims: Tuple[int, ...]):
        if not dims:
            return (() for _ in rows)
        if len(dims) == 1:
            return ((row[dims[0]],) for row in rows)
        return map(itemgetter(*dims), rows)

    def _table(self, dims: Tuple[int, ...]) -> Counter:
        table = self._tables.get(dims)
        if table is None:
            table = self._tables[dims] = Counter(self._project(self.rows, dims))
        return table

    def count(self, cell: Spec) -> Optional[int]:
        """Rows matching ``{dimension: value}``; ``None`` when there are none."""
        dims = tuple(sorted(DIMENSIONS.index(name) for name in cell))
        key = tuple(cell[DIMENSIONS[dim]] for dim in dims)
        return self._table(dims).get(key)

    def cuboid(self, fixed: Spec,
               group_by: Sequence[str]) -> Dict[frozenset, int]:
        """The non-empty cells of the ``fixed + group_by`` cuboid, by coordinates."""
        names = sorted(set(fixed) | set(group_by), key=DIMENSIONS.index)
        dims = tuple(DIMENSIONS.index(name) for name in names)
        cells: Dict[frozenset, int] = {}
        for key, count in self._table(dims).items():
            coordinates = dict(zip(names, key))
            if all(coordinates[name] == value for name, value in fixed.items()):
                cells[frozenset(coordinates.items())] = count
        return cells

    def check(self, spec: Spec, result: object) -> bool:
        """Whether a decoded ``result`` is exactly the right answer to ``spec``."""
        if spec.get("op") == "slice":
            return self._check_cells(
                spec["fixed"], spec["group_by"], result
            )
        return (
            isinstance(result, dict)
            and result.get("count") == self.count(spec)
            and result.get("coordinates") == spec
        )

    def _check_cells(self, fixed: Spec, group_by: Sequence[str],
                     result: object) -> bool:
        if not isinstance(result, list):
            return False
        answered = {
            frozenset(answer["coordinates"].items()): answer["count"]
            for answer in result
        }
        return len(answered) == len(result) and answered == self.cuboid(
            fixed, group_by
        )
