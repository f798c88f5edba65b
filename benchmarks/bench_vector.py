"""Vectorized-kernel benchmark gate: NumPy kernels vs the per-tuple paths.

Times the kernels that carry the columnar execution core
(:mod:`repro.vector.kernels`) against the per-tuple reference
implementations they replaced:

1. ``aggregate`` — measure folding over the tuple-id groups of a partition
   pass (the inner loop of the cubing algorithms): ``aggregate_measures``
   vs the sequential ``MeasureState`` create/merge fold.
2. ``grouped``   — the fused group-by + closedness + measure aggregation of
   the MultiWay dense subspace (lexsort + ``reduceat`` run reductions):
   ``grouped_closed_aggregate`` vs the per-tuple dict/state loop.
3. ``delta_support`` — the top-down lattice sweep over an append window
   (everything ``merge_closed_cubes`` knows about the appended rows):
   ``delta_support_sweep`` vs its dictionary-upsert reference, over the last
   1250 tuples of the relation projected to five dimensions.
4. ``repair``    — batched Lemma-3 closedness repair + measure merge (what
   ``merge_closed_cubes`` runs for candidates the base has support for but
   no cell): ``repair_pairs`` vs the per-candidate reconstruction, over
   pairs drawn from a real closed cube.

Before any timing is trusted the paths are verified value-identical on
every group and every pair (measure columns are integral-valued, so sums
are exact under both summation orders).

Gating is shaped by what vectorization can honestly buy.  The three
*reduction* kernels (``aggregate``, ``grouped``, ``delta_support``) emit one
small record per group, so NumPy wins big — they carry the ``--min-speedup``
gate (default 5x).  The ``repair`` kernel's contract requires one Python
cell tuple and one payload dict *per pair* on the way out (the merge upserts
them into the cube), so its ceiling is bounded by Python-object
materialisation no matter how the arithmetic is done — measured ~2x.  It is
therefore gated on correctness plus a non-regression floor
(``--repair-floor``); since the merge became rows-based it runs on about 1 %
of an append's candidates, and the append latency that actually matters is
measured end to end by ``benchmarks/e2e``.  When NumPy
is unavailable only correctness is gated: the fallback *is* the reference
path, and a pure-Python leg asserting a speedup of 1x would be a tautology
dressed as a gate.

    PYTHONPATH=src python benchmarks/bench_vector.py
    PYTHONPATH=src python benchmarks/bench_vector.py --tuples 30000 --pairs 6000

``--json PATH`` writes the measurements as a JSON report for
``check_gates.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from bench_helpers import write_report

from repro.algorithms.base import CubingOptions, get_algorithm
from repro.core.cell import sort_key
from repro.core.columns import get_backend
from repro.core.measures import (
    AvgMeasure,
    CountMeasure,
    MaxMeasure,
    MeasureSet,
    MinMeasure,
    SumMeasure,
)
from repro.core.relation import Relation
from repro.datagen.synthetic import SyntheticConfig, generate_relation
from repro.vector import kernels


def _build_relation(args) -> Relation:
    config = SyntheticConfig.uniform(
        num_tuples=args.tuples,
        num_dims=args.dims,
        cardinality=args.cardinality,
        skew=args.skew,
        seed=args.seed,
        num_measures=2,
    )
    relation = generate_relation(config)
    # Integral measure values keep both summation orders (sequential fold,
    # NumPy reductions) exact, so the equality checks below are meaningful.
    for index, column in enumerate(relation.measure_columns):
        relation.measure_columns[index] = [float(int(value)) for value in column]
    return relation


def _tid_groups(relation: Relation) -> List[List[int]]:
    """Tuple-id groups of a two-dimensional partition pass (BUC's level 2)."""
    groups: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    d0, d1 = relation.columns[0], relation.columns[1]
    for tid in range(relation.num_tuples):
        groups[(d0[tid], d1[tid])].append(tid)
    return [tids for _key, tids in sorted(groups.items())]


def _repair_pairs(relation: Relation, measures: MeasureSet, count: int):
    """Deterministic candidate pairs drawn from a real closed cube's cells."""
    result = get_algorithm(
        "qcdfs", CubingOptions(min_sup=1, closed=True, measures=measures)
    ).run(relation)
    cells = sorted(result.cube.items(), key=lambda item: sort_key(item[0]))
    pairs: List[kernels.RepairPair] = []
    for i in range(count):
        base_cell, base_stats = cells[(i * 13) % len(cells)]
        delta_cell, delta_stats = cells[(i * 7 + 3) % len(cells)]
        pairs.append(
            (
                base_cell,
                base_stats.count,
                dict(base_stats.measures),
                base_stats.rep_tid,
                delta_cell,
                delta_stats.count,
                dict(delta_stats.measures),
                delta_stats.rep_tid,
            )
        )
    return pairs


#: The append window the ``delta_support`` row sweeps: a bulk append of the
#: end-to-end benchmark's ``lifecycle`` workload.
SWEEP_ROWS = 1250
SWEEP_DIMS = 5


def _time(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tuples", type=int, default=120_000)
    parser.add_argument("--dims", type=int, default=6)
    parser.add_argument("--cardinality", type=int, default=12)
    parser.add_argument("--skew", type=float, default=0.3)
    parser.add_argument("--pairs", type=int, default=20_000,
                        help="repair candidate pairs per timed batch")
    parser.add_argument("--group-dims", type=int, default=3,
                        help="group-by key columns for the grouped kernel")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions; best-of is reported")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="fail unless the reduction kernels (aggregate, "
                             "grouped) beat the per-tuple path by this "
                             "factor (NumPy backend only)")
    parser.add_argument("--repair-floor", type=float, default=1.1,
                        help="non-regression floor for the repair batch "
                             "(bounded ~2x by per-pair Python output)")
    parser.add_argument("--json", type=str, default=None,
                        help="also write the results to this JSON file")
    args = parser.parse_args(argv)

    backend = get_backend()
    vectorized = backend.vectorized
    relation = _build_relation(args)
    measures = MeasureSet(
        [
            CountMeasure(),
            SumMeasure("m0"),
            MinMeasure("m0"),
            MaxMeasure("m1"),
            AvgMeasure("m1"),
        ]
    )

    groups = _tid_groups(relation)
    pairs = _repair_pairs(relation, measures, args.pairs)
    all_tids = list(range(relation.num_tuples))
    key_columns = [relation.columns[d] for d in range(args.group_dims)]

    # Correctness first: every dispatch path must agree with its per-tuple
    # reference on every group and every pair before a single timing counts.
    agg_fast = [kernels.aggregate_measures(measures, relation, g) for g in groups]
    agg_ref = [
        kernels.aggregate_measures_python(measures, relation, g) for g in groups
    ]
    grouped_fast = kernels.grouped_closed_aggregate(
        relation, all_tids, key_columns, measures, True
    )
    grouped_ref = kernels.grouped_closed_aggregate_python(
        relation, all_tids, key_columns, measures, True
    )
    repair_fast = kernels.repair_pairs(pairs, relation, measures)
    repair_ref = kernels.repair_pairs_python(pairs, relation, measures)
    swept = relation.project(range(min(SWEEP_DIMS, relation.num_dimensions)))
    window = (max(0, swept.num_tuples - SWEEP_ROWS), swept.num_tuples)
    sweep_fast = kernels.delta_support_sweep(swept, *window, measures)
    sweep_ref = kernels.delta_support_sweep_python(swept, *window, measures)
    fallback_matches = (
        agg_fast == agg_ref
        and grouped_fast == grouped_ref
        and repair_fast == repair_ref
        and sweep_fast == sweep_ref
    )

    agg_vector = _time(
        args.repeats,
        lambda: [kernels.aggregate_measures(measures, relation, g) for g in groups],
    )
    agg_python = _time(
        args.repeats,
        lambda: [
            kernels.aggregate_measures_python(measures, relation, g)
            for g in groups
        ],
    )
    grouped_vector = _time(
        args.repeats,
        lambda: kernels.grouped_closed_aggregate(
            relation, all_tids, key_columns, measures, True
        ),
    )
    grouped_python = _time(
        args.repeats,
        lambda: kernels.grouped_closed_aggregate_python(
            relation, all_tids, key_columns, measures, True
        ),
    )
    sweep_vector = _time(
        args.repeats,
        lambda: kernels.delta_support_sweep(swept, *window, measures),
    )
    sweep_python = _time(
        args.repeats,
        lambda: kernels.delta_support_sweep_python(swept, *window, measures),
    )
    repair_vector = _time(
        args.repeats, lambda: kernels.repair_pairs(pairs, relation, measures)
    )
    repair_python = _time(
        args.repeats, lambda: kernels.repair_pairs_python(pairs, relation, measures)
    )

    def _ratio(reference: float, vector: float) -> float:
        return reference / vector if vector > 0 else float("inf")

    aggregate_speedup = _ratio(agg_python, agg_vector)
    grouped_speedup = _ratio(grouped_python, grouped_vector)
    delta_support_speedup = _ratio(sweep_python, sweep_vector)
    repair_speedup = _ratio(repair_python, repair_vector)
    speedup = min(aggregate_speedup, grouped_speedup)
    passed = fallback_matches and (
        not vectorized
        or (
            speedup >= args.min_speedup
            and delta_support_speedup >= args.min_speedup
            and repair_speedup >= args.repair_floor
        )
    )

    print(f"backend: {backend.name} (vectorized={vectorized})")
    print(f"relation: {args.tuples} tuples x {args.dims} dims "
          f"(C={args.cardinality}), {len(groups)} groups, "
          f"{len(grouped_fast)} grouped keys, {len(sweep_fast.cells)} swept "
          f"cells, {len(pairs)} pairs")
    print(f"paths agree on every group, key, cell, and pair: {fallback_matches}")
    print(f"{'kernel':<14} {'per-tuple':>12} {'vectorized':>12} {'speedup':>9}")
    for name, ref, fast, ratio in (
        ("aggregate", agg_python, agg_vector, aggregate_speedup),
        ("grouped", grouped_python, grouped_vector, grouped_speedup),
        ("delta_support", sweep_python, sweep_vector, delta_support_speedup),
        ("repair", repair_python, repair_vector, repair_speedup),
    ):
        print(f"{name:<14} {ref * 1e3:>10.1f}ms {fast * 1e3:>10.1f}ms "
              f"{ratio:>8.1f}x")
    if vectorized:
        verdict = "PASS" if passed else "FAIL"
        print(f"{verdict}: reduction kernels {speedup:.1f}x, delta_support "
              f"{delta_support_speedup:.1f}x (need >= {args.min_speedup:.1f}x), "
              f"repair {repair_speedup:.1f}x (floor {args.repair_floor:.1f}x)")
    else:
        verdict = "PASS" if passed else "FAIL"
        print(f"{verdict}: pure-python backend — correctness gated only")

    write_report(
        args.json,
        "bench_vector",
        config={
            "tuples": args.tuples,
            "dims": args.dims,
            "cardinality": args.cardinality,
            "skew": args.skew,
            "pairs": args.pairs,
            "group_dims": args.group_dims,
            "repeats": args.repeats,
            "seed": args.seed,
            "backend": backend.name,
        },
        passed=passed,
        vectorized=vectorized,
        fallback_matches=fallback_matches,
        aggregate_speedup=aggregate_speedup,
        grouped_speedup=grouped_speedup,
        delta_support_speedup=delta_support_speedup,
        repair_speedup=repair_speedup,
        speedup=speedup,
        min_speedup=args.min_speedup,
        repair_floor=args.repair_floor,
        aggregate_vector_seconds=agg_vector,
        aggregate_python_seconds=agg_python,
        grouped_vector_seconds=grouped_vector,
        grouped_python_seconds=grouped_python,
        delta_support_vector_seconds=sweep_vector,
        delta_support_python_seconds=sweep_python,
        repair_vector_seconds=repair_vector,
        repair_python_seconds=repair_python,
    )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
