"""Validate benchmark-gate JSON reports against their documented thresholds.

Every ``bench_*.py`` gate writes one JSON report (``--json``, assembled by
:func:`bench_helpers.write_report`).  This checker re-derives each gate's
verdict from the numbers in the file — it does not trust the ``passed`` flag,
it cross-checks it — so a gate script whose pass logic drifts from its
recorded thresholds fails loudly here.  Both CI jobs run it: the PR-size
``tests`` job over the reduced-size artifacts, and the scheduled
``bench-full`` job over the documented full-size runs.

Usage::

    python benchmarks/check_gates.py bench-artifacts/
    python benchmarks/check_gates.py a.json b.json --merge bench-trajectory.json
    python benchmarks/check_gates.py bench-artifacts/ \\
        --diff benchmarks/baselines/bench-trajectory.json --max-regression 0.4

``--merge`` additionally writes every validated report into one merged
trajectory file (keyed by benchmark name, stamped with the run time) — the
single artifact the scheduled job uploads, so the perf trajectory across
runs is one download per run instead of five.  ``--diff`` compares this
run's reports against a committed baseline trajectory and fails on any
gate that regressed past its allowance (see ``TRAJECTORY``) — absolute
thresholds catch falling off a cliff, the diff catches sliding downhill.
``--update-baseline`` rewrites the committed baseline from this run's
reports (after a deliberate perf change), but only when every gate passes
its absolute thresholds — a failing run can never become the new normal::

    python benchmarks/check_gates.py bench-artifacts/ \\
        --update-baseline benchmarks/baselines/bench-trajectory.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: Per-gate validation: report -> (ok, human-readable detail).
#: Thresholds ride inside each report (the gate's CLI defaults are the
#: documented values; reduced-size CI runs record their adjusted bars).
GateRule = Callable[[Dict], Tuple[bool, str]]


def _speedup_rule(report: Dict) -> Tuple[bool, str]:
    speedup = float(report["speedup"])
    floor = float(report["min_speedup"])
    return speedup >= floor, f"speedup {speedup:.2f}x (needs >= {floor:.2f}x)"


def _overhead_rule(report: Dict) -> Tuple[bool, str]:
    overhead = float(report["overhead"])
    ceiling = float(report["max_overhead"])
    return (
        overhead <= ceiling,
        f"overhead {overhead * 100:+.1f}% (allows <= {ceiling * 100:.0f}%)",
    )


def _snapshot_rule(report: Dict) -> Tuple[bool, str]:
    ok, detail = _speedup_rule(report)
    peak_ratio = float(report["peak_ratio"])
    peak_ceiling = float(report["max_peak_ratio"])
    peak_ok = peak_ratio <= peak_ceiling
    detail += f", peak {peak_ratio:.2f}x (allows <= {peak_ceiling:.2f}x)"
    return ok and peak_ok, detail


def _load_slo_rule(report: Dict) -> Tuple[bool, str]:
    p99_ms = float(report["query_p99_ms"])
    slo_ms = float(report["slo_p99_ms"])
    errors = int(report["errors"])
    return (
        p99_ms <= slo_ms and errors == 0,
        f"query p99 {p99_ms:.1f}ms (SLO <= {slo_ms:.0f}ms), "
        f"{errors} errors (allows 0)",
    )


def _vector_rule(report: Dict) -> Tuple[bool, str]:
    matches = bool(report["fallback_matches"])
    detail = f"paths agree: {matches}"
    if not bool(report["vectorized"]):
        # Pure-python backend: the fallback is the reference implementation,
        # so only correctness is gated (see the bench_vector docstring).
        return matches, detail + " (pure-python backend, correctness only)"
    ok, speed_detail = _speedup_rule(report)
    sweep = float(report["delta_support_speedup"])
    sweep_ok = sweep >= float(report["min_speedup"])
    repair = float(report["repair_speedup"])
    floor = float(report["repair_floor"])
    repair_ok = repair >= floor
    detail += (
        f", {speed_detail}, delta_support {sweep:.2f}x, "
        f"repair {repair:.2f}x (floor >= {floor:.2f}x)"
    )
    return matches and ok and sweep_ok and repair_ok, detail


def _rollup_router_rule(report: Dict) -> Tuple[bool, str]:
    ok, detail = _speedup_rule(report)
    verified = bool(report["verified"])
    stale = int(report["stale_reads"])
    grains = int(report["grains"])
    detail += (
        f", verified={verified}, stale_reads={stale} (allows 0), "
        f"{grains} grains (needs > 0)"
    )
    return ok and verified and stale == 0 and grains > 0, detail


def _replication_rule(report: Dict) -> Tuple[bool, str]:
    caught_up = bool(report["caught_up"])
    catchup = float(report["catchup_seconds"])
    bound = float(report["max_catchup_seconds"])
    mismatches = int(report["mismatches"])
    compared = int(report["compared"])
    errors = int(report["errors"])
    followers = int(report["config"]["followers"])
    return (
        caught_up and catchup <= bound and mismatches == 0 and compared > 0
        and errors == 0 and followers >= 2,
        f"catch-up {catchup:.2f}s (bound <= {bound:.0f}s, "
        f"caught_up={caught_up}), {mismatches}/{compared} read mismatches "
        f"(allows 0), {errors} errors (allows 0), "
        f"{followers} followers (needs >= 2)",
    )


GATES: Dict[str, GateRule] = {
    "bench_query_throughput": _speedup_rule,
    "bench_api_overhead": _overhead_rule,
    "bench_incremental": _speedup_rule,
    "bench_concurrent_serving": _speedup_rule,
    "bench_snapshot": _snapshot_rule,
    "bench_load_slo": _load_slo_rule,
    "bench_vector": _vector_rule,
    "bench_rollup_router": _rollup_router_rule,
    "bench_replication": _replication_rule,
}


#: What ``--diff`` compares per gate: ``(metric, direction, allowance)``.
#: ``higher`` — regression when current < baseline * (1 - allowance);
#: ``lower``  — regression when current > baseline * (1 + allowance);
#: ``delta``  — absolute points: regression when current > baseline + allowance.
#: ``allowance=None`` means use the CLI ``--max-regression``.  Latency gets a
#: generous fixed multiple (absolute milliseconds swing with runner hardware
#: and with where the append merge lands inside the window); API overhead is
#: a percentage near zero, so it compares in absolute points.
TRAJECTORY: Dict[str, Tuple[str, str, object]] = {
    "bench_query_throughput": ("speedup", "higher", None),
    "bench_api_overhead": ("overhead", "delta", 0.05),
    "bench_incremental": ("speedup", "higher", None),
    "bench_concurrent_serving": ("speedup", "higher", None),
    "bench_snapshot": ("speedup", "higher", None),
    "bench_load_slo": ("query_p99_ms", "lower", 3.0),
    "bench_vector": ("speedup", "higher", None),
    "bench_rollup_router": ("speedup", "higher", None),
    # Catch-up is near-instant on a healthy run; absolute seconds of slack
    # absorb runner jitter without letting a stuck tailer slide through.
    "bench_replication": ("catchup_seconds", "delta", 5.0),
}


def diff_trajectories(
    baseline: Dict, current: Dict, max_regression: float
) -> List[Tuple[str, bool, str]]:
    """Compare two ``bench-trajectory.json`` payloads gate by gate.

    A gate present in the baseline must still be present and must not have
    regressed past its allowance.  A gate the baseline has never seen passes
    with a note (the next baseline refresh adopts it).  Runs whose recorded
    ``config`` differs from the baseline's are skipped, not compared — a
    reduced-size PR run must not be judged against full-size numbers.
    """
    results: List[Tuple[str, bool, str]] = []
    baseline_gates = baseline.get("gates", {})
    current_gates = current.get("gates", {})
    for name, (metric, direction, allowance) in sorted(TRAJECTORY.items()):
        base = baseline_gates.get(name)
        now = current_gates.get(name)
        if base is None and now is None:
            continue
        if base is None:
            results.append((name, True, "new gate, no baseline yet"))
            continue
        if now is None:
            results.append((name, False, "gate present in baseline but "
                            "missing from this run"))
            continue
        if base.get("config") != now.get("config"):
            results.append((name, True, "config differs from baseline; "
                            "trajectory not comparable, skipped"))
            continue
        try:
            base_value = float(base[metric])
            now_value = float(now[metric])
        except (KeyError, TypeError, ValueError) as exc:
            results.append((name, False, f"malformed trajectory entry: "
                            f"{exc!r}"))
            continue
        slack = max_regression if allowance is None else float(allowance)
        if direction == "higher":
            ok = now_value >= base_value * (1.0 - slack)
            bound = f">= {base_value * (1.0 - slack):.3g}"
        elif direction == "lower":
            ok = now_value <= base_value * (1.0 + slack)
            bound = f"<= {base_value * (1.0 + slack):.3g}"
        else:
            ok = now_value <= base_value + slack
            bound = f"<= {base_value + slack:.3g}"
        results.append((name, ok, (
            f"{metric} {now_value:.3g} vs baseline {base_value:.3g} "
            f"(allows {bound})"
        )))
    return results


def collect_reports(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into gate-report JSON paths."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            found.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".json") and name != "bench-trajectory.json"
            )
        else:
            found.append(path)
    return found


def check_report(path: str) -> Tuple[str, bool, str]:
    """Validate one report file; returns (benchmark, ok, detail)."""
    with open(path) as handle:
        report = json.load(handle)
    benchmark = report.get("benchmark", "?")
    rule = GATES.get(benchmark)
    if rule is None:
        return benchmark, False, f"unknown gate {benchmark!r} in {path}"
    try:
        ok, detail = rule(report)
    except (KeyError, TypeError, ValueError) as exc:
        return benchmark, False, f"malformed report {path}: {exc!r}"
    recorded = report.get("passed")
    if recorded is not None and bool(recorded) != ok:
        return benchmark, False, (
            f"{detail}; recorded passed={recorded} disagrees with the "
            "thresholds in the same file"
        )
    return benchmark, ok, detail


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+",
                        help="gate report files and/or directories of them")
    parser.add_argument("--merge", type=str, default=None,
                        help="write all validated reports into one "
                        "trajectory JSON file")
    parser.add_argument("--diff", type=str, default=None,
                        help="compare this run against a committed baseline "
                        "bench-trajectory.json and fail on regression")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="default fractional regression allowance for "
                        "--diff (per-gate overrides in TRAJECTORY)")
    parser.add_argument("--update-baseline", type=str, default=None,
                        help="rewrite the committed baseline trajectory from "
                        "this run's reports; refused unless every gate "
                        "passes its absolute thresholds")
    args = parser.parse_args(argv)

    files = collect_reports(args.paths)
    if not files:
        print("no gate reports found", file=sys.stderr)
        return 1
    results: List[Tuple[str, bool, str]] = []
    merged: Dict[str, Dict] = {}
    for path in files:
        benchmark, ok, detail = check_report(path)
        results.append((benchmark, ok, detail))
        if benchmark in GATES:
            with open(path) as handle:
                merged[benchmark] = json.load(handle)

    width = max(len(name) for name, _, _ in results)
    for benchmark, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {benchmark:<{width}}  {detail}")
    all_ok = all(ok for _, ok, _ in results)

    if args.merge:
        trajectory = {
            "schema": 1,
            "generated_at": time.time(),
            "passed": all_ok,
            "gates": merged,
        }
        directory = os.path.dirname(os.path.abspath(args.merge))
        os.makedirs(directory, exist_ok=True)
        with open(args.merge, "w") as handle:
            json.dump(trajectory, handle, indent=2, sort_keys=True)
        print(f"wrote {args.merge} ({len(merged)} gates)")

    if args.diff:
        with open(args.diff) as handle:
            baseline = json.load(handle)
        current = {"gates": merged}
        print(f"\ntrajectory vs baseline {args.diff}:")
        diffs = diff_trajectories(baseline, current, args.max_regression)
        width = max((len(name) for name, _, _ in diffs), default=1)
        for name, ok, detail in diffs:
            print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
        all_ok = all_ok and all(ok for _, ok, _ in diffs)

    if args.update_baseline:
        if not all_ok:
            print("refusing to update the baseline from a failing run",
                  file=sys.stderr)
            return 1
        trajectory = {
            "schema": 1,
            "generated_at": time.time(),
            "passed": True,
            "gates": merged,
        }
        directory = os.path.dirname(os.path.abspath(args.update_baseline))
        os.makedirs(directory, exist_ok=True)
        with open(args.update_baseline, "w") as handle:
            json.dump(trajectory, handle, indent=2, sort_keys=True)
        print(f"baseline refreshed: {args.update_baseline} "
              f"({len(merged)} gates)")

    if not all_ok:
        print("gate validation failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} gates within their thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
