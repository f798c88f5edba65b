"""Self-test of the benchmark harness (``pytest benchmarks/e2e``; not tier-1).

The harness judges every later performance change, so its own arithmetic is
pinned here: the percentile rule, input determinism, the oracle against a real
cube, self-time folding, and a ``--smoke`` run of every workload both ways.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import pytest

import client
import inputs
import spans

sys.path.insert(0, client.SOURCE_ROOT)

RUN = [sys.executable, client.HERE + "/run.py"]


def test_percentile_is_exact_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    rng = random.Random(5)
    rng.shuffle(values)
    assert spans.percentile(values, 0.5) == 50.0
    assert spans.percentile(values, 0.99) == 99.0
    assert spans.percentile(values, 1.0) == 100.0
    assert spans.median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_percentile_rule_needs_ten_samples_beyond():
    assert spans.highest_percentile(19) is None
    assert spans.highest_percentile(20) == 0.5
    assert spans.highest_percentile(100) == 0.9
    assert spans.highest_percentile(999) == 0.95
    assert spans.highest_percentile(1000) == 0.99
    assert spans.highest_percentile(10_000) == 0.999
    thousand = [float(v) for v in range(1000)]
    assert spans.guarded_percentile(thousand, 0.99) == 989.0
    with pytest.raises(spans.SampleCountError):
        spans.guarded_percentile(thousand[:999], 0.99)
    with pytest.raises(spans.SampleCountError):
        spans.percentile([], 0.5)


def test_inputs_are_a_function_of_the_seed():
    def everything(seed):
        rng = random.Random(seed)
        return (
            inputs.make_rows(rng, 200),
            inputs.hot_pool(rng, 50),
            inputs.cold_points(rng, 50),
            inputs.slices(rng, 50),
            inputs.poisson_times(rng, 100.0, 2.0),
        )

    assert everything(11) == everything(11)
    assert everything(11) != everything(12)
    times = inputs.poisson_times(random.Random(3), 1000.0, 5.0)
    assert times == sorted(times) and 0.0 < times[0] and times[-1] < 5.0
    assert 4500 < len(times) < 5500
    assert inputs.fixed_times(0.4, 2.0, 0.2) == pytest.approx([0.2, 0.6, 1.0, 1.4, 1.8])
    assert len({json.dumps(s, sort_keys=True) for s in inputs.hot_pool(random.Random(1))}) == 200


def test_oracle_agrees_with_a_real_cube_and_catches_a_wrong_count():
    from repro import CubeSession
    from repro.server.tcp import serialize_result

    rng = random.Random(7)
    rows = inputs.make_rows(rng, 500)
    cube = CubeSession.from_rows(
        rows, schema={"dimensions": list(inputs.DIMENSIONS)}
    ).build()
    oracle = inputs.Oracle(rows)
    specs = (
        [{}] + inputs.cold_points(rng, 100, 1, 5)
        + inputs.slices(rng, 60)
    )
    for spec in specs:
        [result] = cube.query_many([spec])
        wire = json.loads(json.dumps(serialize_result(result)))
        assert oracle.check(spec, wire), spec

    extra = inputs.make_rows(rng, 40)
    cube.append(extra)
    stale = json.loads(json.dumps(serialize_result(cube.query_many([{}])[0])))
    assert not oracle.check({}, stale)  # the oracle has not seen the append
    oracle.extend(extra)
    for spec in specs:
        wire = json.loads(json.dumps(serialize_result(cube.query_many([spec])[0])))
        assert oracle.check(spec, wire), spec
    assert oracle.count({"d0": "no-such-value"}) is None


def test_self_time_subtracts_the_union_of_children():
    tree = [
        ("catalog.append", 0.0, 10.0, -1, 0.0),         # 10 - (1..9) = 2
        ("session.append", 1.0, 9.0, 0, 0.0),           # 8 - (2..4, 5..8) = 3
        ("core.clone", 2.0, 4.0, 1, 0.0),               # 2
        ("incremental.merge", 5.0, 8.0, 1, 0.0),        # 3 - (6..7) = 2
        ("helper.unnamed", 6.0, 7.0, 3, 0.0),           # 1, charged to its parent
        ("session.query_many", 20.0, 21.0, -1, 2.0),    # 1 - 0.5 = 0.5
        ("query.engine", 20.25, 20.75, 5, 0.0),         # 0.5
    ]
    assert spans.self_times(tree) == [2.0, 3.0, 2.0, 2.0, 1.0, 0.5, 0.5]
    # Overlapping children are counted once, and clipped to their parent.
    overlap = [("p", 0.0, 4.0, -1, 0.0), ("a", 1.0, 3.0, 0, 0.0), ("b", 2.0, 5.0, 0, 0.0)]
    assert spans.self_times(overlap)[0] == 1.0

    trace = spans.Trace([{"spans": tree[:5]}, {"spans": [
        ("session.query_many", 20.0, 21.0, -1, 2.0), ("query.engine", 20.25, 20.75, 0, 0.0),
    ]}])
    totals = trace.layer_seconds()
    assert totals == {
        "catalog.journal.self_ms": 2.0,
        "session.publish.self_ms": 5.0,     # session.append self + its clone
        "incremental.merge.self_ms": 3.0,   # merge self + the unnamed helper
        "session.query.self_ms": 0.5,
        "query.engine.self_ms": 0.5,
    }
    assert sum(totals.values()) == 11.0     # every root second is charged once
    assert trace.layer_seconds((15.0, 30.0)) == {
        "session.query.self_ms": 0.5, "query.engine.self_ms": 0.5,
    }
    assert trace.seconds("catalog.append", roots_only=True) == 10.0


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_every_workload(trace, tmp_path):
    started = time.perf_counter()
    out = tmp_path / "results.json"
    done = subprocess.run(
        [*RUN, "--smoke", "--seed", "5", "--trace", str(trace), "--json", str(out)],
        cwd=client.REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert time.perf_counter() - started < 45
    with open(client.REPO_ROOT + "/BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    names = {m["name"] for m in benchmark["per_layer" if trace else "end_to_end"]}
    results = json.loads(out.read_text())
    assert list(results) == [w["name"] for w in benchmark["workloads"]]
    last_line = json.loads(done.stdout.strip().splitlines()[-1])
    assert last_line == results["lifecycle"]
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 100
        assert set(result["metrics"]) == names
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
