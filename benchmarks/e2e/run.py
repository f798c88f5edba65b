"""The repo's one end-to-end + per-layer benchmark.  See README.md beside it.

    python3 benchmarks/e2e/run.py --seed 1                      # all four workloads
    python3 benchmarks/e2e/run.py --workload mixed_append --seed 7 --seconds 15
    python3 benchmarks/e2e/run.py --workload point_hot --seed 1 --trace 1

Per workload it prints every metric by name with its unit, verifies answers
against a brute-force oracle, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with ``--trace 1``.
It speaks only the public surface: ``CubeCatalog``, ``python -m repro.server``
and the line-JSON protocol (plus, traced, the functions ``traced_server.py``
names).  It claims no gain.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import random
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import client
import inputs
import spans
import traced_server
from client import Control, Generator, Recorder, ServerProcess
from inputs import CUBE, DIMENSIONS, VALUES, Oracle, Row, Spec

#: Scratch space inside the checkout (the driver allows writes nowhere else).
WORK_ROOT = ".bench_work"
WARMUP_SECONDS = 1.0
#: Full set-ups per served run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: Share of ``--seconds`` spent open loop; the rest is the closed loop.
OPEN_SHARE = 0.7
CLOSED_WINDOW = 16
APPEND_ROWS = 4
BULK_ROWS = 1250
BULK_APPENDS = 6
#: Idle-server appends a read-only workload ends with, so that its crash
#: recovery replays a journal and its append latency is the uncontended one.
PROBE_APPENDS = 10
VERIFIED_SAMPLE = 300
#: The tail percentile of the end-to-end ``query_p95_ms``.  p99 on the two
#: read-only workloads moved 30-50 % between identical runs on two cores, so
#: it is reported per layer (``client.query_p99_ms``) and not bounded.
TAIL = 0.95
#: ``query_p95_ms`` each workload is expected to stay under (reported, not
#: enforced: the regression bound on the metric itself does the enforcing).
LATENCY_LIMIT_MS = {
    "point_hot": 10.0, "scan_cold": 50.0, "mixed_append": 100.0, "lifecycle": 10.0,
}

Schedule = List[Tuple[float, str, bytes]]
LAYERS_OF_A_QUERY = (
    "server_tcp.encode.self_ms", "session.query.self_ms",
    "query.engine.self_ms", "rollup.route.self_ms",
)


@dataclass(frozen=True)
class Served:
    """A served workload: its read mix, offered rate, and writes beside it."""

    rate: float
    reads: Callable[[Run, random.Random, int], List[Spec]]
    append_rate: float = 0.0
    compactions: int = 0
    advise: bool = False


def _hot_reads(run: Run, rng: random.Random, count: int) -> List[Spec]:
    return inputs.zipf_draws(rng, run.hot, count)


def _cold_reads(run: Run, rng: random.Random, count: int) -> List[Spec]:
    """Uniform 3-5-dim points, and every tenth read a slice.

    At 10 % the slices are the top of the latency distribution with room to
    spare, so ``query_p95_ms`` is the median slice (plus queueing) and
    ``query_p50_ms`` a cold point; at 5 % the tail would sit on the edge
    between the two classes and jump between them from run to run.  The
    share is exact, not drawn, because a slice costs ~30 points: a few more
    or fewer of them in a closed-loop phase would move ``saturation_qps``.
    """
    sliced = [index % 10 == 9 for index in range(count)]
    multi = iter(inputs.slices(rng, sum(sliced)))
    return [
        next(multi) if flag else inputs.point_spec(rng, 3, 5) for flag in sliced
    ]


def _mixed_reads(run: Run, rng: random.Random, count: int) -> List[Spec]:
    """Half hot, half uniform 1-4-dim points."""
    hot = iter(inputs.zipf_draws(rng, run.hot, count))
    return [
        next(hot) if rng.random() < 0.5 else inputs.point_spec(rng, 1, 4)
        for _ in range(count)
    ]


SERVED = {
    "point_hot": Served(rate=1000.0, reads=_hot_reads),
    "scan_cold": Served(rate=250.0, reads=_cold_reads, advise=True),
    # Ten ``compact auto`` folds per run: the ninth finds eight segments
    # stacked and escalates to a full rewrite, so both fold modes are timed.
    "mixed_append": Served(
        rate=300.0, reads=_mixed_reads, append_rate=1.5, compactions=10
    ),
}
WORKLOADS = (*SERVED, "lifecycle")


def completed_per_second(recorder: Recorder) -> float:
    """Closed-loop throughput: answers that arrived inside the phase."""
    done = sum(
        1 for index in recorder.indexes("query")
        if recorder.ok[index] and recorder.done[index] <= recorder.ended
    )
    return done / (recorder.ended - recorder.started)


class Run:
    """One run of one workload: its inputs, processes, and measurements."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, stack: contextlib.ExitStack) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.stack = stack
        self.tuples = 5_000 if smoke else 100_000
        self.warmup_seconds = min(WARMUP_SECONDS, seconds / 4)
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
        stack.callback(shutil.rmtree, self.workdir, ignore_errors=True)
        self.hot = inputs.hot_pool(self.rng("hot"))
        self.oracle = Oracle(())
        #: Rows the server acked since the last ``build_catalog``.
        self.appended: List[Row] = []
        self.attempted = 0
        self.failed = 0
        #: One line per answer that differed from the oracle.
        self.wrong: List[str] = []
        #: Latencies of every verified window-1 query (see :meth:`ask`).
        self.asked: List[float] = []
        # Only the traced run reads these.
        self.traces: List[Dict[str, Any]] = []
        self.servers_spawned = 0
        self.disk_written = 0
        self.rows_acked = 0
        self.user_bytes = 0
        self.bytes_at_crash = (0, 0)
        if trace:
            traced_server.install()

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}/{self.workload}/{purpose}")

    # ------------------------------------------------------------------ #
    # Processes and directories                                           #
    # ------------------------------------------------------------------ #

    def spawn(self, catalog_dir: str) -> ServerProcess:
        trace_out = None
        if self.trace:
            self.servers_spawned += 1
            trace_out = os.path.join(
                self.workdir, f"trace-{self.servers_spawned}.json"
            )
        server = ServerProcess(catalog_dir, trace_out)
        self.stack.callback(server.kill)
        return server

    def retire(self, server: ServerProcess, crash: bool = False) -> None:
        """Stop a server (SIGKILL when ``crash``), keeping a traced one's spans."""
        self.disk_written += server.disk_write_bytes()
        if crash:
            if self.trace:
                server.dump_trace()
            server.kill()
        else:
            server.stop()
        if server.trace_out is not None:
            with open(server.trace_out) as handle:
                self.traces.append(json.load(handle))

    def build_catalog(self) -> Tuple[str, float]:
        """Generate the rows and ``create`` the cube; returns (dir, create s)."""
        from repro import CubeCatalog

        rows = inputs.make_rows(random.Random(f"{self.seed}/rows"), self.tuples)
        directory = tempfile.mkdtemp(prefix="catalog-", dir=self.workdir)
        started = time.perf_counter()
        CubeCatalog(directory).create(
            CUBE, rows, schema={"dimensions": list(DIMENSIONS)}
        )
        elapsed = time.perf_counter() - started
        self.oracle = Oracle(rows)
        self.appended = []
        return directory, elapsed

    # ------------------------------------------------------------------ #
    # Requests, verification, failure accounting                          #
    # ------------------------------------------------------------------ #

    def drive(self, server: ServerProcess, classes: Sequence[str],
              phases: Sequence[Dict[str, Any]]) -> List[Recorder]:
        """Run phases back to back over one set of connections."""
        async def go() -> List[Recorder]:
            async with Generator(server.port, classes) as generator:
                return [await generator.run(**phase) for phase in phases]

        return asyncio.run(go())

    def account(self, name: str, recorder: Recorder,
                payloads: Sequence[object] = ()) -> None:
        """Count a phase's requests, print its per-class tallies, and take the
        rows of its acked appends (``payloads``, in dispatch order of the
        non-query requests) into the oracle."""
        for klass in sorted(set(recorder.klass)):
            sent = len(recorder.indexes(klass))
            failed = recorder.failed(klass)
            self.attempted += sent
            self.failed += failed
            print(f"  phase {name:<7} {klass:<8} sent={sent} "
                  f"completed={recorder.completed(klass)} failed={failed}")
        if recorder.late():
            print(f"  phase {name:<7} gen_late_p99_ms="
                  f"{spans.percentile(recorder.late(), 0.99) * 1e3:.3f}")
        writes = [i for i, klass in enumerate(recorder.klass)
                  if klass in ("append", "compact")]
        for index, rows in zip(writes, payloads):
            if rows is not None and recorder.ok[index]:
                self.acked(rows)

    def check(self, spec: Spec, result: object) -> None:
        self.attempted += 1
        if not self.oracle.check(spec, result):
            self.wrong.append(f"wrong answer to {spec}: {str(result)[:200]}")

    def ask(self, control: Control, spec: Spec) -> float:
        """One verified window-1 query; returns its latency in seconds."""
        started = time.perf_counter()
        raw = control.call_raw(inputs.query_line(spec))
        elapsed = time.perf_counter() - started
        self.asked.append(elapsed)
        answer = json.loads(raw)
        self.check(spec, answer.get("result") if answer.get("ok") else None)
        return elapsed

    def append(self, control: Control, rows: Sequence[Row]) -> float:
        """One append, waited for; returns its latency in seconds."""
        started = time.perf_counter()
        raw = control.call_raw(inputs.append_line(rows))
        elapsed = time.perf_counter() - started
        self.attempted += 1
        if client.response_ok(raw):
            self.acked(rows)
        else:
            self.failed += 1
        return elapsed

    def acked(self, rows: Sequence[Row]) -> None:
        self.oracle.extend(rows)
        self.appended.extend(rows)
        self.rows_acked += len(rows)
        self.user_bytes += len(json.dumps([list(row) for row in rows]))

    def verify_durable(self, control: Control) -> None:
        """Every acked row is readable: the total, each 1-dim marginal, and a
        seeded sample of the appended rows' own cells must match the oracle.
        Counts are conserved, so a lost row cannot hide from the marginals."""
        self.ask(control, {})
        for name in DIMENSIONS:
            for value in VALUES:
                self.ask(control, {name: value})
        rows = self.rng("durable").sample(self.appended, min(60, len(self.appended)))
        for row in rows:
            self.ask(control, dict(zip(DIMENSIONS, row)))

    def tail_ms(self, latencies: Sequence[float], fraction: float = TAIL) -> float:
        """The tail percentile in ms; refuses a sample too small for it (in
        --smoke: falls back to the highest percentile the sample supports)."""
        if self.smoke:
            fraction = min(fraction, spans.highest_percentile(len(latencies)) or 0.5)
            return spans.percentile(latencies, fraction) * 1e3
        return spans.guarded_percentile(latencies, fraction) * 1e3

    # ------------------------------------------------------------------ #
    # Set-up and crash recovery, shared by every workload                 #
    # ------------------------------------------------------------------ #

    def first_answer(self, server: ServerProcess) -> Tuple[Control, float]:
        """Seconds from process spawn to the first *correct* answer."""
        control = Control(server.port)
        self.stack.callback(control.close)
        self.ask(control, {})
        return control, time.perf_counter() - server.spawned_at

    def recover(self, server: ServerProcess, catalog_dir: str,
                probes: Sequence[Spec] = (),
                burst: float = 0.0) -> Tuple[Dict[str, float], List[float]]:
        """SIGKILL -> restart on the journal tail -> full compaction -> restart.

        Each restart is timed from process spawn to the first correct answer
        and then checked for lost rows.  ``probes`` are verified window-1
        queries against the journal-restarted (cold) process, whose latencies
        are returned beside the metrics; ``burst`` seconds of closed-loop
        load go to the compacted one and are reported as ``saturation_qps``.
        """
        found: Dict[str, float] = {}
        self.retire(server, crash=True)
        self.bytes_at_crash = catalog_bytes(catalog_dir)
        server = self.spawn(catalog_dir)
        control, found["restart_journal_s"] = self.first_answer(server)
        self.verify_durable(control)
        probe_latencies = [self.ask(control, spec) for spec in probes]
        control.call({"op": "compact", "cube": CUBE, "mode": "full"})
        control.close()
        self.retire(server)
        server = self.spawn(catalog_dir)
        control, found["restart_compacted_s"] = self.first_answer(server)
        self.verify_durable(control)
        control.close()
        if burst:
            lines = [
                inputs.query_line(spec)
                for spec in inputs.cold_points(self.rng("burst"), 4000)
            ]
            [recorder] = self.drive(server, ["query"], [
                {"seconds": burst, "closed_lines": lines, "window": CLOSED_WINDOW}
            ])
            self.account("burst", recorder)
            found["saturation_qps"] = completed_per_second(recorder)
        self.retire(server)
        found["disk_bytes_per_tuple"] = (
            sum(catalog_bytes(catalog_dir)) / len(self.oracle.rows)
        )
        return found, probe_latencies

    # ------------------------------------------------------------------ #
    # Served workloads                                                    #
    # ------------------------------------------------------------------ #

    def reads_schedule(self, spec: Served, rng: random.Random, rate: float,
                       seconds: float) -> Tuple[Schedule, List[Spec]]:
        """A Poisson stream of the workload's reads, as request lines."""
        times = inputs.poisson_times(rng, rate, seconds)
        reads = spec.reads(self, rng, len(times))
        schedule = [
            (due, "slice" if inputs.is_slice(read) else "query", inputs.query_line(read))
            for due, read in zip(times, reads)
        ]
        return schedule, reads

    def writes_schedule(self, spec: Served, start: float,
                        end: float) -> Tuple[Schedule, List[object]]:
        """The appends and compactions of the whole run that are due in
        ``[start, end)``, as offsets from ``start``; and, in the same order,
        each one's rows (``None`` for a compaction)."""
        rng = self.rng("writes")
        entries: List[Tuple[float, str, bytes, object]] = []
        if spec.append_rate:
            interval = 1.0 / spec.append_rate
            for due in inputs.fixed_times(interval, self.seconds, interval / 2):
                rows = inputs.make_rows(rng, APPEND_ROWS)
                entries.append((due, "append", inputs.append_line(rows), rows))
        for fold in range(spec.compactions):
            due = (fold + 0.5) * self.seconds / spec.compactions
            entries.append((due, "compact", inputs.compact_line("auto"), None))
        due_now = sorted(
            (due - start, klass, line, payload)
            for due, klass, line, payload in entries if start <= due < end
        )
        return [entry[:3] for entry in due_now], [entry[3] for entry in due_now]

    def closed_loop_lines(self, spec: Served, purpose: str) -> List[bytes]:
        """More of the workload's reads than a closed-loop phase gets through."""
        return [
            inputs.query_line(read)
            for read in spec.reads(self, self.rng(purpose), 20_000)
        ]

    def set_up_served(self, spec: Served) -> Tuple[ServerProcess, str, float, float]:
        """Build, spawn, first answer, warm-up (and ``advise``); all timed."""
        started = time.perf_counter()
        catalog_dir, create_seconds = self.build_catalog()
        server = self.spawn(catalog_dir)
        control, _ = self.first_answer(server)
        warmup, _ = self.reads_schedule(
            spec, self.rng("warmup"), spec.rate / 2, self.warmup_seconds
        )
        self.drive(server, ["query", "slice"],
                   [{"seconds": self.warmup_seconds, "schedule": warmup}])
        if spec.advise:
            # The advisor mines the shape log.  One slice of every shape makes
            # that log the same on every seed, so the seed cannot change which
            # kind of grain gets built (and with it the whole cost mix).
            for read in inputs.slices(self.rng("advise")):
                self.ask(control, read)
            control.call({"op": "advise", "cube": CUBE, "top_k": 1, "apply": True})
        control.close()
        return server, catalog_dir, time.perf_counter() - started, create_seconds

    def run_served(self, spec: Served) -> Dict[str, float]:
        setups: List[float] = []
        creates: List[float] = []
        server, catalog_dir = None, ""
        for _ in range(1 if self.trace or self.smoke else SETUP_REPEATS):
            if server is not None:
                self.retire(server)
                shutil.rmtree(catalog_dir)
            server, catalog_dir, setup_seconds, create_seconds = self.set_up_served(spec)
            setups.append(setup_seconds)
            creates.append(create_seconds)
        assert server is not None
        # Untraced: 70 % open loop, 30 % closed loop.  Traced: half, a quarter,
        # and a quarter for a window-1 closed loop in which nothing queues, so
        # that layer self times must add up to what the client saw.
        open_seconds = self.seconds * (0.5 if self.trace else OPEN_SHARE)
        closed_seconds = self.seconds * 0.25 if self.trace else self.seconds - open_seconds
        reads_due, reads = self.reads_schedule(
            spec, self.rng("open"), spec.rate, open_seconds
        )
        writes_due, payloads = self.writes_schedule(spec, 0.0, open_seconds)
        schedule = sorted(reads_due + writes_due)
        # Recorder indexes follow dispatch order, i.e. the sorted schedule.
        positions = [i for i, entry in enumerate(schedule)
                     if entry[1] in ("query", "slice")]
        keep = set(self.rng("verify").sample(
            positions, min(VERIFIED_SAMPLE, len(positions))
        ))
        read_at = dict(zip(positions, reads))
        closed_lines = self.closed_loop_lines(spec, "closed")
        closed_writes, closed_payloads = self.writes_schedule(
            spec, open_seconds, open_seconds + closed_seconds
        )
        phases: List[Dict[str, Any]] = [
            {"seconds": open_seconds, "schedule": schedule, "keep": keep},
            {"seconds": closed_seconds, "schedule": closed_writes,
             "closed_lines": closed_lines, "window": CLOSED_WINDOW},
        ]
        if self.trace:
            # Its own lines: replaying the closed loop's would find them cached.
            phases.append({"seconds": self.seconds * 0.25, "window": 1, "connections": 1,
                           "closed_lines": self.closed_loop_lines(spec, "single")})
        classes = ["query", "slice"] + (
            ["append", "compact"] if spec.append_rate else []
        )
        opened, closed, *alone = self.drive(server, classes, phases)
        self.account("open", opened, payloads)
        self.account("closed", closed, closed_payloads)
        for recorder in alone:
            self.account("single", recorder)

        control = Control(server.port)
        self.stack.callback(control.close)
        if spec.append_rate:
            # Reads raced the appends, so re-ask the sampled cells now that
            # the server has quiesced.
            for index in sorted(keep):
                self.ask(control, read_at[index])
            appends = opened.latencies("append") + closed.latencies("append")
        else:
            for index in sorted(keep):
                answer = json.loads(opened.kept[index])
                self.check(read_at[index], answer.get("result"))
            rng = self.rng("probe-appends")
            appends = [
                self.append(control, inputs.make_rows(rng, APPEND_ROWS))
                for _ in range(PROBE_APPENDS)
            ]
        peak_rss = server.peak_rss_mb()
        stats = control.call({"op": "stats"}) if self.trace else {}
        rollups = control.call({"op": "rollups", "cube": CUBE})
        if rollups.get("enabled"):
            print("  rollups: " + " ".join(
                f"{key}={value}" for key, value in rollups.items()
                if not isinstance(value, dict)
            ))
        control.close()
        found, _ = self.recover(server, catalog_dir)
        if self.trace:
            metrics = self.layer_metrics(
                alone[0].latencies("query"), (alone[0].started, alone[0].ended),
                (opened.started, opened.ended), appends,
            )
            self.client_metrics(metrics, [opened, closed, *alone], stats, rollups)
            self.trace_overhead(metrics, catalog_dir, phases[-1])
            return metrics

        reads_latency = opened.latencies("query") + opened.latencies("slice")
        late_p99 = spans.percentile(opened.late(), 0.99) * 1e3
        print(f"  read samples={len(reads_latency)} append samples={len(appends)}")
        for klass in ("query", "slice"):
            latencies = opened.latencies(klass)
            if latencies:
                print(f"  {klass} latency ms (n={len(latencies)}): " + " ".join(
                    f"p{fraction * 100:g}={spans.percentile(latencies, fraction) * 1e3:.3f}"
                    for fraction in (0.25, *spans.PERCENTILES)
                ))
        if late_p99 > 0.5:
            # Reported, not failed: latencies run from the scheduled time, so
            # a late generator inflated them.  Rerun rather than read them.
            print(f"  ! invalid, not slow: the generator ran {late_p99:.3f} ms "
                  "late at p99")
        return {
            "setup_s": spans.median(setups),
            "build_tuples_per_s": self.tuples / spans.median(creates),
            "query_p50_ms": spans.median(reads_latency) * 1e3,
            "query_p95_ms": self.tail_ms(reads_latency),
            "saturation_qps": completed_per_second(closed),
            "append_p50_ms": spans.median(appends) * 1e3,
            "peak_rss_mb": peak_rss,
            **found,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def run_lifecycle(self) -> Dict[str, float]:
        """Cycles of create -> bulk appends -> SIGKILL -> recover; medians."""
        cycles = 1 if self.smoke else max(1, round(self.seconds / 5.0))
        bulk_rows = 100 if self.smoke else BULK_ROWS
        probes_per_cycle = 40 if self.smoke else -(-1050 // cycles)
        samples: Dict[str, List[float]] = {}
        appends: List[float] = []
        probes: List[float] = []
        rng = self.rng("bulk")
        for _cycle in range(cycles):
            started = time.perf_counter()
            catalog_dir, create_seconds = self.build_catalog()
            server = self.spawn(catalog_dir)
            control, _ = self.first_answer(server)
            samples.setdefault("setup_s", []).append(time.perf_counter() - started)
            samples.setdefault("create_s", []).append(create_seconds)
            for _ in range(BULK_APPENDS):
                appends.append(self.append(control, inputs.make_rows(rng, bulk_rows)))
            samples.setdefault("peak_rss_mb", []).append(server.peak_rss_mb())
            control.close()
            # Half the probes are cold cells, half the appended rows' own.
            cold = inputs.cold_points(rng, probes_per_cycle // 2)
            own = [
                dict(zip(DIMENSIONS, row))
                for row in rng.sample(self.appended, probes_per_cycle - len(cold))
            ]
            # The traced run skips the burst: every query it sees is then a
            # window-1 ask, which is what the layer sums are checked against.
            found, probe_latencies = self.recover(
                server, catalog_dir, cold + own, 0.0 if self.trace else 1.0
            )
            probes.extend(probe_latencies)
            for name, value in found.items():
                samples.setdefault(name, []).append(value)
            shutil.rmtree(catalog_dir)
        if self.trace:
            # No open-loop phase here, so nothing to report on queueing.
            metrics = self.layer_metrics(
                self.asked, spans.EVERYTHING, (0.0, 0.0), appends
            )
            metrics["client.query_p99_ms"] = self.tail_ms(self.asked, 0.99)
            return metrics
        print(f"  cycles={cycles} bulk appends={len(appends)} probes={len(probes)}")
        medians = {name: spans.median(values) for name, values in samples.items()}
        medians["build_tuples_per_s"] = self.tuples / medians.pop("create_s")
        medians["query_p50_ms"] = spans.median(probes) * 1e3
        medians["query_p95_ms"] = self.tail_ms(probes)
        medians["append_p50_ms"] = spans.median(appends) * 1e3
        return medians

    # ------------------------------------------------------------------ #
    # The traced run                                                      #
    # ------------------------------------------------------------------ #

    def layer_metrics(self, alone: Sequence[float], window: spans.Window,
                      open_window: spans.Window,
                      appends: Sequence[float]) -> Dict[str, float]:
        """Fold the spans into the per-layer metrics of ``BENCHMARK.json``.

        Query-path self times are per query over ``window``, in which the
        client sent the window-1 latencies ``alone``; waiting and batching
        come from ``open_window``, where requests do queue; append-path self
        times are per append, compaction ones per fold, build and restart
        ones per occurrence, all over the whole run.
        """
        self.traces.append(traced_server.collect())  # this process's create()
        trace = spans.Trace(self.traces)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        executed = trace.select("server.execute", window)
        queued = trace.select("server.execute", open_window)
        batches = trace.select("session.query_many", open_window)
        appended = trace.select("server.append")
        folds = trace.select("catalog.compact")
        per = {
            "query": 1e3 / max(1, len(executed)),
            "append": 1e3 / max(1, len(appended)),
            "fold": 1e3 / max(1, len(folds)),
            "build": 1.0 / max(1, len(trace.select("catalog.create"))),
            "restart": 1.0 / max(1, len(trace.select("catalog.open"))),
        }
        in_window = trace.layer_seconds(window)
        whole = trace.layer_seconds()
        for context, table in spans.LAYER_OF.items():
            for layer in set(table.values()):
                scale = "fold" if layer.startswith("storage.compact") else context
                total = in_window if context == "query" else whole
                metrics[layer] = total.get(layer, 0.0) * per[scale]

        if executed:
            # What the client saw that the server spent neither in execute()
            # nor serialising: the wire, JSON both ways, both event loops.
            mean = sum(alone) / len(alone) * 1e3
            metrics["server_tcp.query.self_ms"] = mean - (
                trace.seconds("server.execute", window)
                + trace.seconds("server_tcp.encode", window)
            ) * per["query"]
            waited = (
                trace.seconds("server.execute", window)
                - trace.seconds("session.query_many", window)
            ) * per["query"]
            parts = [("server.wait", waited)] + [
                (layer, metrics[layer])
                for layer in ("server_tcp.query.self_ms", *LAYERS_OF_A_QUERY)
            ]
            print(f"  window-1 query: client mean {mean:.4f} ms = " + " + ".join(
                f"{name.replace('.self_ms', '')} {value:.4f}" for name, value in parts
            ))
        if queued and batches:
            metrics["server.query.wait_ms"] = (
                trace.seconds("server.execute", open_window)
                - trace.seconds("session.query_many", open_window)
            ) / len(queued) * 1e3
            metrics["server.batch_size"] = sum(b[4] for b in batches) / len(batches)
        if appended:
            metrics["server.append.wait_ms"] = (
                trace.seconds("server.append")
                - trace.seconds("catalog.append", roots_only=True)
            ) * per["append"]
            named = metrics["server.append.wait_ms"] + sum(
                metrics[layer] for layer in set(spans.LAYER_OF["append"].values())
                if not layer.startswith("storage.compact")
            )
            # Client-side append time that no named layer accounts for.
            mean = sum(appends) / len(appends) * 1e3
            metrics["unattributed_ms"] = mean - named
            print(f"  append: client mean {mean:.3f} ms, named layers {named:.3f} ms")
            metrics["vector.repair.pairs"] = sum(
                span[4] for span in trace.select("vector.repair")
            ) / len(appended)
        metrics["catalog.compactions"] = float(len(folds))
        metrics["storage.compact.bytes"] = sum(
            span[4] for name in ("storage.save_segment", "storage.save_snapshot")
            for span in trace.select(name, layer="storage.compact.self_ms")
        ) / max(1, len(folds))
        metrics["storage.write_amp"] = self.disk_written / max(1, self.user_bytes)
        metrics["storage.snapshot_bytes"], metrics["storage.journal_bytes"] = map(
            float, self.bytes_at_crash
        )
        metrics["client.append_max_ms"] = max(appends) * 1e3
        metrics["client.append_rows_per_s"] = self.rows_acked / sum(appends)

        # The dump with the most queries behind it is the main server's.
        cubes = [dump.get("cubes", {}).get(CUBE) for dump in trace.stats]
        busiest = max(filter(None, cubes), key=lambda cube: cube["point_queries"],
                      default=None)
        if busiest is not None:
            caches = busiest["cache_info"]
            metrics["session.decoded_hit_rate"] = caches["decoded"]["hit_rate"]
            metrics["query.cache_hit_rate"] = caches["answers"]["hit_rate"]
            metrics["query.slice_cache_hit_rate"] = busiest["slice_cache"]["hit_rate"]
        return metrics

    def client_metrics(self, metrics: Dict[str, float], recorders: Sequence[Recorder],
                       stats: Dict[str, Any], rollups: Dict[str, Any]) -> None:
        """What the generator and the ``stats``/``rollups`` verbs add."""
        opened = recorders[0]
        sizes = [size for recorder in recorders for size in recorder.size]
        metrics["server_tcp.response_bytes"] = sum(sizes) / len(sizes)
        metrics["client.gen_late_p99_ms"] = spans.percentile(opened.late(), 0.99) * 1e3
        metrics["server.pending_hwm"] = float(
            stats["cubes"][CUBE]["pending_hwm"]
        )
        if rollups.get("enabled"):
            routed = rollups["routed_points"] + rollups["routed_slices"]
            metrics["rollup.routed_share"] = routed / max(
                1, routed + rollups["fallbacks"]
            )
            metrics["rollup.bytes"] = float(rollups["total_bytes"])
        sliced = opened.latencies("slice")
        if sliced:
            metrics["client.slice_p50_ms"] = spans.median(sliced) * 1e3
        metrics["client.query_p99_ms"] = self.tail_ms(
            opened.latencies("query") + sliced, 0.99
        )
        # The two halves of the query tail: due while an append was in flight,
        # or not; each at the highest percentile its own sample supports.
        busy = [(opened.due[i], opened.done[i]) for i in opened.indexes("append")]
        during: List[float] = []
        quiet: List[float] = []
        for i in opened.indexes("query"):
            if opened.ok[i]:
                due = opened.due[i]
                inside = any(start <= due < end for start, end in busy)
                (during if inside else quiet).append(opened.done[i] - due)
        for name, latencies in (("during_append", during), ("quiet", quiet)):
            fraction = spans.highest_percentile(len(latencies))
            if fraction is not None:
                metrics[f"client.query_p99_{name}_ms"] = spans.percentile(
                    latencies, min(fraction, 0.99)
                ) * 1e3

    def trace_overhead(self, metrics: Dict[str, float], catalog_dir: str,
                       phase: Dict[str, Any]) -> None:
        """What the recorders cost: the same window-1 loop against a fresh
        untraced and a fresh traced server on the same (recovered) catalog."""
        medians = []
        for trace_out in (None, os.path.join(self.workdir, "overhead.json")):
            server = ServerProcess(catalog_dir, trace_out)
            self.stack.callback(server.kill)
            _warm, measured = self.drive(
                server, ["query"], [dict(phase, seconds=self.warmup_seconds), phase]
            )
            server.kill()
            self.account("cost", measured)
            medians.append(spans.median(measured.latencies("query")))
        metrics["trace_overhead_pct"] = (medians[1] / medians[0] - 1.0) * 100.0


def catalog_bytes(directory: str) -> Tuple[int, int]:
    """(snapshot + segment + manifest bytes, journal bytes) of a catalog."""
    durable = journal = 0
    for name in os.listdir(directory):
        size = os.path.getsize(os.path.join(directory, name))
        if name.endswith(".jsonl"):
            journal += size
        else:
            durable += size
    return durable, journal


def load_benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(client.REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


BENCHMARK = load_benchmark_json()
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
PER_LAYER = [metric["name"] for metric in BENCHMARK["per_layer"]]
UNITS = {
    metric["name"]: metric["unit"]
    for metric in (*BENCHMARK["end_to_end"], *BENCHMARK["per_layer"])
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict[str, Any]:
    """Run one workload; returns the contract's result object."""
    print(f"== {workload}  seed={seed} seconds={seconds:g} trace={int(trace)}"
          f"{' smoke' if smoke else ''}")
    with contextlib.ExitStack() as stack:
        run = Run(workload, seed, seconds, trace, smoke, stack)
        if workload == "lifecycle":
            values = run.run_lifecycle()
        else:
            values = run.run_served(SERVED[workload])
    names = PER_LAYER if trace else END_TO_END
    for name in names:
        print(f"  {name:<36} {values[name]:>14.4f} {UNITS[name]}")
    if not trace:
        limit = LATENCY_LIMIT_MS[workload]
        met = "met" if values["query_p95_ms"] <= limit else "MISSED"
        print(f"  latency limit: query_p95_ms <= {limit:g} ms {met}")
    for line in run.wrong[:10]:
        print(f"  ! {line}")
    failed = run.failed + len(run.wrong)
    print(f"  attempted={run.attempted} failed={failed} "
          f"error_rate={failed / max(1, run.attempted):.6f}")
    return {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": UNITS[name]} for name in names
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="T=5000 and 2 s of phases: exercises every path fast")
    parser.add_argument("--json", metavar="OUT",
                        help="also write {workload: result} to this file")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(client.SOURCE_ROOT, "repro")):
        print(f"no program to measure: {client.SOURCE_ROOT}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, client.SOURCE_ROOT)
    client.pin_generator()

    def interrupted(signum: int, _frame: object) -> None:
        raise SystemExit(128 + signum)  # unwinds the ExitStack: children die

    signal.signal(signal.SIGTERM, interrupted)
    seconds = 2.0 if args.smoke else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        results[name] = run_workload(
            name, args.seed, seconds, bool(args.trace), args.smoke
        )
        print(json.dumps(results[name]))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2)
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
