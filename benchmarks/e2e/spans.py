"""Percentiles with a sample-count guard, and span trees folded to self times.

Two rules from the metrics method live here.  A timing is reported as a
median plus the highest percentile that still has at least ten samples beyond
it — a p99 of 300 samples is three numbers, not a statistic.  And a layer's
*self* time is its span's duration minus the part of that interval its child
spans cover, so the layers of one request add up to the request instead of
counting nested work twice.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10
PERCENTILES = (0.5, 0.9, 0.95, 0.99, 0.999)

#: ``[name, start, end, parent index or -1, value]`` as the tracer writes it.
Span = Sequence
Window = Tuple[float, float]
EVERYTHING: Window = (0.0, float("inf"))


class SampleCountError(ValueError):
    """A percentile was asked of too few samples to mean anything."""


def _rank(count: int, fraction: float) -> int:
    """Nearest rank (1-based) of a percentile; 0.9 of 100 is 90, not 91."""
    return max(1, math.ceil(round(fraction * count, 9)))


def percentile(values: Iterable[float], fraction: float) -> float:
    """Exact nearest-rank percentile of the raw samples."""
    ordered = sorted(values)
    if not ordered:
        raise SampleCountError("no samples")
    return ordered[_rank(len(ordered), fraction) - 1]


def highest_percentile(count: int) -> Optional[float]:
    """The highest reportable percentile of ``count`` samples (``None``: none)."""
    allowed = [
        fraction for fraction in PERCENTILES
        if count - _rank(count, fraction) >= MIN_BEYOND
    ]
    return max(allowed) if allowed else None


def guarded_percentile(values: Sequence[float], fraction: float) -> float:
    """``percentile`` that refuses when fewer than ten samples lie beyond it."""
    if len(values) - _rank(len(values), fraction) < MIN_BEYOND:
        raise SampleCountError(
            f"p{fraction * 100:g} needs {MIN_BEYOND / (1.0 - fraction):.0f} "
            f"samples, got {len(values)}"
        )
    return percentile(values, fraction)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise SampleCountError("no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children, clipped to it."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent, _value in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result: List[float] = []
    for index, (_name, start, end, _parent, _value) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


#: Which layer metric a span's self time belongs to, by the kind of work its
#: root span started.  A name missing from its context's table inherits its
#: parent's layer, so a helper called from two layers is charged to whichever
#: one called it.
CONTEXT_OF_ROOT = {
    "session.query_many": "query",
    "server.execute": "query",
    "server_tcp.encode": "query",
    "server.append": "append",
    "catalog.append": "append",
    "server.compact": "append",
    "catalog.compact": "append",
    "catalog.open": "restart",
    "catalog.create": "build",
}
LAYER_OF = {
    "query": {
        "server_tcp.encode": "server_tcp.encode.self_ms",
        "session.query_many": "session.query.self_ms",
        "query.engine": "query.engine.self_ms",
        "rollup.route": "rollup.route.self_ms",
    },
    "append": {
        "catalog.append": "catalog.journal.self_ms",
        "session.append": "session.publish.self_ms",
        "core.clone": "session.publish.self_ms",
        "incremental.maintain": "incremental.maintain.self_ms",
        "incremental.merge": "incremental.merge.self_ms",
        "algorithms.run": "algorithms.delta_build.self_ms",
        "vector.repair": "vector.repair.self_ms",
        "vector.aggregate": "vector.aggregate.self_ms",
        "query.publish": "query.publish.self_ms",
        "core.closure_index": "query.publish.self_ms",
        "rollup.merged_delta": "rollup.merged_delta.self_ms",
        "catalog.compact": "storage.compact.self_ms",
        "storage.save_segment": "storage.compact.self_ms",
        "storage.save_snapshot": "storage.compact.self_ms",
    },
    "restart": {
        "catalog.open": "catalog.replay.self_s",
        "storage.load": "storage.load.self_s",
    },
    "build": {
        "catalog.create": "catalog.create.self_s",
        "session.build": "session.index_build.self_s",
        "algorithms.run": "algorithms.build.self_s",
        "storage.save_snapshot": "storage.save.self_s",
    },
}


class Trace:
    """All spans of a traced run, with self time and layer worked out."""

    def __init__(self, dumps: Iterable[Dict[str, Any]]) -> None:
        self.spans: List[Span] = []
        self.stats: List[Dict[str, Any]] = []
        for dump in dumps:
            offset = len(self.spans)
            for name, start, end, parent, value in dump["spans"]:
                self.spans.append(
                    (name, start, end, parent + offset if parent >= 0 else -1, value)
                )
            self.stats.append(dump.get("stats") or {})
        self.self_seconds = self_times(self.spans)
        self.layers = self._assign_layers()
        self._by_name: Dict[str, List[int]] = {}
        for index, span in enumerate(self.spans):
            self._by_name.setdefault(span[0], []).append(index)

    def _assign_layers(self) -> List[Optional[str]]:
        contexts: List[Optional[str]] = []
        layers: List[Optional[str]] = []
        # A parent is always recorded before its children, so one pass does.
        for name, _start, _end, parent, _value in self.spans:
            if parent < 0:
                context = CONTEXT_OF_ROOT.get(name)
                inherited = None
            else:
                context = contexts[parent]
                inherited = layers[parent]
            contexts.append(context)
            layers.append(LAYER_OF.get(context or "", {}).get(name, inherited))
        return layers

    def layer_seconds(self, window: Window = EVERYTHING) -> Dict[str, float]:
        """Total self seconds per layer metric, over spans begun in ``window``."""
        totals: Dict[str, float] = {}
        since, until = window
        for span, seconds, layer in zip(self.spans, self.self_seconds, self.layers):
            if layer is not None and since <= span[1] < until:
                totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def select(self, name: str, window: Window = EVERYTHING,
               roots_only: bool = False, layer: Optional[str] = None) -> List[Span]:
        """Spans called ``name`` begun in ``window`` (optionally: only roots,
        only those charged to ``layer``)."""
        since, until = window
        return [
            span for span, charged in (
                (self.spans[index], self.layers[index])
                for index in self._by_name.get(name, ())
            )
            if since <= span[1] < until
            and not (roots_only and span[3] >= 0)
            and (layer is None or charged == layer)
        ]

    def seconds(self, name: str, window: Window = EVERYTHING,
                roots_only: bool = False) -> float:
        """Total duration of the spans called ``name``."""
        return sum(
            span[2] - span[1] for span in self.select(name, window, roots_only)
        )
