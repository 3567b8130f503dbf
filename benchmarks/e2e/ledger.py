"""Arithmetic shared by the runner and its tests: percentiles, spreads,
span self-time, and the metric names ``BENCHMARK.json`` fixes."""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST_PATH = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


# -- percentiles -------------------------------------------------------------
def _rank(n: int, pct: float) -> int:
    """Nearest rank of ``pct`` among ``n`` samples (1-based). The epsilon
    keeps 99.9 % of 10000 at rank 9990, not one float ulp above it."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct`` %
    of the sample at or below it. 0.0 for an empty sample."""
    if not values:
        return 0.0
    return sorted(values)[_rank(len(values), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``pct`` rank."""
    return n - _rank(n, pct) if n else 0


def highest_percentile(n: int) -> float:
    """The highest rung of the ladder with ``TAIL_SAMPLES`` samples beyond
    it; the median when the sample supports nothing higher."""
    supported = [p for p in PERCENTILE_LADDER if samples_beyond(n, p) >= TAIL_SAMPLES]
    return max(supported, default=PERCENTILE_LADDER[0])


def p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


# -- run-to-run spread -------------------------------------------------------
def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and relative spreads of one metric's run values."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    scale = abs(med) or 1.0
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "max_spread": (max(values) - min(values)) / scale,
        "values": list(values),
    }


# -- spans -------------------------------------------------------------------
@dataclass
class Span:
    """One timed interval at a layer boundary. Spans of one op share
    ``trace`` (the op index); ``parent`` is the span that caused it."""

    trace: int
    span: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part its children cover.
    Overlapping children count once; a child is clipped to its parent."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span: s.duration - covered(children.get(s.span, ()), s.start, s.end)
        for s in spans
    }


@dataclass
class SpanTree:
    """Builds the spans of one op; ids are local to the op."""

    trace: int
    spans: list[Span] = field(default_factory=list)

    def add(self, name: str, start, end, parent: int | None = None) -> int | None:
        """Record ``name`` unless a stamp is missing (the op never got that
        far, e.g. it was shed before a body ran)."""
        if start is None or end is None:
            return None
        sid = len(self.spans)
        self.spans.append(Span(self.trace, sid, parent, name, start, end))
        return sid


def write_spans(path: str, workload: str, spans: Iterable[Span]) -> int:
    """Append ``spans`` to a JSON-lines file; returns how many were written."""
    n = 0
    with open(path, "a", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "workload": workload, "trace": s.trace, "span": s.span,
                "parent": s.parent, "name": s.name,
                "start": s.start, "end": s.end,
            }) + "\n")
            n += 1
    return n


# -- the manifest ------------------------------------------------------------
def load_manifest(path: str = MANIFEST_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(manifest: dict, group: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in manifest[group]}


def fill(manifest: dict, group: str, values: dict[str, float]) -> dict[str, dict]:
    """``values`` in the manifest's order and units. A per-layer metric the
    workload's layers do not exercise reads 0; a value the manifest does not
    list is a naming error."""
    units = metric_units(manifest, group)
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json {group}: {unknown}")
    if group == "end_to_end":
        missing = sorted(set(units) - set(values))
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
