"""The metrics registry: counters, gauges and fixed-bucket histograms.

The paper's argument is quantitative — response time falls from
``τ(C_mean)`` to ``τ(C_best) + τ(overhead)`` only while the overhead
(COW copies, elimination, predicate splits) stays small — so the
overhead must be *measured*, continuously, in every layer. This module
is the one place those numbers accumulate:

- a :class:`Counter` only goes up (events: worlds spawned, faults
  injected, journal records appended);
- a :class:`Gauge` is set to the current level, or computed on demand
  from a callback (``gauge_fn``) — the zero-overhead way to absorb
  existing counter bundles like :class:`~repro.memory.stats.MemoryStats`
  without touching their hot paths;
- a :class:`Histogram` counts observations into fixed buckets
  (latencies, payload sizes) with an implicit ``+inf`` overflow bucket.

All three support labels: a metric is registered once with a fixed
``labelnames`` tuple and fans out into one sample per label-value
combination. Registration is strict — registering two metrics under one
name raises :class:`DuplicateMetricError`, and the get-or-create
helpers (`counter`/`gauge`/`histogram`) raise on any kind, label or
bucket mismatch — so a name always means one thing across the whole
process (the CI smoke validates exactly this).

Label values are not trusted to be few: a metric keeps at most
:data:`MAX_SERIES` label combinations, and a write that would create
one more lands in a shared ``other`` series instead (counters stay
monotonic, totals are conserved) and is counted in
``mw_obs_series_dropped{metric}``.

Everything is guarded by locks so the thread backend can increment from
its workers; the cost is one lock acquire + dict update per increment,
cheap enough to stay on by default.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Sequence


class MetricError(ValueError):
    """Invalid metric construction or use."""


class DuplicateMetricError(MetricError):
    """Two metrics were registered under one name."""


#: Most label combinations one metric keeps before new ones fold into
#: the :data:`OVERFLOW_LABEL` series (alternative names unique per
#: request would otherwise grow ``mw_serve_alt_*{alt}`` without bound).
MAX_SERIES = 1024
OVERFLOW_LABEL = "other"


def _label_key(labelnames: tuple[str, ...], labels: dict[str, Any]) -> tuple:
    if set(labels) != set(labelnames):
        raise MetricError(
            f"expected labels {sorted(labelnames)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Metric:
    """Common shape: name, help, unit, fixed label names, sample store."""

    kind = "metric"

    def __init__(
        self, name: str, help: str = "", unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        if not name or not name.replace("_", "a").isidentifier():
            raise MetricError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.unit = unit
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: dict[tuple, Any] = {}
        #: called with the metric's name per write folded into ``other``
        #: (the owning registry's ``mw_obs_series_dropped`` counter)
        self._on_overflow: Callable[[str], None] | None = None

    def _series(self, labels: dict[str, Any]) -> tuple:
        """The series a write with ``labels`` lands in (lock held): its
        own, or ``other`` once the metric is full."""
        key = _label_key(self.labelnames, labels)
        if key in self._values or len(self._values) < MAX_SERIES:
            return key
        if self._on_overflow is not None:
            self._on_overflow(self.name)
        return (OVERFLOW_LABEL,) * len(self.labelnames)

    def _signature(self) -> tuple:
        return (self.kind, self.labelnames)

    def samples(self) -> list[dict]:
        """Current samples as ``{"labels": {...}, "value": ...}`` dicts."""
        with self._lock:
            items = list(self._values.items())
        return [
            {"labels": dict(zip(self.labelnames, key)), "value": value}
            for key, value in sorted(items)
        ]

    def describe(self) -> dict:
        """The full exportable description of this metric."""
        return {
            "name": self.name, "type": self.kind, "help": self.help,
            "unit": self.unit, "labelnames": list(self.labelnames),
            "samples": self.samples(),
        }


class Counter(Metric):
    """A monotonically increasing count of events."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        with self._lock:
            key = self._series(labels)
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())


class Gauge(Metric):
    """A value that can go up and down (current level of something)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[self._series(labels)] = value

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        with self._lock:
            key = self._series(labels)
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)


class FuncGauge(Metric):
    """A gauge whose value is computed on demand by a callback.

    The compatibility-shim workhorse: existing counter bundles
    (:class:`~repro.memory.stats.MemoryStats`, the gate's ad-hoc
    attributes) are published by pointing a callback at them — their hot
    paths pay nothing, and the registry reads current values at collect
    time.
    """

    kind = "gauge"

    def __init__(
        self, name: str, fn: Callable[[], float], help: str = "", unit: str = "",
    ) -> None:
        super().__init__(name, help=help, unit=unit, labelnames=())
        self.fn = fn

    def _signature(self) -> tuple:
        return (self.kind, self.labelnames, "fn")

    def value(self) -> float:
        return float(self.fn())

    def samples(self) -> list[dict]:
        return [{"labels": {}, "value": self.value()}]


#: Latency-ish default bucket edges (seconds), spanning µs to minutes.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 60.0,
)


class Histogram(Metric):
    """Fixed-bucket distribution of observations.

    ``buckets`` are the strictly increasing upper edges; an implicit
    ``+inf`` bucket catches overflow. Per label combination the
    histogram keeps cumulative bucket counts plus ``sum`` and ``count``.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", unit: str = "",
        labelnames: Sequence[str] = (), buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help=help, unit=unit, labelnames=labelnames)
        edges = tuple(float(b) for b in buckets)
        if not edges or any(hi <= lo for lo, hi in zip(edges, edges[1:])):
            raise MetricError(
                f"histogram {name} needs strictly increasing bucket edges"
            )
        self.buckets = edges

    def _signature(self) -> tuple:
        return (self.kind, self.labelnames, self.buckets)

    def observe(self, value: float, **labels: Any) -> None:
        with self._lock:
            key = self._series(labels)
            cell = self._values.get(key)
            if cell is None:
                cell = {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
                self._values[key] = cell
            for i, edge in enumerate(self.buckets):
                if value <= edge:
                    cell["counts"][i] += 1
                    break
            else:
                cell["counts"][-1] += 1
            cell["sum"] += value
            cell["count"] += 1

    def bucket_counts(self, **labels: Any) -> list[int]:
        """Per-bucket (non-cumulative) counts, overflow bucket last."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            cell = self._values.get(key)
            return list(cell["counts"]) if cell else [0] * (len(self.buckets) + 1)

    def count(self, **labels: Any) -> int:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            cell = self._values.get(key)
            return cell["count"] if cell else 0

    def sum(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            cell = self._values.get(key)
            return cell["sum"] if cell else 0.0

    def samples(self) -> list[dict]:
        with self._lock:
            items = [(k, dict(v, counts=list(v["counts"]))) for k, v in self._values.items()]
        out = []
        for key, cell in sorted(items):
            out.append({
                "labels": dict(zip(self.labelnames, key)),
                "value": cell["sum"],
                "count": cell["count"],
                "buckets": list(self.buckets),
                "counts": cell["counts"],
            })
        return out


class MetricsRegistry:
    """The process-wide (or per-run) name → metric table.

    Names are unique across all metric kinds; duplicate registration
    raises. The get-or-create helpers return the existing metric when
    the request matches its kind/labels/buckets exactly and raise
    otherwise — a typo'd second registration can never silently shadow
    the first.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}
        self._dropped: Counter | None = None

    def _series_dropped(self, metric: str) -> None:
        """Count one write that ``metric``'s series cap folded into
        ``other`` (the counter exists from the first such write on)."""
        if self._dropped is None:
            self._dropped = self.counter(
                "mw_obs_series_dropped",
                "Writes folded into the `other` series by the per-metric cap",
                labelnames=("metric",),
            )
            self._dropped._on_overflow = None  # it must not count into itself
        self._dropped.inc(metric=metric)

    # -- registration ------------------------------------------------------
    def register(self, metric: Metric) -> Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise DuplicateMetricError(
                    f"metric {metric.name!r} is already registered"
                )
            self._metrics[metric.name] = metric
            metric._on_overflow = self._series_dropped
        return metric

    def _get_or_create(self, cls, name: str, kwargs: dict) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                probe = cls(name, **kwargs)
                if type(existing) is not cls or existing._signature() != probe._signature():
                    raise DuplicateMetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, **kwargs)
            metric._on_overflow = self._series_dropped
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> Counter:
        return self._get_or_create(
            Counter, name, {"help": help, "unit": unit, "labelnames": labelnames}
        )

    def gauge(
        self, name: str, help: str = "", unit: str = "",
        labelnames: Sequence[str] = (),
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, {"help": help, "unit": unit, "labelnames": labelnames}
        )

    def gauge_fn(
        self, name: str, fn: Callable[[], float], help: str = "", unit: str = "",
    ) -> FuncGauge:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if isinstance(existing, FuncGauge):
                    existing.fn = fn  # rebinding a shim to a fresh source is fine
                    return existing
                raise DuplicateMetricError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            metric = FuncGauge(name, fn, help=help, unit=unit)
            self._metrics[name] = metric
            return metric

    def histogram(
        self, name: str, help: str = "", unit: str = "",
        labelnames: Sequence[str] = (), buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name,
            {"help": help, "unit": unit, "labelnames": labelnames, "buckets": buckets},
        )

    def attr_gauges(
        self, obj: Any, attrs: Iterable[str], prefix: str,
        help_fmt: str = "{attr} (mirrored from {src})",
    ) -> list[FuncGauge]:
        """Publish plain numeric attributes of ``obj`` as callback gauges.

        The absorption mechanism for pre-obs counter bundles: the source
        object keeps its attribute API (nothing that increments
        ``stats.cow_faults`` changes), and the registry reads the live
        value whenever it collects.
        """
        gauges = []
        src = type(obj).__name__
        for attr in attrs:
            getattr(obj, attr)  # fail fast on a typo'd attribute
            gauges.append(
                self.gauge_fn(
                    f"{prefix}_{attr}",
                    (lambda o=obj, a=attr: float(getattr(o, a))),
                    help=help_fmt.format(attr=attr, src=src),
                )
            )
        return gauges

    # -- introspection -----------------------------------------------------
    def get(self, name: str) -> Metric:
        with self._lock:
            try:
                return self._metrics[name]
            except KeyError:
                raise MetricError(f"no metric named {name!r}") from None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def collect(self) -> list[dict]:
        """Every metric's full description, sorted by name."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return [m.describe() for m in metrics]

    def snapshot(self) -> dict[str, Any]:
        """Flat ``{name{labels}: value}`` view — the bench-friendly form."""
        out: dict[str, Any] = {}
        for desc in self.collect():
            for sample in desc["samples"]:
                labels = sample["labels"]
                key = desc["name"]
                if labels:
                    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                    key = f"{key}{{{inner}}}"
                out[key] = sample["value"]
        return out


# -- compatibility shims ----------------------------------------------------
def bind_attr_gauges(
    registry: MetricsRegistry,
    obj: Any,
    attrs: Iterable[str],
    prefix: str,
    help_fmt: str = "{attr} (mirrored from {src})",
) -> list[FuncGauge]:
    """:meth:`MetricsRegistry.attr_gauges` as a function."""
    return registry.attr_gauges(obj, attrs, prefix, help_fmt)
