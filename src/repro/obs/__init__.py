"""The unified telemetry plane: metrics, spans, exporters.

One :class:`Observability` bundle per run ties together a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.spans.Tracer`, and is what every instrumented layer
accepts as its ``obs=`` parameter::

    from repro.obs import Observability
    from repro.core.worlds import run_alternatives

    obs = Observability()
    outcome, kernel = run_alternatives(alts, backend="sim", obs=obs)
    obs.finalize(kernel.now)

    from repro.obs.export import write_chrome_trace, SpeculationReport
    write_chrome_trace(obs.tracer, "run.trace.json")   # open in Perfetto
    print(SpeculationReport.from_kernel(kernel, obs).render())

The plane is cheap enough to stay on by default; ``enabled=False``
reduces every tracer call to one attribute check (layers that receive
``obs=None`` skip the calls entirely), and metrics absorbed from
existing counter bundles (``MemoryStats``, the gate) are read lazily at
collect time via callback gauges.

Fault correlation: :meth:`Observability.watch_fault_plan` hooks a
:class:`~repro.faults.plan.FaultPlan` so every injected fault lands as
an annotation instant (``cat="fault"``) and a
``mw_faults_injected_total{site,kind}`` increment — the trace links
injected cause to observed retry/degradation effect.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    DuplicateMetricError,
    FuncGauge,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    bind_attr_gauges,
)
from repro.obs.spans import DISPOSITIONS, NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DISPOSITIONS",
    "DuplicateMetricError",
    "FuncGauge",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_TRACER",
    "Observability",
    "Span",
    "Tracer",
    "bind_attr_gauges",
]


class Observability:
    """One run's telemetry: a metrics registry plus a span tracer.

    ``clock`` is the tracer's wall clock (times are recorded relative
    to construction); components with their own timebase — the kernel's
    virtual clock, the simulated link clock — pass explicit ``t=``
    values, which land on a comparable near-zero scale. ``enabled=False``
    turns span recording off while metrics keep working.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(enabled=enabled, clock=clock)
        self._faults_c = self.registry.counter(
            "mw_faults_injected_total",
            "Faults injected by the active FaultPlan",
            labelnames=("site", "kind"),
        )

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def on_fault(
        self,
        site: str,
        kind: str,
        t: float | None = None,
        detail: str = "",
        track: Any = None,
        **data: Any,
    ) -> None:
        """Record one injected fault (annotation instant + counter)."""
        self._faults_c.inc(site=site, kind=kind)
        attrs = dict(data)
        if detail:
            attrs["detail"] = detail
        self.tracer.instant(
            f"fault:{kind}", cat="fault", track="faults" if track is None else track,
            t=t, site=site, **attrs,
        )

    def watch_fault_plan(self, plan) -> None:
        """Make ``plan`` report every injection into this plane."""
        plan.observer = self.on_fault

    def finalize(self, t: float | None = None) -> int:
        """Close any still-open spans (worlds alive at run end)."""
        return self.tracer.finish_open(t=t)
