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

A layer that receives ``obs=None`` records into the null plane,
:data:`NULL_OBS` (taken through :func:`or_null`): its registry hands out
one shared no-op metric and its tracer records nothing, so every layer
registers and writes unconditionally and only this package knows whether
telemetry is on. The null plane imports nothing, and the other public
names here resolve on first access (PEP 562), so a process that never
builds a real plane never loads the registry, the tracer or
:mod:`repro.obs.integrate`.

The real plane is cheap enough to stay on by default; ``enabled=False``
reduces every tracer call to one attribute check, and metrics absorbed
from existing counter bundles (``MemoryStats``, the gate) are read
lazily at collect time via callback gauges.

Fault correlation: :meth:`Observability.watch_fault_plan` hooks a
:class:`~repro.faults.plan.FaultPlan` so every injected fault lands as
an annotation instant (``cat="fault"``) and a
``mw_faults_injected_total{site,kind}`` increment — the trace links
injected cause to observed retry/degradation effect. The null plane's
``watch_fault_plan`` leaves a plan reporting wherever it reports.
"""

from __future__ import annotations

import importlib

from repro.obs.null import NULL_OBS, or_null

#: name -> the submodule it is imported from on first access (PEP 562)
_LAZY = {
    "Counter": "repro.obs.metrics",
    "DEFAULT_BUCKETS": "repro.obs.metrics",
    "DuplicateMetricError": "repro.obs.metrics",
    "FuncGauge": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricError": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "bind_attr_gauges": "repro.obs.metrics",
    "DISPOSITIONS": "repro.obs.spans",
    "NULL_TRACER": "repro.obs.spans",
    "Span": "repro.obs.spans",
    "Tracer": "repro.obs.spans",
    "Observability": "repro.obs.plane",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_LAZY[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = sorted({"NULL_OBS", "or_null", *_LAZY})
