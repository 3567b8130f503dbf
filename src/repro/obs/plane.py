"""The real telemetry plane: a metrics registry plus a span tracer."""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer


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

    # -- hooks whose vocabulary lives in repro.obs.integrate ---------------
    def record_block(self, **block: Any) -> None:
        """Record one settled OS-backend block
        (:func:`repro.obs.integrate.record_block`)."""
        from repro.obs.integrate import record_block

        record_block(self, **block)

    def kernel_observer(self, kernel):
        """A :class:`~repro.obs.integrate.KernelObserver` for ``kernel``."""
        from repro.obs.integrate import KernelObserver

        return KernelObserver(self, kernel)
