"""``repro.serve`` — the multi-tenant speculation service.

Everything below :func:`repro.core.worlds.run_alternatives` assumes the
caller owns the machine; this package is the layer that makes that
assumption safe to drop. A :class:`SpeculationService` accepts
alternative blocks from many tenants and decides, per request, *whether*
to speculate, *how many* worlds to open, and *when* — the paper's
π-vs-ρ tradeoff (§2, Figs. 3–4) enforced at serving time:

    from repro.serve import SpeculationService, WorldBudget

    budget = WorldBudget(slots=4)           # the machine's spare capacity
    with SpeculationService(budget) as svc:
        ticket = svc.submit("tenant-a", [fast, slow], deadline_s=1.0)
        result = ticket.result()
        assert result.committed

Components (each usable standalone):

- :class:`~repro.serve.budget.WorldBudget` — global world-slot pool
  granting what is free, at least one slot, or making the asker wait;
- :class:`~repro.serve.admission.AdmissionQueue` — bounded depth with
  backpressure, deadline shedding, round-robin fairness across tenants;
- :class:`~repro.serve.policy.AdaptiveSpeculationPolicy` — K ≤ N and
  stagger schedules from live win-rate/latency statistics
  (:class:`~repro.serve.stats.AlternativeStats`);
- :class:`~repro.serve.service.SpeculationService` — the worker pool
  tying them to the supervisor, journal, fault and telemetry planes.
"""

from repro.errors import AdmissionRejected, ServeError, ServiceStopped
from repro.serve.admission import (
    AdmissionQueue,
    ServeRequest,
    next_seq,
    raise_seq_floor,
)
from repro.serve.budget import Reservation, WorldBudget
from repro.serve.policy import (
    AdaptiveSpeculationPolicy,
    FixedSpeculationPolicy,
    SpeculationDecision,
)
from repro.serve.service import (
    RestartReport,
    ServeResult,
    ServeTicket,
    SpeculationService,
)
from repro.serve.stats import AlternativeStats, AltRecord

__all__ = [
    "AdmissionQueue",
    "AdmissionRejected",
    "AdaptiveSpeculationPolicy",
    "AltRecord",
    "AlternativeStats",
    "FixedSpeculationPolicy",
    "Reservation",
    "RestartReport",
    "ServeError",
    "ServeRequest",
    "ServeResult",
    "ServeTicket",
    "ServiceStopped",
    "SpeculationDecision",
    "SpeculationService",
    "WorldBudget",
    "next_seq",
    "raise_seq_floor",
]
