"""Deterministic fault injection and supervision for Multiple Worlds.

The paper sells alternative blocks as a robustness construct: a crashing
or hanging alternative is just a loser, absorbed by the guard/elimination
machinery (sections 2.2, 4.1). This package makes that claim testable:

- :class:`FaultPlan` — a seeded, reproducible schedule of injectable
  faults spanning every backend (child crashes, hangs, corrupt reports,
  spawn failures, lost kill signals, message drops/delays, stalls);
- :class:`Supervisor` — a wrapper around
  :func:`repro.core.worlds.run_alternatives` that survives what the plan
  injects: bounded retry of failed alternatives as staggered spares,
  watchdog escalation of hung children, and graceful degradation down a
  backend fallback chain (``fork -> thread -> sequential``).

Determinism guarantee: a fault decision is a pure function of
``(seed, site, key)`` — never of call order or wall-clock time — so the
same plan yields the same fault schedule on every run.
"""

from repro.faults.plan import (
    ASYNCIO_SITE,
    CHAOS_SITE,
    CHILD_SITE,
    CLUSTER_SITE,
    COMPUTE_SITE,
    HEARTBEAT_SITE,
    JOURNAL_SITE,
    KILL_SITE,
    MESSAGE_SITE,
    RECOVERY_KEY,
    SERVE_SITE,
    SITE_KINDS,
    SNAPSHOT_SITE,
    SPAWN_SITE,
    TRANSPORT_SITE,
    FaultDecision,
    FaultKind,
    FaultPlan,
)
from repro.faults.supervisor import (
    ASYNC_FALLBACK,
    DEFAULT_FALLBACK,
    Supervisor,
    run_supervised,
)

__all__ = [
    "ASYNC_FALLBACK",
    "ASYNCIO_SITE",
    "CHAOS_SITE",
    "CHILD_SITE",
    "CLUSTER_SITE",
    "COMPUTE_SITE",
    "HEARTBEAT_SITE",
    "JOURNAL_SITE",
    "KILL_SITE",
    "MESSAGE_SITE",
    "RECOVERY_KEY",
    "SERVE_SITE",
    "SITE_KINDS",
    "SNAPSHOT_SITE",
    "SPAWN_SITE",
    "TRANSPORT_SITE",
    "DEFAULT_FALLBACK",
    "FaultDecision",
    "FaultKind",
    "FaultPlan",
    "Supervisor",
    "run_supervised",
]
