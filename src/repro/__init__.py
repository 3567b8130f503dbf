"""Multiple Worlds: speculative parallel execution of alternatives.

A library-scale reproduction of Smith & Maguire, *Exploring "Multiple
Worlds" in Parallel* (ICPP 1989; Columbia TR CUCS-436-89).

Quick start::

    from repro import Alternative, run_alternatives

    def fast(ws):  ws["x"] = 1; return "fast"
    def slow(ws):  ws["x"] = 2; return "slow"

    outcome = run_alternatives(
        [Alternative(fast, sim_cost=1.0), Alternative(slow, sim_cost=5.0)],
        initial={"x": 0},
        backend="sim",          # or "fork" for real processes
    )
    assert outcome.value == "fast"
    assert outcome.extras["state"]["x"] == 1

Packages:

- :mod:`repro.core` — alternatives, guards, predicates, schemes, the
  ``run_alternatives`` entry point.
- :mod:`repro.kernel` — the deterministic simulation kernel (virtual
  time, COW worlds, predicated messages, world splitting).
- :mod:`repro.memory` — pages, COW page tables, heaps, the single-level
  store.
- :mod:`repro.ipc` / :mod:`repro.devices` — predicated messaging and the
  sink/source device model.
- :mod:`repro.runtime` — the real ``os.fork`` backend and
  checkpoint/restart.
- :mod:`repro.distrib` — simulated links, remote fork, migration.
- :mod:`repro.analysis` — the paper's PI/R_mu/R_o performance algebra and
  machine calibrations.
- :mod:`repro.apps` — recovery blocks, OR-parallel Prolog, polyalgorithms
  and the Jenkins-Traub parallel rootfinder.
- :mod:`repro.faults` — deterministic fault injection (``FaultPlan``) and
  supervised execution (``Supervisor``: retry spares, watchdog
  escalation, backend degradation).
- :mod:`repro.journal` — the crash-consistent commit journal
  (``CommitJournal``), exactly-once source gate (``SourceGate``) and
  idempotent recovery (``recover``).

The simulation names (``Kernel`` and the performance model) are imported
on first access: every process that forks worlds or serves requests
copies what it imported at each fork, and none of them runs the
simulation.
"""

import importlib

from repro.core import (
    AltBlock,
    Alternative,
    AlternativeResult,
    BlockOutcome,
    EliminationPolicy,
    FAILURE,
    Guard,
    PredicateSet,
    first_of,
    run_alternatives,
    run_alternatives_sim,
)
from repro.faults import FaultKind, FaultPlan, Supervisor, run_supervised
from repro.journal import CommitJournal, SourceGate, recover

__version__ = "0.1.0"

#: name -> the module it is imported from on first access (PEP 562)
_LAZY = {
    "Kernel": "repro.kernel",
    "MachineProfile": "repro.analysis.calibration",
    "ATT_3B2_310": "repro.analysis.calibration",
    "HP_9000_350": "repro.analysis.calibration",
    "MODERN_SIM": "repro.analysis.calibration",
    "PerformanceModel": "repro.analysis.model",
    "performance_improvement": "repro.analysis.model",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_LAZY[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})

__all__ = [
    "Alternative",
    "AltBlock",
    "AlternativeResult",
    "BlockOutcome",
    "EliminationPolicy",
    "FAILURE",
    "Guard",
    "PredicateSet",
    "Kernel",
    "run_alternatives",
    "run_alternatives_sim",
    "run_supervised",
    "first_of",
    "FaultKind",
    "FaultPlan",
    "Supervisor",
    "CommitJournal",
    "SourceGate",
    "recover",
    "MachineProfile",
    "PerformanceModel",
    "performance_improvement",
    "ATT_3B2_310",
    "HP_9000_350",
    "MODERN_SIM",
    "__version__",
]
