"""Performance analysis: the paper's section 3 algebra and calibration.

- :mod:`repro.analysis.model` — PI, R_mu, R_o relationships (sections
  3.2-3.3), including the superlinear-speedup condition.
- :mod:`repro.analysis.domain` — whole-input-domain analysis (the paper's
  extension of the single-input analysis).
- :mod:`repro.analysis.overhead` — overhead decomposition (section 3.1).
- :mod:`repro.analysis.calibration` — machine profiles with the paper's
  section 3.4 measured constants (AT&T 3B2/310, HP 9000/350, rfork link).

The names below are imported from their submodules on first access, so
a process that imports one submodule (every backend needs
:mod:`~repro.analysis.overhead`) loads no other.
"""

import importlib

#: name -> the submodule it is imported from on first access (PEP 562)
_LAZY = {
    "PerformanceModel": "repro.analysis.model",
    "performance_improvement": "repro.analysis.model",
    "pi_from_ratios": "repro.analysis.model",
    "r_mu": "repro.analysis.model",
    "r_o": "repro.analysis.model",
    "speedup_vs_parallelized": "repro.analysis.model",
    "superlinear_condition": "repro.analysis.model",
    "MachineProfile": "repro.analysis.calibration",
    "ATT_3B2_310": "repro.analysis.calibration",
    "HP_9000_350": "repro.analysis.calibration",
    "MODERN_SIM": "repro.analysis.calibration",
    "RFORK_LINK": "repro.analysis.calibration",
    "DomainAnalysis": "repro.analysis.domain",
    "DomainPoint": "repro.analysis.domain",
    "OverheadBreakdown": "repro.analysis.overhead",
    "ExperimentRunner": "repro.analysis.experiment",
    "RunSummary": "repro.analysis.experiment",
    "speedup": "repro.analysis.experiment",
    "AccessProfile": "repro.analysis.granularity",
    "GranularityCosts": "repro.analysis.granularity",
    "page_based_overhead": "repro.analysis.granularity",
    "preferred_scheme": "repro.analysis.granularity",
    "value_based_overhead": "repro.analysis.granularity",
}

__all__ = [
    "PerformanceModel",
    "performance_improvement",
    "pi_from_ratios",
    "r_mu",
    "r_o",
    "speedup_vs_parallelized",
    "superlinear_condition",
    "MachineProfile",
    "ATT_3B2_310",
    "HP_9000_350",
    "MODERN_SIM",
    "RFORK_LINK",
    "DomainAnalysis",
    "DomainPoint",
    "OverheadBreakdown",
    "ExperimentRunner",
    "RunSummary",
    "speedup",
    "AccessProfile",
    "GranularityCosts",
    "page_based_overhead",
    "value_based_overhead",
    "preferred_scheme",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_LAZY[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
