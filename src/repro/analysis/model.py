"""The paper's section 3.2-3.3 performance algebra.

Definitions, for one input x and alternatives C_1..C_N with runtimes
``tau_i = τ(C_i, x)``:

- ``τ(C_mean, x) = (Σ τ_i) / N`` — what Scheme B (random pick) pays in
  expectation,
- ``τ(C_best, x) = min τ_i`` — what Scheme C (parallel worlds) pays, plus
  overhead,
- ``PI = τ(C_mean) / (τ(C_best) + τ(overhead))``,
- with ``R_mu = τ(C_mean)/τ(C_best)`` and ``R_o = τ(overhead)/τ(C_best)``:

      PI = (1 / (1 + R_o)) · R_mu

Parallel execution wins iff ``PI > 1``, i.e. iff ``R_mu > 1 + R_o``.
With sufficient dispersion and small overhead N processors can show
*superlinear* speedup relative to the sequential expectation: ``PI > N``.

numpy is imported inside the functions that compute with it: ``import
repro`` reaches this module, and the serving and fork stack loads no
numpy (DESIGN §5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np


def _as_times(times: Iterable[float]) -> np.ndarray:
    import numpy as np

    arr = np.asarray(list(times), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one alternative runtime")
    if np.any(arr < 0):
        raise ValueError("runtimes must be non-negative")
    return arr


def c_mean(times: Iterable[float]) -> float:
    """τ(C_mean, x): the arithmetic mean of the alternatives' runtimes."""
    import numpy as np

    return float(np.mean(_as_times(times)))


def c_best(times: Iterable[float]) -> float:
    """τ(C_best, x): the fastest alternative's runtime."""
    import numpy as np

    return float(np.min(_as_times(times)))


def c_worst(times: Iterable[float]) -> float:
    """τ(C_worst, x): the slowest alternative's runtime."""
    import numpy as np

    return float(np.max(_as_times(times)))


def r_mu(times: Iterable[float]) -> float:
    """R_mu = τ(C_mean)/τ(C_best): the dispersion ratio."""
    best = c_best(times)
    if best == 0:
        return math.inf
    return c_mean(times) / best


def r_o(times: Iterable[float], overhead: float) -> float:
    """R_o = τ(overhead)/τ(C_best): the normalized overhead."""
    if overhead < 0:
        raise ValueError("overhead must be non-negative")
    best = c_best(times)
    if best == 0:
        return math.inf
    return overhead / best


def pi_from_ratios(r_mu_value: float, r_o_value: float) -> float:
    """PI = (1/(1+R_o)) · R_mu — the paper's re-expression."""
    if r_o_value < 0:
        raise ValueError("R_o must be non-negative")
    return r_mu_value / (1.0 + r_o_value)


def performance_improvement(times: Iterable[float], overhead: float = 0.0) -> float:
    """PI = τ(C_mean) / (τ(C_best) + τ(overhead)) for one input."""
    import numpy as np

    arr = _as_times(times)
    denom = float(np.min(arr)) + overhead
    if denom == 0:
        return math.inf
    return float(np.mean(arr)) / denom


def parallel_wins(times: Iterable[float], overhead: float = 0.0) -> bool:
    """True iff τ(C_best) + τ(overhead) < τ(C_mean) (PI > 1)."""
    return performance_improvement(times, overhead) > 1.0


def breakeven_r_mu(r_o_value: float) -> float:
    """The dispersion at which parallel execution breaks even: 1 + R_o."""
    return 1.0 + r_o_value


def breakeven_overhead(times: Iterable[float]) -> float:
    """The largest overhead for which parallel still wins on ``times``."""
    return c_mean(times) - c_best(times)


def superlinear_condition(times: Iterable[float], overhead: float = 0.0) -> bool:
    """True when N processors beat N-fold speedup of the expectation.

    Paper section 3.3: "with sufficient variance, and small enough
    overhead, N processors can exhibit superlinear speedup by parallel
    execution of N serial algorithms" — i.e. PI > N.
    """
    arr = _as_times(times)
    return performance_improvement(arr, overhead) > arr.size


def speedup_vs_parallelized(times: Iterable[float], overhead: float = 0.0) -> float:
    """PI normalized by processor count: >1 means superlinear."""
    arr = _as_times(times)
    return performance_improvement(arr, overhead) / arr.size


@dataclass(frozen=True)
class PerformanceModel:
    """A fitted (R_mu, R_o) pair with derived quantities.

    Convenience wrapper used by the figure benches: build one from a set
    of measured runtimes plus a measured overhead, then read off the
    analytic PI and the win/lose classification.
    """

    tau_mean: float
    tau_best: float
    tau_overhead: float

    @classmethod
    def from_times(cls, times: Sequence[float], overhead: float = 0.0) -> "PerformanceModel":
        return cls(c_mean(times), c_best(times), overhead)

    @property
    def r_mu(self) -> float:
        if self.tau_best == 0:
            return math.inf
        return self.tau_mean / self.tau_best

    @property
    def r_o(self) -> float:
        if self.tau_best == 0:
            return math.inf
        return self.tau_overhead / self.tau_best

    @property
    def pi(self) -> float:
        denom = self.tau_best + self.tau_overhead
        if denom == 0:
            return math.inf
        return self.tau_mean / denom

    @property
    def wins(self) -> bool:
        return self.pi > 1.0

    def scaled(self, factor: float) -> "PerformanceModel":
        """All times scaled by ``factor`` (PI is scale-invariant)."""
        return PerformanceModel(
            self.tau_mean * factor, self.tau_best * factor, self.tau_overhead * factor
        )


def figure3_curve(
    r_mu_values: Sequence[float], r_o_value: float = 0.5
) -> list[tuple[float, float]]:
    """(R_mu, PI) pairs for the paper's Figure 3 (R_o held at 0.5)."""
    return [(rm, pi_from_ratios(rm, r_o_value)) for rm in r_mu_values]


def figure4_curve(
    r_o_values: Sequence[float], r_mu_value: float = math.e
) -> list[tuple[float, float]]:
    """(R_o, PI) pairs for the paper's Figure 4 (R_mu held at e)."""
    return [(ro, pi_from_ratios(r_mu_value, ro)) for ro in r_o_values]
