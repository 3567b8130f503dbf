"""Whole-input-domain analysis (paper section 3.3, last paragraph).

The single-input PI extends to a domain of inputs: "the different
algorithms should perform well at different and unpredictable points in
the input; the best case is where at each input where one or more
algorithms perform badly, they have at least [one] counterpart which
performs well."

:class:`DomainAnalysis` takes a runtimes matrix (inputs × algorithms) and
reports, over the whole domain:

- expected cost of Scheme B (random pick) = mean over everything,
- expected cost of the best *fixed* choice (the strongest Scheme A can do),
- expected cost of Scheme C (parallel worlds) = E[min] + overhead,
- domain PI, win fraction, and a complementarity score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.analysis.model import performance_improvement

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DomainPoint:
    """Per-input summary: the PI story at one point of the domain."""

    index: int
    times: tuple[float, ...]
    pi: float
    winner: int  # argmin alternative

    @property
    def wins(self) -> bool:
        return self.pi > 1.0


class DomainAnalysis:
    """Aggregate Scheme A/B/C economics over an input domain.

    Parameters
    ----------
    times:
        Matrix of runtimes, shape (n_inputs, n_algorithms).
    overhead:
        Per-input worlds overhead (scalar or per-input array).
    """

    def __init__(self, times: Sequence[Sequence[float]], overhead: float | Sequence[float] = 0.0) -> None:
        import numpy as np

        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 2 or self.times.size == 0:
            raise ValueError("times must be a non-empty (inputs × algorithms) matrix")
        if np.any(self.times < 0):
            raise ValueError("runtimes must be non-negative")
        self.overhead = np.broadcast_to(
            np.asarray(overhead, dtype=float), (self.times.shape[0],)
        ).copy()
        if np.any(self.overhead < 0):
            raise ValueError("overhead must be non-negative")

    @property
    def n_inputs(self) -> int:
        return self.times.shape[0]

    @property
    def n_algorithms(self) -> int:
        return self.times.shape[1]

    # -- per-scheme expected costs ------------------------------------------
    def scheme_b_expected(self) -> float:
        """E[τ] under a uniformly random pick per input (Scheme B)."""
        return float(self.times.mean())

    def best_fixed_algorithm(self) -> int:
        """The single algorithm with the lowest domain-wide mean (Scheme A)."""
        return int(self.times.mean(axis=0).argmin())

    def scheme_a_expected(self) -> float:
        """E[τ] when always running the best fixed algorithm."""
        return float(self.times.mean(axis=0).min())

    def scheme_c_expected(self) -> float:
        """E[τ] under parallel worlds: E[min + overhead]."""
        return float((self.times.min(axis=1) + self.overhead).mean())

    # -- domain-level indices ---------------------------------------------------
    def domain_pi(self) -> float:
        """Domain PI: Scheme B expectation over Scheme C expectation."""
        return self.scheme_b_expected() / self.scheme_c_expected()

    def pi_vs_best_fixed(self) -> float:
        """Parallel worlds against the strongest sequential policy."""
        return self.scheme_a_expected() / self.scheme_c_expected()

    def win_fraction(self) -> float:
        """Fraction of inputs where PI > 1 (parallel beats random pick)."""
        import numpy as np

        return float(np.mean([p.wins for p in self.points()]))

    def complementarity(self) -> float:
        """How well algorithms cover each other's weak inputs, in [0, 1].

        For each input: 1 - min/max over alternatives (0 when all equal).
        High mean means wherever one algorithm is slow, another is fast —
        the paper's "best case".
        """
        import numpy as np

        mins = self.times.min(axis=1)
        maxs = self.times.max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(maxs > 0, 1.0 - mins / maxs, 0.0)
        return float(ratios.mean())

    def winner_histogram(self) -> np.ndarray:
        """How often each algorithm is fastest (counts per algorithm).

        A spread-out histogram is the unpredictability the paper wants; a
        point mass means a fixed choice (Scheme A) already suffices.
        """
        import numpy as np

        winners = self.times.argmin(axis=1)
        return np.bincount(winners, minlength=self.n_algorithms)

    def points(self) -> list[DomainPoint]:
        out = []
        for i in range(self.n_inputs):
            row = self.times[i]
            out.append(
                DomainPoint(
                    index=i,
                    times=tuple(row.tolist()),
                    pi=performance_improvement(row, float(self.overhead[i])),
                    winner=int(row.argmin()),
                )
            )
        return out

    def summary(self) -> dict[str, float]:
        return {
            "scheme_a_expected": self.scheme_a_expected(),
            "scheme_b_expected": self.scheme_b_expected(),
            "scheme_c_expected": self.scheme_c_expected(),
            "domain_pi": self.domain_pi(),
            "pi_vs_best_fixed": self.pi_vs_best_fixed(),
            "win_fraction": self.win_fraction(),
            "complementarity": self.complementarity(),
        }
