"""The paper's three selection schemes (section 3.2).

Given N alternative methods C_1..C_N for the same computation:

- **Scheme A** — apply statistical knowledge ("quicksort is almost always
  O(n log n)"): pick the method with the best historical record.
- **Scheme B** — pick uniformly at random; repeated over an input this
  performs at the arithmetic mean C_mean, and is *frustrated by failures
  or infinite loops* (a random pick can land on a diverging method).
- **Scheme C** — run all alternatives concurrently, select the first
  acceptable output, terminate the rest (Multiple Worlds).

Scheme C is implemented by the backends; this module supplies the A and B
selectors plus C's analytic expectation so benches can compare all three.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.analysis.model import c_best, c_mean


def scheme_a(history: Sequence[Sequence[float]]) -> int:
    """Pick the alternative with the lowest historical mean runtime.

    ``history`` is a (runs × alternatives) matrix of past runtimes;
    failed/diverged runs should be recorded as ``math.inf``. Relies on
    "information which may not be available" — with an empty or
    uninformative history the choice is arbitrary (index 0).
    """
    import numpy as np

    arr = np.asarray(history, dtype=float)
    if arr.size == 0:
        return 0
    if arr.ndim != 2:
        raise ValueError("history must be a (runs × alternatives) matrix")
    means = arr.mean(axis=0)
    if np.all(np.isinf(means)):
        return 0
    return int(np.nanargmin(np.where(np.isinf(means), np.nan, means)))


def scheme_b(n_alternatives: int, rng) -> int:
    """Pick an alternative uniformly at random.

    ``rng`` is anything exposing ``integers(low, high)`` — e.g.
    :class:`repro.util.rng.ReplayableRNG` or ``numpy.random.Generator``.
    """
    if n_alternatives <= 0:
        raise ValueError("need at least one alternative")
    return int(rng.integers(0, n_alternatives))


def scheme_b_expectation(times: Sequence[float]) -> float:
    """Expected runtime of Scheme B on one input: C_mean.

    Any ``inf`` entry (failure / infinite loop) makes the expectation
    infinite — the paper's observation that failures frustrate Scheme B.
    """
    if any(math.isinf(t) for t in times):
        return math.inf
    return c_mean(times)


def scheme_c_expectation(times: Sequence[float], overhead: float = 0.0) -> float:
    """Expected runtime of Scheme C on one input: C_best + overhead.

    Diverging alternatives cost nothing extra as long as at least one
    alternative terminates — they are eliminated when the winner commits.
    """
    finite = [t for t in times if not math.isinf(t)]
    if not finite:
        return math.inf
    return c_best(finite) + overhead


def scheme_comparison(times: Sequence[float], overhead: float = 0.0,
                      history: Sequence[Sequence[float]] | None = None) -> dict[str, float]:
    """Expected runtimes of all three schemes on one input.

    Scheme A's entry uses the historically best alternative's time on
    *this* input (which may be far from this input's best — that is the
    scheme's weakness).
    """
    pick_a = scheme_a(history) if history is not None else 0
    return {
        "scheme_a": float(times[pick_a]),
        "scheme_b": scheme_b_expectation(times),
        "scheme_c": scheme_c_expectation(times, overhead),
    }
