"""Figure 3: PI as a function of R_mu, with R_o held at 0.5.

The paper plots ``PI = (1/(1+R_o)) * R_mu`` for R_mu in [0, 5] at
R_o = 0.5 — a line of slope 2/3 crossing PI = 1 at R_mu = 1.5.

We regenerate it two ways:

- **analytic** — the closed form;
- **measured** — actual simulation-kernel executions: 4 alternatives
  whose virtual costs hit the target R_mu, on a machine profile whose
  fork cost injects exactly R_o = 0.5 of setup overhead; the measured PI
  is C_mean divided by the parent's observed response time.

The measured points land on the analytic line to within scheduling
granularity, and the PI > 1 crossover sits at R_mu = 1 + R_o = 1.5.
"""

from dataclasses import replace

import pytest

from _harness import report, table
from repro.analysis.calibration import MODERN_SIM
from repro.analysis.model import figure3_curve, pi_from_ratios
from repro.core import Alternative, run_alternatives_sim

R_O = 0.5
BEST_S = 1.0
N_ALTS = 4
R_MU_GRID = [1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0]


def _costs_for_r_mu(r_mu: float) -> list[float]:
    """N alternative durations with min = BEST_S and mean = r_mu * BEST_S."""
    mean = r_mu * BEST_S
    # best stays at BEST_S; spread the rest symmetrically around the
    # remaining mass so the mean is exact
    others_mean = (mean * N_ALTS - BEST_S) / (N_ALTS - 1)
    # keep every cost >= BEST_S so the minimum stays pinned
    spread = min(0.25 * others_mean, others_mean - BEST_S)
    others = [others_mean - spread, others_mean, others_mean + spread]
    costs = [BEST_S] + others
    assert min(costs) == BEST_S
    return costs


def _profile_with_overhead(overhead_s: float):
    """A machine whose alt_spawn costs exactly ``overhead_s`` in total."""
    return replace(
        MODERN_SIM,
        fork_fixed_s=overhead_s / N_ALTS,
        pte_copy_s=0.0,
        kill_sync_s=0.0,
        kill_async_s=0.0,
        page_copy_s=0.0,
    )


def measure_pi(r_mu: float, r_o: float = R_O) -> float:
    """One simulated execution; returns C_mean / measured response."""
    costs = _costs_for_r_mu(r_mu)
    profile = _profile_with_overhead(r_o * BEST_S)
    alternatives = [
        Alternative(lambda ws, _i=i: _i, name=f"alt{i}", sim_cost=cost)
        for i, cost in enumerate(costs)
    ]
    outcome, _ = run_alternatives_sim(
        alternatives, profile=profile, cpus=N_ALTS
    )
    c_mean = sum(costs) / len(costs)
    return c_mean / outcome.elapsed_s


def generate() -> list[tuple[float, float, float]]:
    """(R_mu, analytic PI, measured PI) rows."""
    analytic = dict(figure3_curve(R_MU_GRID, R_O))
    return [(rm, analytic[rm], measure_pi(rm)) for rm in R_MU_GRID]


def figure3_text(rows):
    text = table(["R_mu", "PI analytic", "PI measured"], rows)
    return text + "\n\n(R_o = 0.5; paper Figure 3)"


def test_figure3(benchmark):
    rows = benchmark.pedantic(generate, iterations=1, rounds=1)
    report("fig3_pi_vs_rmu", figure3_text(rows))

    for r_mu, analytic, measured in rows:
        # measured executions track the closed form
        assert measured == pytest.approx(analytic, rel=0.02)
    # the crossover: parallel wins iff R_mu > 1 + R_o
    below = [m for rm, _, m in rows if rm < 1.5]
    above = [m for rm, _, m in rows if rm > 1.5]
    assert all(m < 1.0 for m in below)
    assert all(m > 1.0 for m in above)
    # slope of the line is 1/(1+R_o) = 2/3
    (rm1, _, m1), (rm2, _, m2) = rows[0], rows[-1]
    slope = (m2 - m1) / (rm2 - rm1)
    assert slope == pytest.approx(1 / (1 + R_O), rel=0.03)


def test_breakeven_point(benchmark):
    """PI at exactly R_mu = 1 + R_o is exactly 1 (analytically)."""
    value = benchmark(pi_from_ratios, 1.0 + R_O, R_O)
    assert value == pytest.approx(1.0)


if __name__ == "__main__":
    for row in generate():
        print(row)
