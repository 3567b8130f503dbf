"""Figure 4: PI as a function of R_o, with R_mu held at e.

The paper plots ``PI = (1/(1+R_o)) * e`` on log-log axes for R_o roughly
in [0.01, 1]: PI falls from ~e toward e/2, crossing the whole useful
range — "varying the overhead has a significant effect on the
performance improvement we achieve, when scaled against the variance in
execution times."

Analytic curve plus measured simulation-kernel executions, as in the
Figure 3 bench.
"""

import math

import pytest

from _harness import report, table
from repro.analysis.model import figure4_curve
from bench_fig3_pi_vs_rmu import measure_pi

R_MU = math.e
R_O_GRID = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.7, 1.0]


def generate() -> list[tuple[float, float, float]]:
    analytic = dict(figure4_curve(R_O_GRID, R_MU))
    return [(ro, analytic[ro], measure_pi(R_MU, ro)) for ro in R_O_GRID]


def figure4_text(rows):
    text = table(["R_o", "PI analytic", "PI measured"], rows)
    return text + f"\n\n(R_mu = e = {R_MU:.4f}; paper Figure 4, log-log)"


def test_figure4(benchmark):
    rows = benchmark.pedantic(generate, iterations=1, rounds=1)
    report("fig4_pi_vs_ro", figure4_text(rows))

    for _, analytic, measured in rows:
        assert measured == pytest.approx(analytic, rel=0.02)
    # monotonically decreasing in overhead
    measured_series = [m for _, _, m in rows]
    assert measured_series == sorted(measured_series, reverse=True)
    # endpoints: near e at negligible overhead, e/2 at R_o = 1
    assert rows[0][2] == pytest.approx(R_MU, rel=0.03)
    assert rows[-1][2] == pytest.approx(R_MU / 2, rel=0.03)
    # PI stays above 1 across the whole plotted range (R_mu = e is
    # comfortable dispersion) — the paper's curve never dips below ~1.35
    assert min(measured_series) > 1.3


def test_log_log_slope_tail(benchmark):
    """For large R_o the log-log curve approaches slope -1."""

    def tail_slope() -> float:
        lo, hi = 20.0, 200.0
        pi_lo = measure_pi(R_MU, lo)
        pi_hi = measure_pi(R_MU, hi)
        return (math.log(pi_hi) - math.log(pi_lo)) / (math.log(hi) - math.log(lo))

    slope = benchmark.pedantic(tail_slope, iterations=1, rounds=1)
    assert slope == pytest.approx(-1.0, abs=0.05)


if __name__ == "__main__":
    for row in generate():
        print(row)
