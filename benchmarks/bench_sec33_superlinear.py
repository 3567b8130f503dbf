"""Section 3.3: superlinear speedup.

"An important fact which we can deduce from this performance analysis is
that with sufficient variance, and small enough overhead, N processors
can exhibit superlinear speedup by parallel execution of N serial
algorithms, as opposed to parallel execution of one serial algorithm
which has been 'parallelized'."

The bench sweeps the dispersion of an N-alternative workload and finds
where PI (against the sequential expectation C_mean) exceeds N —
measured on real simulation-kernel executions.
"""

import pytest

from _harness import report, table
from repro.analysis.model import performance_improvement, superlinear_condition
from repro.core import Alternative, run_alternatives_sim

N = 4
BEST_S = 1.0


def skewed_times(ratio: float) -> list[float]:
    """One fast alternative, N-1 slow ones `ratio` times slower."""
    return [BEST_S] + [BEST_S * ratio] * (N - 1)


def measured_pi(times: list[float]) -> float:
    alternatives = [
        Alternative(lambda ws, _i=i: _i, name=f"alg{i}", sim_cost=t)
        for i, t in enumerate(times)
    ]
    outcome, _ = run_alternatives_sim(alternatives, cpus=N)
    c_mean = sum(times) / len(times)
    return c_mean / outcome.elapsed_s


def generate():
    rows = []
    for ratio in [1, 2, 4, 5, 6, 8, 16, 32]:
        times = skewed_times(ratio)
        analytic = performance_improvement(times, overhead=0.0)
        measured = measured_pi(times)
        rows.append((ratio, analytic, measured, measured > N))
    return rows


def superlinear_text(rows):
    text = table(
        ["slow/fast ratio", "PI analytic", "PI measured", f"> N={N}?"],
        rows,
    )
    return text + (
        "\n\nPI measured against the sequential expectation C_mean on"
        f" {N} virtual CPUs;\nPI > {N} is superlinear speedup from {N}"
        " processors."
    )


def test_superlinear_crossover(benchmark):
    rows = benchmark.pedantic(generate, iterations=1, rounds=1)
    report("sec33_superlinear", superlinear_text(rows))

    for ratio, analytic, measured, flag in rows:
        assert measured == pytest.approx(analytic, rel=0.02)
    # crossover: PI > N requires mean/best > N, i.e. ratio > (N^2-1)/(N-1)
    crossover_ratio = (N * N - 1) / (N - 1)  # = 5 for N = 4
    for ratio, _, measured, flag in rows:
        assert flag == (measured > N)
        if ratio < crossover_ratio:
            assert not flag
        if ratio > crossover_ratio:
            assert flag


def test_superlinear_condition_helper(benchmark):
    result = benchmark(superlinear_condition, skewed_times(32), 0.0)
    assert result is True
    assert not superlinear_condition(skewed_times(2), 0.0)


def test_overhead_destroys_superlinearity(benchmark):
    """Same dispersion, heavy overhead: back below N."""

    def run():
        times = skewed_times(32)
        return performance_improvement(times, overhead=10 * BEST_S)

    value = benchmark.pedantic(run, iterations=1, rounds=1)
    assert value < N


if __name__ == "__main__":
    for row in generate():
        print(row)
