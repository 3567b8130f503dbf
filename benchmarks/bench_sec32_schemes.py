"""Section 3.2: the three selection schemes.

- Scheme A (statistics) picks the historically best method — and loses
  whenever the input deviates from history;
- Scheme B (random pick) "will perform at the arithmetic mean of the
  computations' performance" and is "frustrated by failures or infinite
  loops";
- Scheme C (parallel worlds) pays ~the best alternative plus overhead.

The bench builds an input domain where the methods' strengths rotate,
evaluates all three schemes analytically AND by executing Scheme C on
the simulation kernel, and reproduces the Scheme B frustration with a
diverging alternative.
"""

import math

import pytest

from _harness import report, table
from repro.analysis.domain import DomainAnalysis
from repro.core import Alternative, run_alternatives_sim
from repro.core.schemes import (
    scheme_a,
    scheme_b,
    scheme_b_expectation,
    scheme_c_expectation,
)
from repro.util.rng import ReplayableRNG

# runtimes (s) of 3 algorithms over a 6-input domain: each algorithm is
# best somewhere (the paper's "different and unpredictable points")
TIMES = [
    [1.0, 4.0, 5.0],
    [1.2, 3.5, 4.0],
    [5.0, 1.0, 4.5],
    [4.0, 1.5, 5.0],
    [4.5, 5.0, 1.0],
    [3.5, 4.0, 1.3],
]
OVERHEAD = 0.1


def measured_scheme_c(times: list[float]) -> float:
    """Actually run one input's alternatives on the simulation kernel.

    The machine profile injects the same OVERHEAD seconds of block setup
    the analytic column assumes, so the two columns are comparable.
    """
    from dataclasses import replace

    from repro.analysis.calibration import MODERN_SIM

    profile = replace(
        MODERN_SIM,
        fork_fixed_s=OVERHEAD / len(times),
        pte_copy_s=0.0,
        kill_sync_s=0.0,
        kill_async_s=0.0,
    )
    alternatives = [
        Alternative(lambda ws, _i=i: _i, name=f"alg{i}", sim_cost=t)
        for i, t in enumerate(times)
    ]
    outcome, _ = run_alternatives_sim(alternatives, profile=profile, cpus=len(times))
    return outcome.elapsed_s


def generate():
    domain = DomainAnalysis(TIMES, overhead=OVERHEAD)
    rows = []
    for i, times in enumerate(TIMES):
        rows.append(
            (
                f"input{i}",
                times[domain.best_fixed_algorithm()],
                scheme_b_expectation(times),
                scheme_c_expectation(times, OVERHEAD),
                measured_scheme_c(times),
            )
        )
    summary = domain.summary()
    return rows, summary


def schemes_text(rows, summary):
    text = table(
        ["input", "A (best fixed)", "B = C_mean", "C analytic", "C measured"],
        rows,
    )
    return text + "\n\ndomain summary:\n" + "\n".join(
        f"  {k:>20}: {v:.4f}" for k, v in summary.items()
    )


def test_schemes_comparison(benchmark):
    rows, summary = benchmark.pedantic(generate, iterations=1, rounds=1)
    report("sec32_schemes", schemes_text(rows, summary))

    # Scheme C beats Scheme B on every input of this domain
    for _, _, b, c_analytic, c_measured in rows:
        assert c_analytic < b
        assert c_measured == pytest.approx(c_analytic, rel=0.02)

    # domain-level: C beats B and even the best fixed choice
    assert summary["domain_pi"] > 1.0
    assert summary["pi_vs_best_fixed"] > 1.0
    assert summary["win_fraction"] == 1.0
    # winners rotate across the domain (unpredictability)
    domain = DomainAnalysis(TIMES, overhead=OVERHEAD)
    assert (domain.winner_histogram() > 0).all()


def test_scheme_b_frustrated_by_divergence(benchmark):
    """An infinite-loop alternative ruins B's expectation; C shrugs."""
    times_with_divergence = [2.0, math.inf, 1.0]

    def evaluate():
        b = scheme_b_expectation(times_with_divergence)
        c = scheme_c_expectation(times_with_divergence, OVERHEAD)
        # and actually run it: one alternative never terminates
        def diverges(ctx):
            while True:
                yield ctx.compute(1.0)

        alternatives = [
            Alternative(lambda ws: "t2", name="t2", sim_cost=2.0),
            Alternative(diverges, name="spin"),
            Alternative(lambda ws: "t1", name="t1", sim_cost=1.0),
        ]
        outcome, _ = run_alternatives_sim(alternatives, cpus=3)
        return b, c, outcome

    b, c, outcome = benchmark.pedantic(evaluate, iterations=1, rounds=1)
    assert math.isinf(b)
    assert c == pytest.approx(1.0 + OVERHEAD)
    assert outcome.value == "t1"
    assert outcome.elapsed_s == pytest.approx(1.0, rel=0.05)


def test_scheme_selectors(benchmark):
    """The A and B selectors behave as specified."""

    def run():
        history = [[1.0, 9.0], [1.2, 8.0], [0.9, 7.5]]
        a_pick = scheme_a(history)
        rng = ReplayableRNG(0)
        b_picks = {scheme_b(4, rng) for _ in range(200)}
        return a_pick, b_picks

    a_pick, b_picks = benchmark.pedantic(run, iterations=1, rounds=1)
    assert a_pick == 0  # historically dominant
    assert b_picks == {0, 1, 2, 3}  # uniform random reaches everything


if __name__ == "__main__":
    rows, summary = generate()
    for row in rows:
        print(row)
    print(summary)
