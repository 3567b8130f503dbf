"""Application bench: the paper's quicksort motivation, quantified.

Section 3.2's Scheme A example — "quicksort is 'almost always'
O(n log n)" — and its failure mode. Over a domain of input classes the
sorting algorithms rotate as winners; the bench computes the full
Scheme A/B/C economics on measured comparison counts and runs the worlds
race on the simulation kernel for one adversarial input.
"""

import numpy as np
import pytest

from _harness import report, table
from repro.analysis.domain import DomainAnalysis
from apps.sorting import domain_matrix, make_input, comparison_counts
from repro.core import Alternative, run_alternatives_sim

N = 400
COMPARISON_S = 1e-5  # virtual seconds per comparison


def generate():
    kinds, names, rows = domain_matrix(n=N)
    matrix_rows = [
        (kind, *counts, names[int(np.argmin(counts))])
        for kind, counts in zip(kinds, rows)
    ]
    return names, matrix_rows, DomainAnalysis(rows).summary()


def domain_text(names, matrix_rows, summary):
    text = table(["input class", *names, "winner"], matrix_rows, fmt="8.0f")
    return text + "\n\ndomain summary (comparisons as cost):\n" + "\n".join(
        f"  {k:>20}: {v:,.2f}" for k, v in summary.items()
    )


def test_sorting_domain_analysis(benchmark):
    names, matrix_rows, summary = benchmark.pedantic(
        generate, iterations=1, rounds=1
    )
    report("app_sorting_domain", domain_text(names, matrix_rows, summary))

    # winners rotate — the unpredictability Scheme C feeds on
    winners = {r[-1] for r in matrix_rows}
    assert len(winners) >= 2
    # racing the sorts beats the random pick across the domain
    assert summary["domain_pi"] > 1.0
    # and beats even the best fixed algorithm (Scheme A's ceiling)
    assert summary["pi_vs_best_fixed"] > 1.0


def test_adversarial_input_race(benchmark):
    """On sorted input, quicksort degrades; the race shrugs it off."""

    def run():
        data = make_input("sorted", N)
        counts = comparison_counts(data)
        alternatives = [
            Alternative(
                lambda ws, _n=name: _n,
                name=name,
                sim_cost=count * COMPARISON_S,
            )
            for name, count in counts.items()
        ]
        outcome, _ = run_alternatives_sim(alternatives, cpus=len(alternatives))
        return counts, outcome

    counts, outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    # the paper's 'almost always' choice is the worst here
    assert counts["quicksort"] == max(counts.values())
    assert outcome.value != "quicksort"
    best = min(counts.values())
    assert outcome.elapsed_s == pytest.approx(best * COMPARISON_S, rel=0.1)


if __name__ == "__main__":
    print(generate()[1])
