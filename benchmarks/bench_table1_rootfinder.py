"""Table I: the parallel Jenkins-Traub rootfinder.

The paper's Table I (2-processor Ardent Titan, complex Jenkins-Traub with
random starting angles):

    procs   max    min    avg  fails    par
        1  4.01   4.01   4.01      0   4.37
        2  4.49   4.07   4.28      0   4.25
        3  4.45   2.03   3.50      0   4.74
        4  4.48   1.37   3.31      0   5.19
        5  4.27   2.36   3.35      2   8.61
        6  4.50   2.02   3.65      0   7.03

We measure the sequential per-angle-seed times on this host, then replay
the parallel race on a simulated 2-CPU machine (this container exposes a
single CPU; see DESIGN.md section 3 for the substitution). The *shape*
claims asserted below:

- with 2 processes on 2 CPUs, par ~= min + overhead and beats avg
  (the paper's 4.25 < 4.28);
- beyond 2 processes the processors saturate and par grows past the
  sequential times (the paper's 4.74 / 5.19 / 8.61 / 7.03);
- some angle seeds fail under a tight iteration budget (the paper's
  2 fails at procs = 5) without harming the block.
"""

import math

import pytest

from _harness import report
from apps.poly.rootfind.parallel import (
    ParallelRootfinder,
    default_table_polynomial,
    render_table_one,
)

PROCS = [1, 2, 3, 4, 5, 6]
PROCESSORS = 2  # the Ardent Titan had two


def generate(degree: int = 40, base_seed: int = 0):
    finder = ParallelRootfinder(default_table_polynomial(degree=degree))
    return finder.table_one(PROCS, base_seed=base_seed, processors=PROCESSORS)


def test_table1(benchmark):
    rows = benchmark.pedantic(generate, iterations=1, rounds=1)
    text = render_table_one(rows)
    report(
        "table1_rootfinder",
        text + "\n\n(times in seconds; parallel column on a simulated "
        f"{PROCESSORS}-CPU machine;\nsequential columns measured on this host)",
    )

    by_procs = {r.procs: r for r in rows}
    # basic sanity on every row
    for row in rows:
        assert row.min_s <= row.avg_s <= row.max_s
        assert math.isfinite(row.par_s)

    # procs=1: par ~ the single run plus small overhead
    assert by_procs[1].par_s >= by_procs[1].min_s
    assert by_procs[1].par_s == pytest.approx(by_procs[1].min_s, rel=0.25)

    # procs=2 on 2 CPUs: the headline — parallel tracks min and beats the
    # average whenever the two seeds actually disperse. (The paper's own
    # margin is hairline: 4.25 vs 4.28.) With negligible dispersion the
    # two are equal to within noise, never meaningfully worse.
    row2 = by_procs[2]
    dispersion = row2.avg_s - row2.min_s
    if dispersion > 0.05 * row2.avg_s:
        assert row2.par_s < row2.avg_s
    assert row2.par_s <= row2.avg_s * 1.05
    assert row2.par_s == pytest.approx(row2.min_s, rel=0.25)

    # saturation: 6 processes on 2 CPUs cost clearly more than 2 do
    assert by_procs[6].par_s > by_procs[2].par_s
    # and, as in the paper's procs>=3 rows, par exceeds this row's max
    assert by_procs[6].par_s > by_procs[6].max_s

    # the tight angle budget produces some failures across the sweep,
    # and they never prevent the parallel run from completing
    assert sum(r.fails for r in rows) >= 1


def test_table1_one_cpu_per_process(benchmark):
    """The paper: "Ideally, there would be one processor for each
    process" — then par tracks min even at 6 processes."""

    def run():
        finder = ParallelRootfinder(default_table_polynomial(degree=40))
        runs = finder.sequential_runs(range(6))
        par = finder._parallel_sim(runs, processors=6)
        ok_min = min(r.elapsed_s for r in runs if not r.failed)
        avg = sum(r.elapsed_s for r in runs) / len(runs)
        return par, ok_min, avg

    par, ok_min, avg = benchmark.pedantic(run, iterations=1, rounds=1)
    # par tracks the fastest SUCCESSFUL seed (failed seeds stop early and
    # can undercut the min column without being eligible to win)
    assert par == pytest.approx(ok_min, rel=0.05)
    assert par < avg


def test_table1_winner_correctness(benchmark):
    """Whoever wins the race, the zeros are true zeros."""

    def run():
        finder = ParallelRootfinder(default_table_polynomial(degree=24))
        outcome = finder.parallel_run(range(4), backend="thread")
        return finder, outcome

    finder, outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    assert not outcome.failed
    zeros = outcome.extras["state"]["zeros"]
    assert len(zeros) == finder.poly.degree
    for z in zeros:
        value, bound = finder.poly.eval_with_error_bound(z)
        assert abs(value) <= max(bound * 50, 1e-250)


if __name__ == "__main__":
    print(render_table_one(generate()))
