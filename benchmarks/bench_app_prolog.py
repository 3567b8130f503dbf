"""Application bench: OR-parallelism in Prolog (paper section 4.2).

Not a numbered table in the paper, but the section's core claim made
measurable: at a choice point whose branches have wildly different
costs, committed-choice OR-parallel execution pays ~the cheapest
successful branch while depth-first sequential execution pays the sum of
every branch before the answer. The bench reports both, plus the
utilization ledger (OR-parallelism buys response time with wasted
speculative inferences).
"""

import pytest

from _harness import report, table
from apps.prolog import Database, ORParallelEngine
from apps.prolog.programs import SKEWED_SEARCH

PER_INFERENCE_S = 1e-4


def generate():
    db = Database.from_source(SKEWED_SEARCH)
    engine = ORParallelEngine(db)

    solution_seq, stats = engine.solve_first_sequential("find(W)")
    seq_inferences = stats.inferences + stats.builtin_calls

    work = engine.branch_work("find(W)")
    branch_rows = [
        (w.index, w.clause_str, w.inferences, "yes" if w.succeeds else "no")
        for w in work
    ]

    solution_par, outcome = engine.solve_first_sim(
        "find(W)", per_inference_s=PER_INFERENCE_S, cpus=len(work)
    )
    return {
        "seq_answer": str(solution_seq),
        "seq_virtual_s": seq_inferences * PER_INFERENCE_S,
        "branch_rows": branch_rows,
        "par_answer": str(solution_par),
        "par_virtual_s": outcome.elapsed_s,
        "winner": outcome.winner.name,
        "total_branch_inferences": sum(w.inferences for w in work),
    }


def prolog_text(data):
    text = table(
        ["branch", "clause", "inferences", "finds proof"],
        data["branch_rows"], fmt="6.0f",
    )
    return text + (
        f"\n\nsequential: {data['seq_answer']!r} in "
        f"{data['seq_virtual_s']:.4f} virtual s"
        f"\nOR-parallel: {data['par_answer']!r} in "
        f"{data['par_virtual_s']:.4f} virtual s (winner {data['winner']})"
        f"\nspeedup: {data['seq_virtual_s'] / data['par_virtual_s']:.1f}x"
    )


def test_or_parallel_prolog(benchmark):
    data = benchmark.pedantic(generate, iterations=1, rounds=1)
    report("app_prolog_orparallel", prolog_text(data))

    assert data["seq_answer"] == data["par_answer"]
    # committed-choice pays ~the cheapest successful branch
    cheapest = min(r[2] for r in data["branch_rows"] if r[3] == "yes")
    assert data["par_virtual_s"] == pytest.approx(
        cheapest * PER_INFERENCE_S, rel=0.25
    )
    # sequential depth-first paid for the dead ends first
    assert data["seq_virtual_s"] > 5 * data["par_virtual_s"]


def test_throughput_cost_of_or_parallelism(benchmark):
    """The flip side: OR-parallelism consumes more total inferences."""

    def run():
        db = Database.from_source(SKEWED_SEARCH)
        engine = ORParallelEngine(db)
        _, stats = engine.solve_first_sequential("find(W)")
        seq = stats.inferences + stats.builtin_calls
        par_total = sum(w.inferences for w in engine.branch_work("find(W)"))
        return seq, par_total

    seq, par_total = benchmark.pedantic(run, iterations=1, rounds=1)
    # the parallel run explores every branch to completion (or failure):
    # at least as much total work as the sequential prefix
    assert par_total >= seq * 0.9


if __name__ == "__main__":
    data = generate()
    for key, value in data.items():
        print(key, ":", value)
