#!/usr/bin/env python3
"""OR-parallel Prolog (paper section 4.2).

A route-planning knowledge base where clause order is pessimal for
depth-first search: the first rules explore an expensive dead-end region
before the rule that actually reaches the goal. Sequential SLD resolution
grinds through the dead ends in order; the OR-parallel engine runs every
clause of the top goal as its own world and commits the first proof.
"""

import pathlib
import sys

# the paper's section-4 workloads live beside the benches that run them
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))

from apps.prolog import Database, Interpreter, ORParallelEngine

PROGRAM = """
% a graph: dense maze on the left, a short corridor on the right
edge(start, m1).  edge(m1, m2).  edge(m2, m3).  edge(m3, m4).
edge(m4, m1).     edge(m2, m1).  edge(m3, m2).  edge(m4, m3).
edge(start, c1).  edge(c1, c2).  edge(c2, goal).

% depth-bounded path search (the maze has cycles)
path(X, X, _).
path(X, Y, D) :- D > 0, edge(X, Z), D1 is D - 1, path(Z, Y, D1).

% three strategies for reaching the goal; the productive one is LAST
reach(P) :- maze_search(P).
reach(P) :- exhaustive_sweep(P).
reach(P) :- corridor(P).

maze_search(m_route)   :- path(start, goal, 7), fail.   % explores, fails
exhaustive_sweep(sweep) :- path(start, goal, 9), fail.  % worse
corridor(c_route)       :- path(c1, goal, 3).
"""


def main() -> None:
    db = Database.from_source(PROGRAM)

    print("=== sequential SLD resolution ===")
    interp = Interpreter(db)
    solution = interp.solve_first("reach(P)")
    stats = interp.last_stats
    seq_work = stats.inferences + stats.builtin_calls
    print(f"answer: {solution}")
    print(f"work  : {seq_work} inferences (ground through both dead ends first)")

    print("\n=== OR-parallel (committed choice) ===")
    engine = ORParallelEngine(db)
    for work_item in engine.branch_work("reach(P)"):
        status = "finds a proof" if work_item.succeeds else "fails"
        print(f"  branch {work_item.index} [{work_item.clause_str:<35}] "
              f"{work_item.inferences:>6} inferences, {status}")

    solution, outcome = engine.solve_first_sim("reach(P)", per_inference_s=1e-4)
    print(f"answer: {solution}")
    print(f"winner: {outcome.winner.name}")
    par_virtual = outcome.elapsed_s
    seq_virtual = seq_work * 1e-4
    print(f"virtual response: parallel {par_virtual:.4f} s "
          f"vs sequential {seq_virtual:.4f} s "
          f"({seq_virtual / par_virtual:.1f}x better)")

    print("\n=== the same race on real threads ===")
    solution, _ = engine.solve_first_parallel("reach(P)", backend="thread")
    print(f"answer: {solution}")


if __name__ == "__main__":
    main()
