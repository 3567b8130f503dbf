"""Tests for the OR-parallel (Multiple Worlds) Prolog execution."""

import pytest

from apps.prolog.database import Database
from apps.prolog.interpreter import Interpreter
from apps.prolog.orparallel import ORParallelEngine
from apps.errors import PrologError

# a program where clause order punishes depth-first search: the FIRST
# route predicate explores a big useless subtree before the answer, the
# SECOND finds it immediately.
SKEWED = """
slow(0).
slow(N) :- N > 0, M is N - 1, slow(M).

route(X) :- slow(200), fail.
route(X) :- X = found.

color(red).
color(green).
color(blue).
"""


@pytest.fixture(scope="module")
def engine():
    return ORParallelEngine(Database.from_source(SKEWED))


class TestBranches:
    def test_one_branch_per_matching_clause(self, engine):
        branches = engine.branches("route(X)")
        assert len(branches) == 2

    def test_builtin_first_goal_rejected(self, engine):
        with pytest.raises(PrologError):
            engine.branches("X = 1, route(X)")

    def test_unknown_predicate_rejected(self, engine):
        with pytest.raises(PrologError):
            engine.branches("nosuch(X)")

    def test_facts_branch_per_fact(self, engine):
        assert len(engine.branches("color(C)")) == 3

    def test_non_unifying_heads_excluded(self):
        engine = ORParallelEngine(Database.from_source("p(a). p(b)."))
        assert len(engine.branches("p(a)")) == 1


class TestBranchWork:
    def test_work_is_skewed(self, engine):
        work = engine.branch_work("route(X)")
        assert work[0].inferences > 50 * work[1].inferences
        assert not work[0].succeeds
        assert work[1].succeeds
        assert str(work[1].solution["X"]) == "found"


class TestSimulatedRace:
    def test_committed_choice_takes_cheap_branch(self, engine):
        solution, outcome = engine.solve_first_sim("route(X)")
        assert str(solution["X"]) == "found"
        assert outcome.winner.name == "clause-1"

    def test_parallel_beats_sequential_on_skewed_order(self, engine):
        per_inf = 1e-4
        _, stats = engine.solve_first_sequential("route(X)")
        sequential_virtual = (stats.inferences + stats.builtin_calls) * per_inf
        _, outcome = engine.solve_first_sim("route(X)", per_inference_s=per_inf)
        # sequential depth-first had to grind through the slow branch;
        # the OR-parallel race pays only the cheap branch + overhead
        assert outcome.elapsed_s < sequential_virtual / 10

    def test_all_branches_failing_gives_failure(self):
        engine = ORParallelEngine(
            Database.from_source("p(X) :- fail. p(X) :- 1 > 2.")
        )
        solution, outcome = engine.solve_first_sim("p(X)")
        assert solution is None
        assert outcome.failed


class TestRealBackends:
    def test_thread_backend(self, engine):
        solution, outcome = engine.solve_first_parallel("route(X)", backend="thread")
        assert str(solution["X"]) == "found"

    def test_fork_backend(self, engine):
        import os

        if not hasattr(os, "fork"):
            pytest.skip("needs fork")
        solution, outcome = engine.solve_first_parallel("route(X)", backend="fork")
        assert str(solution["X"]) == "found"

    def test_thread_backend_failure(self):
        engine = ORParallelEngine(Database.from_source("p(X) :- fail."))
        solution, outcome = engine.solve_first_parallel("p(X)", backend="thread")
        assert solution is None and outcome.failed


class TestSemantics:
    def test_committed_answer_is_a_sequential_answer(self, engine):
        """Sequential semantics: the committed solution must be one the
        sequential engine could have produced (paper section 3.3)."""
        interp = Interpreter(engine.db)
        all_answers = {str(s["X"]) for s in interp.solve_all("route(X)")}
        solution, _ = engine.solve_first_sim("route(X)")
        assert str(solution["X"]) in all_answers

    def test_bindings_match_sequential_for_facts(self, engine):
        solution, _ = engine.solve_first_sim("color(C)")
        assert str(solution["C"]) in {"red", "green", "blue"}
