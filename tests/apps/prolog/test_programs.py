"""Tests for the canonical program library (and `;` disjunction)."""

import pytest

from apps.prolog import Database, Interpreter, ORParallelEngine
from apps.prolog.programs import (
    COLORING,
    FAMILY,
    LISTS_EXTRA,
    QUEENS,
    SKEWED_SEARCH,
    naive_reverse_goal,
)


class TestFamily:
    @pytest.fixture(scope="class")
    def interp(self):
        return Interpreter.with_library(FAMILY)

    def test_father_mother(self, interp):
        assert interp.prove("father(tom, bob)")
        assert interp.prove("mother(liz, joe)")
        assert not interp.prove("father(liz, joe)")

    def test_siblings_are_symmetric_and_irreflexive(self, interp):
        sols = interp.solve_all("sibling(bob, X)")
        assert {str(s["X"]) for s in sols} == {"liz"}
        assert not interp.prove("sibling(bob, bob)")

    def test_ancestor_transitive(self, interp):
        assert interp.prove("ancestor(tom, max)")
        assert interp.count_solutions("ancestor(tom, X)") == 8


class TestQueens:
    @pytest.fixture(scope="class")
    def interp(self):
        return Interpreter.with_library(QUEENS)

    @staticmethod
    def _board(solution):
        from apps.prolog.terms import list_items

        items, _ = list_items(solution.subst and solution.bindings["Qs"])
        return [t.value for t in items]

    def test_six_queens_solution_is_valid(self, interp):
        solution = interp.solve_first("queens(6, Qs)")
        board = self._board(solution)
        assert sorted(board) == [1, 2, 3, 4, 5, 6]
        for i, qi in enumerate(board):
            for j, qj in enumerate(board):
                if i < j:
                    assert abs(qi - qj) != j - i  # no diagonal attacks

    def test_four_queens_has_two_solutions(self, interp):
        assert interp.count_solutions("queens(4, Qs)") == 2

    def test_three_queens_impossible(self, interp):
        assert not interp.prove("queens(3, Qs)")


class TestColoring:
    def test_coloring_satisfies_constraints(self):
        interp = Interpreter.with_library(COLORING)
        s = interp.solve_first("colour_map(A, B, C, D, E)")
        a, b, c, d, e = (str(s[v]) for v in "ABCDE")
        for x, y in [(a, b), (a, c), (a, d), (b, c), (c, d), (b, e), (c, e), (d, e)]:
            assert x != y

    def test_or_parallel_on_coloring(self):
        engine = ORParallelEngine(Database.from_source(COLORING))
        solution, outcome = engine.solve_first_sim("colour(C)")
        assert str(solution["C"]) in {"red", "green", "blue"}


class TestListsExtra:
    @pytest.fixture(scope="class")
    def interp(self):
        return Interpreter.with_library(LISTS_EXTRA)

    def test_nrev(self, interp):
        s = interp.solve_first("nrev([1,2,3], R)")
        assert str(s["R"]) == "[3, 2, 1]"

    def test_nrev_workload_generator(self, interp):
        s = interp.solve_first(naive_reverse_goal(15))
        assert s is not None
        assert str(s["R"]).startswith("[14, 13")

    def test_sum_list(self, interp):
        assert str(interp.solve_first("sum_list([1,2,3,4], S)")["S"]) == "10"

    def test_max_list_uses_disjunction(self, interp):
        assert str(interp.solve_first("max_list([3, 9, 2], M)")["M"]) == "9"
        assert str(interp.solve_first("max_list([7], M)")["M"]) == "7"


class TestDisjunctionBuiltin:
    def test_both_branches_enumerate(self):
        interp = Interpreter.with_library("")
        sols = interp.solve_all("(X = a ; X = b)")
        assert [str(s["X"]) for s in sols] == ["a", "b"]

    def test_nested_conjunction_in_branch(self):
        interp = Interpreter.with_library("")
        assert interp.prove("(1 > 2, fail ; 2 > 1, 3 > 2)")

    def test_left_branch_first(self):
        interp = Interpreter.with_library("")
        s = interp.solve_first("(X = left ; X = right)")
        assert str(s["X"]) == "left"


class TestSkewedSearch:
    def test_or_parallel_beats_clause_order(self):
        db = Database.from_source(SKEWED_SEARCH)
        engine = ORParallelEngine(db)
        work = engine.branch_work("find(W)")
        assert work[-1].succeeds  # direct is last and cheap
        assert work[0].inferences > 5 * work[-1].inferences
        solution, outcome = engine.solve_first_sim("find(W)")
        assert str(solution["W"]) == "direct"
