"""Tests for the sequential SLD interpreter."""

import pytest

from apps.prolog.database import Database
from apps.prolog.interpreter import Interpreter
from apps.errors import PrologError

FAMILY = """
parent(tom, bob).
parent(tom, liz).
parent(bob, ann).
parent(bob, pat).
parent(pat, jim).
grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
anc(X, Y) :- parent(X, Y).
anc(X, Z) :- parent(X, Y), anc(Y, Z).
"""


@pytest.fixture(scope="module")
def interp():
    return Interpreter.with_library(FAMILY)


class TestFacts:
    def test_ground_query_true(self, interp):
        assert interp.prove("parent(tom, bob)")

    def test_ground_query_false(self, interp):
        assert not interp.prove("parent(bob, tom)")

    def test_unknown_predicate_fails(self, interp):
        assert not interp.prove("sibling(a, b)")

    def test_enumerate_bindings_in_program_order(self, interp):
        sols = interp.solve_all("parent(tom, X)")
        assert [str(s["X"]) for s in sols] == ["bob", "liz"]

    def test_both_arguments_open(self, interp):
        assert interp.count_solutions("parent(X, Y)") == 5


class TestRules:
    def test_grandparent(self, interp):
        sols = interp.solve_all("grandparent(tom, X)")
        assert sorted(str(s["X"]) for s in sols) == ["ann", "pat"]

    def test_recursive_ancestor(self, interp):
        sols = interp.solve_all("anc(tom, X)")
        assert sorted(str(s["X"]) for s in sols) == ["ann", "bob", "jim", "liz", "pat"]

    def test_solve_first_stops_early(self, interp):
        solution = interp.solve_first("anc(tom, X)")
        assert str(solution["X"]) == "bob"

    def test_solution_limit(self, interp):
        assert len(interp.solve_all("anc(X, Y)", limit=3)) == 3


class TestBuiltins:
    def test_unification_builtin(self, interp):
        s = interp.solve_first("X = f(1, Y), Y = 2")
        assert str(s["X"]) == "f(1, 2)"

    def test_disunification(self, interp):
        assert interp.prove("a \\= b")
        assert not interp.prove("a \\= a")
        assert not interp.prove("X \\= a")  # X unifies with a

    def test_structural_equality(self, interp):
        assert interp.prove("f(X) == f(X)")
        assert not interp.prove("f(X) == f(Y)")

    def test_arithmetic_is(self, interp):
        s = interp.solve_first("X is 3 * 4 + 2")
        assert str(s["X"]) == "14"

    def test_arithmetic_operators(self, interp):
        assert interp.prove("X is 7 // 2, X == 3")
        assert interp.prove("X is 7 mod 2, X == 1")
        assert interp.prove("X is 6 / 3, X == 2")

    def test_comparisons(self, interp):
        assert interp.prove("3 < 4")
        assert interp.prove("4 >= 4")
        assert not interp.prove("3 > 4")
        assert interp.prove("2 + 2 =:= 4")
        assert interp.prove("2 + 2 =\\= 5")

    def test_uninstantiated_arithmetic_errors(self, interp):
        with pytest.raises(PrologError):
            interp.prove("X is Y + 1")

    def test_zero_divisor_errors(self, interp):
        with pytest.raises(PrologError):
            interp.prove("X is 1 / 0")

    def test_negation_as_failure(self, interp):
        assert interp.prove("\\+ parent(bob, tom)")
        assert not interp.prove("\\+ parent(tom, bob)")

    def test_call(self, interp):
        assert interp.prove("call(parent(tom, bob))")

    def test_true_fail(self, interp):
        assert interp.prove("true")
        assert not interp.prove("fail")

    def test_once_commits_to_first_solution(self, interp):
        sols = interp.solve_all("once(parent(tom, X))")
        assert [str(s["X"]) for s in sols] == ["bob"]

    def test_once_fails_when_goal_fails(self, interp):
        assert not interp.prove("once(parent(jim, tom))")

    def test_type_tests(self, interp):
        assert interp.prove("var(X)")
        assert interp.prove("X = a, nonvar(X)")
        assert interp.prove("atom(foo)")
        assert not interp.prove("atom(1)")
        assert interp.prove("number(3)")
        assert interp.prove("integer(3)")
        assert not interp.prove("integer(3.5)")
        assert interp.prove("number(3.5)")


class TestLibrary:
    def test_member(self, interp):
        assert interp.prove("member(2, [1, 2, 3])")
        sols = interp.solve_all("member(X, [a, b])")
        assert [str(s["X"]) for s in sols] == ["a", "b"]

    def test_append_generative(self, interp):
        assert interp.count_solutions("append(X, Y, [1, 2, 3])") == 4

    def test_length(self, interp):
        s = interp.solve_first("length([a, b, c], N)")
        assert str(s["N"]) == "3"

    def test_reverse(self, interp):
        s = interp.solve_first("reverse([1, 2, 3], R)")
        assert str(s["R"]) == "[3, 2, 1]"

    def test_last(self, interp):
        s = interp.solve_first("last([1, 2, 9], X)")
        assert str(s["X"]) == "9"

    def test_between(self, interp):
        sols = interp.solve_all("between(2, 5, X)")
        assert [str(s["X"]) for s in sols] == ["2", "3", "4", "5"]


class TestRecursionAndBudgets:
    def test_deep_recursion_fibonacci(self):
        interp = Interpreter.with_library(
            """
            fib(0, 0).
            fib(1, 1).
            fib(N, F) :- N > 1, A is N - 1, B is N - 2,
                         fib(A, FA), fib(B, FB), F is FA + FB.
            """
        )
        s = interp.solve_first("fib(16, F)")
        assert str(s["F"]) == "987"

    def test_infinite_loop_hits_budget(self):
        interp = Interpreter(
            Database.from_source("loop :- loop."), max_steps=5000
        )
        with pytest.raises(PrologError):
            interp.prove("loop")

    def test_stats_accounting(self, interp):
        interp.prove("anc(tom, jim)")
        stats = interp.last_stats
        assert stats.inferences > 0
        assert stats.unifications >= stats.inferences
        assert stats.deepest > 1

    def test_left_recursion_hits_depth_or_step_budget(self):
        interp = Interpreter(
            Database.from_source("p(X) :- p(X). p(a)."), max_steps=10_000
        )
        with pytest.raises(PrologError):
            interp.prove("p(b)")
