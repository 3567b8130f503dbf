"""Tests for the Prolog reader."""

import pytest

from apps.prolog.parser import (
    parse_program,
    parse_query,
    parse_term,
)
from apps.prolog.terms import NIL, Atom, Num, Struct, Var, make_list
from apps.errors import PrologSyntaxError


class TestTerms:
    def test_atom(self):
        assert parse_term("foo") == Atom("foo")

    def test_variable(self):
        assert parse_term("Xyz") == Var("Xyz")

    def test_anonymous_variables_distinct(self):
        t = parse_term("f(_, _)")
        assert t.args[0] != t.args[1]

    def test_integer_and_float(self):
        assert parse_term("42") == Num(42)
        assert parse_term("3.5") == Num(3.5)

    def test_negative_number(self):
        assert parse_term("-7") == Num(-7)

    def test_compound(self):
        assert parse_term("point(1, 2)") == Struct("point", (Num(1), Num(2)))

    def test_nested_compound(self):
        t = parse_term("f(g(X), h(y, 1))")
        assert t == Struct(
            "f",
            (Struct("g", (Var("X"),)), Struct("h", (Atom("y"), Num(1)))),
        )

    def test_empty_list(self):
        assert parse_term("[]") == NIL

    def test_proper_list(self):
        assert parse_term("[1, 2]") == make_list([Num(1), Num(2)])

    def test_partial_list(self):
        assert parse_term("[H|T]") == make_list([Var("H")], Var("T"))

    def test_parenthesized_expression(self):
        t = parse_term("(1 + 2) * 3")
        assert t == Struct("*", (Struct("+", (Num(1), Num(2))), Num(3)))

    def test_operator_precedence(self):
        t = parse_term("1 + 2 * 3")
        assert t == Struct("+", (Num(1), Struct("*", (Num(2), Num(3)))))

    def test_left_associativity(self):
        t = parse_term("10 - 2 - 3")
        assert t == Struct("-", (Struct("-", (Num(10), Num(2))), Num(3)))

    def test_is_expression(self):
        t = parse_term("X is Y + 1")
        assert t == Struct("is", (Var("X"), Struct("+", (Var("Y"), Num(1)))))

    def test_negation_operator(self):
        t = parse_term("\\+ foo(X)")
        assert t == Struct("\\+", (Struct("foo", (Var("X"),)),))

    def test_comparison_tokens(self):
        for op in ["=<", ">=", "=:=", "=\\=", "\\==", "\\="]:
            t = parse_term(f"1 {op} 2")
            assert t == Struct(op, (Num(1), Num(2)))

    def test_syntax_error_position(self):
        with pytest.raises(PrologSyntaxError):
            parse_term("foo(")
        with pytest.raises(PrologSyntaxError):
            parse_term("foo) bar")
        with pytest.raises(PrologSyntaxError):
            parse_term("foo bar")  # trailing input


class TestProgram:
    def test_facts(self):
        clauses = parse_program("parent(tom, bob). parent(bob, ann).")
        assert len(clauses) == 2
        assert clauses[0].is_fact
        assert clauses[0].indicator == "parent/2"

    def test_rule_with_conjunction(self):
        (clause,) = parse_program("gp(X,Z) :- parent(X,Y), parent(Y,Z).")
        assert not clause.is_fact
        assert len(clause.body) == 2
        assert clause.head == Struct("gp", (Var("X"), Var("Z")))

    def test_comments_ignored(self):
        clauses = parse_program(
            """
            % a family tree
            parent(a, b). % inline comment
            """
        )
        assert len(clauses) == 1

    def test_missing_period_rejected(self):
        with pytest.raises(PrologSyntaxError):
            parse_program("parent(a, b)")

    def test_zero_arity_rule(self):
        (clause,) = parse_program("go :- init, run.")
        assert clause.indicator == "go/0"


class TestQuery:
    def test_with_prefix(self):
        goals = parse_query("?- parent(tom, X).")
        assert goals == (Struct("parent", (Atom("tom"), Var("X"))),)

    def test_without_prefix_or_period(self):
        goals = parse_query("parent(tom, X)")
        assert len(goals) == 1

    def test_conjunction_flattened(self):
        goals = parse_query("a(X), b(X), c(X)")
        assert [g.functor for g in goals] == ["a", "b", "c"]

    def test_nested_conjunction_flattened(self):
        goals = parse_query("(a, b), (c, d)")
        assert len(goals) == 4
