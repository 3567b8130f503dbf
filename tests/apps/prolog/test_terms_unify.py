"""Tests for Prolog terms and unification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apps.prolog.terms import (
    NIL,
    Atom,
    Num,
    Struct,
    Var,
    freshen,
    list_items,
    make_list,
    term_size,
    variables_in,
)
from apps.prolog.unify import EMPTY_SUBST, resolve, unify, walk


class TestTerms:
    def test_str_rendering(self):
        t = Struct("foo", (Atom("a"), Var("X"), Num(3)))
        assert str(t) == "foo(a, X, 3)"

    def test_list_rendering(self):
        assert str(make_list([Num(1), Num(2)])) == "[1, 2]"
        assert str(make_list([Num(1)], Var("T"))) == "[1|T]"
        assert str(NIL) == "[]"

    def test_list_items_roundtrip(self):
        items = [Num(1), Atom("x")]
        lst = make_list(items)
        out, tail = list_items(lst)
        assert out == items and tail == NIL

    def test_variables_in(self):
        t = Struct("f", (Var("X"), Struct("g", (Var("Y"), Var("X")))))
        names = sorted(v.name for v in variables_in(t))
        assert names == ["X", "X", "Y"]

    def test_freshen_renames_consistently(self):
        t = Struct("f", (Var("X"), Var("X"), Var("Y")))
        fresh = freshen(t)
        assert fresh.args[0] == fresh.args[1]
        assert fresh.args[0] != fresh.args[2]
        assert fresh.args[0] != Var("X")

    def test_freshen_shared_mapping(self):
        mapping = {}
        head = freshen(Var("X"), mapping)
        body = freshen(Var("X"), mapping)
        assert head == body

    def test_term_size(self):
        assert term_size(Atom("a")) == 1
        assert term_size(Struct("f", (Atom("a"), Num(1)))) == 3


class TestUnify:
    def test_atoms(self):
        assert unify(Atom("a"), Atom("a"), EMPTY_SUBST) == {}
        assert unify(Atom("a"), Atom("b"), EMPTY_SUBST) is None

    def test_var_binding(self):
        s = unify(Var("X"), Atom("a"), EMPTY_SUBST)
        assert walk(Var("X"), s) == Atom("a")

    def test_struct_recursion(self):
        a = Struct("f", (Var("X"), Num(2)))
        b = Struct("f", (Num(1), Var("Y")))
        s = unify(a, b, EMPTY_SUBST)
        assert walk(Var("X"), s) == Num(1)
        assert walk(Var("Y"), s) == Num(2)

    def test_functor_mismatch(self):
        assert unify(Struct("f", (Num(1),)), Struct("g", (Num(1),)), EMPTY_SUBST) is None
        assert unify(Struct("f", (Num(1),)), Struct("f", ()), EMPTY_SUBST) is None

    def test_chained_variables(self):
        s = unify(Var("X"), Var("Y"), EMPTY_SUBST)
        s = unify(Var("Y"), Num(7), s)
        assert walk(Var("X"), s) == Num(7)

    def test_occurs_check(self):
        circular = Struct("f", (Var("X"),))
        assert unify(Var("X"), circular, EMPTY_SUBST, occurs_check=True) is None
        # without occurs check the binding is made (standard Prolog)
        assert unify(Var("X"), circular, EMPTY_SUBST) is not None

    def test_original_subst_not_mutated(self):
        base = unify(Var("X"), Num(1), EMPTY_SUBST)
        extended = unify(Var("Y"), Num(2), base)
        assert Var("Y") not in base
        assert Var("Y") in extended

    def test_deep_list_unification_iterative(self):
        # 10k-element lists would break a recursive unifier
        a = make_list([Num(i) for i in range(10_000)])
        b = make_list([Num(i) for i in range(9_999)] + [Var("Z")])
        s = unify(a, b, EMPTY_SUBST)
        assert walk(Var("Z"), s) == Num(9_999)

    def test_resolve_deep(self):
        s = unify(Var("X"), Struct("f", (Var("Y"),)), EMPTY_SUBST)
        s = unify(Var("Y"), Num(3), s)
        assert resolve(Var("X"), s) == Struct("f", (Num(3),))


# -- property tests -----------------------------------------------------------
terms = st.recursive(
    st.one_of(
        st.sampled_from([Atom("a"), Atom("b"), Num(0), Num(1)]),
        st.sampled_from([Var("X"), Var("Y"), Var("Z")]),
    ),
    lambda children: st.builds(
        lambda args: Struct("f", tuple(args)), st.lists(children, min_size=1, max_size=3)
    ),
    max_leaves=12,
)


@given(terms, terms)
@settings(max_examples=200, deadline=None)
def test_unify_is_a_unifier(a, b):
    """When unify succeeds, both sides resolve to the identical term."""
    s = unify(a, b, EMPTY_SUBST, occurs_check=True)
    if s is not None:
        assert resolve(a, s) == resolve(b, s)


@given(terms, terms)
@settings(max_examples=200, deadline=None)
def test_unify_symmetric(a, b):
    sa = unify(a, b, EMPTY_SUBST, occurs_check=True)
    sb = unify(b, a, EMPTY_SUBST, occurs_check=True)
    assert (sa is None) == (sb is None)


@given(terms)
@settings(max_examples=100, deadline=None)
def test_unify_reflexive(t):
    assert unify(t, t, EMPTY_SUBST) is not None


@given(terms)
@settings(max_examples=100, deadline=None)
def test_freshen_preserves_structure(t):
    fresh = freshen(t)
    assert term_size(fresh) == term_size(t)
    # freshened term unifies with the original (it is a renaming)
    assert unify(t, fresh, EMPTY_SUBST) is not None
