"""Property test: term rendering and the reader are inverse."""

from hypothesis import given, settings
from hypothesis import strategies as st

from apps.prolog.parser import parse_term
from apps.prolog.terms import NIL, Atom, Num, Struct, Var, make_list

atoms = st.sampled_from([Atom("a"), Atom("foo"), Atom("bar_baz")])
nums = st.integers(min_value=-99, max_value=99).map(Num)
variables = st.sampled_from([Var("X"), Var("Y"), Var("Zed")])

terms = st.recursive(
    st.one_of(atoms, nums, variables, st.just(NIL)),
    lambda children: st.one_of(
        st.builds(
            lambda args: Struct("f", tuple(args)),
            st.lists(children, min_size=1, max_size=3),
        ),
        st.builds(
            lambda items, tail: make_list(items, tail),
            st.lists(children, min_size=1, max_size=3),
            st.one_of(st.just(NIL), variables),
        ),
    ),
    max_leaves=10,
)


@given(terms)
@settings(max_examples=300, deadline=None)
def test_str_then_parse_is_identity(term):
    assert parse_term(str(term)) == term


@given(terms, terms)
@settings(max_examples=150, deadline=None)
def test_rendering_is_injective_enough(a, b):
    """Distinct terms never render identically (over this generator)."""
    if a != b:
        assert str(a) != str(b)
