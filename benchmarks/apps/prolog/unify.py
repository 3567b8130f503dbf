"""Unification over persistent substitutions.

A substitution is an immutable mapping ``Var -> Term``. ``walk`` follows
variable bindings to the representative term; ``unify`` extends a
substitution or fails; ``resolve`` applies a substitution fully to a
term. Persistence (copying the dict on extension) keeps the backtracking
interpreter and the OR-parallel worlds trivially isolated from each other
— the same "copy, don't merge" stance the paper takes for binding
environments.
"""

from __future__ import annotations

from typing import Mapping, Optional

from apps.prolog.terms import Atom, Num, Struct, Term, Var

Subst = Mapping[Var, Term]

EMPTY_SUBST: dict[Var, Term] = {}


def walk(term: Term, subst: Subst) -> Term:
    """Dereference ``term`` through variable bindings (one level deep)."""
    while isinstance(term, Var):
        bound = subst.get(term)
        if bound is None:
            return term
        term = bound
    return term


def occurs(var: Var, term: Term, subst: Subst) -> bool:
    """True when ``var`` appears in ``term`` under ``subst``."""
    stack = [term]
    while stack:
        t = walk(stack.pop(), subst)
        if isinstance(t, Var):
            if t == var:
                return True
        elif isinstance(t, Struct):
            stack.extend(t.args)
    return False


def unify(a: Term, b: Term, subst: Subst, occurs_check: bool = False) -> Optional[Subst]:
    """Most general unifier extension of ``subst``, or None.

    Iterative (explicit work stack) so deep lists do not hit Python's
    recursion limit. The occurs check is off by default, as in most
    Prolog systems.
    """
    work = [(a, b)]
    current: Subst = subst
    while work:
        x, y = work.pop()
        x = walk(x, current)
        y = walk(y, current)
        # NOTE: no deep ``x == y`` fast path — dataclass equality recurses
        # and would overflow on very deep lists; the structural walk below
        # is already iterative.
        if x is y:
            continue
        if isinstance(x, Var) and isinstance(y, Var) and x == y:
            continue
        if isinstance(x, Var):
            if occurs_check and occurs(x, y, current):
                return None
            extended = dict(current)
            extended[x] = y
            current = extended
        elif isinstance(y, Var):
            if occurs_check and occurs(y, x, current):
                return None
            extended = dict(current)
            extended[y] = x
            current = extended
        elif isinstance(x, Atom) and isinstance(y, Atom):
            if x.name != y.name:
                return None
        elif isinstance(x, Num) and isinstance(y, Num):
            if x.value != y.value:
                return None
        elif isinstance(x, Struct) and isinstance(y, Struct):
            if x.functor != y.functor or x.arity != y.arity:
                return None
            work.extend(zip(x.args, y.args))
        else:
            return None
    return current


def resolve(term: Term, subst: Subst) -> Term:
    """Apply ``subst`` to ``term`` completely (deep walk)."""
    term = walk(term, subst)
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(resolve(a, subst) for a in term.args))
    return term
