"""Sequential SLD resolution with backtracking.

A straightforward depth-first interpreter: goals left-to-right, clauses
in program order, generators for backtracking. Budget controls (depth and
inference-step limits) make runaway programs fail loudly — which is also
how the benches demonstrate the paper's point that a random sequential
choice (Scheme B) is "frustrated by failures or infinite loops".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from apps.prolog.database import Database
from apps.prolog.terms import Atom, Num, Struct, Term, Var, variables_in
from apps.prolog.unify import EMPTY_SUBST, Subst, resolve, unify, walk
from apps.errors import PrologError

Query = Union[str, tuple]

#: clauses for the usual list predicates, loaded via ``with_library``
STANDARD_LIBRARY = """
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).

length([], 0).
length([_|T], N) :- length(T, M), N is M + 1.

last([X], X).
last([_|T], X) :- last(T, X).

reverse(L, R) :- rev_acc(L, [], R).
rev_acc([], A, A).
rev_acc([H|T], A, R) :- rev_acc(T, [H|A], R).

between(L, H, L) :- L =< H.
between(L, H, X) :- L < H, L1 is L + 1, between(L1, H, X).
"""


@dataclass
class SolveStats:
    """Work accounting for one query."""

    inferences: int = 0  # clause selections attempted
    unifications: int = 0
    builtin_calls: int = 0
    deepest: int = 0


@dataclass
class Solution:
    """One proof: the query variables' bindings."""

    bindings: dict[str, Term] = field(default_factory=dict)
    subst: Subst = field(default_factory=dict)

    def __getitem__(self, name: str) -> Term:
        return self.bindings[name]

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def as_strings(self) -> dict[str, str]:
        return {k: str(v) for k, v in self.bindings.items()}

    def __str__(self) -> str:
        if not self.bindings:
            return "true"
        return ", ".join(f"{k} = {v}" for k, v in sorted(self.bindings.items()))


_COMPARISONS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=<": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "=:=": lambda a, b: a == b,
    "=\\=": lambda a, b: a != b,
}


class Interpreter:
    """Depth-first SLD resolution over one database."""

    def __init__(
        self,
        db: Database,
        max_depth: int = 100_000,
        max_steps: int = 2_000_000,
        occurs_check: bool = False,
    ) -> None:
        self.db = db
        self.max_depth = max_depth
        self.max_steps = max_steps
        self.occurs_check = occurs_check
        self.last_stats = SolveStats()

    @classmethod
    def with_library(cls, source: str = "", **kwargs) -> "Interpreter":
        """An interpreter over STANDARD_LIBRARY plus ``source``."""
        return cls(Database.from_source(STANDARD_LIBRARY + source), **kwargs)

    # -- public API -----------------------------------------------------------
    def solve(self, query: Query) -> Iterator[Solution]:
        """All solutions, lazily, in depth-first order."""
        goals = self._as_goals(query)
        stats = SolveStats()
        self.last_stats = stats
        query_vars = []
        seen = set()
        for goal in goals:
            for var in variables_in(goal):
                if var.name not in seen and not var.name.startswith("_"):
                    seen.add(var.name)
                    query_vars.append(var)
        for subst in self._solve(goals, EMPTY_SUBST, 0, stats):
            yield Solution(
                bindings={v.name: resolve(v, subst) for v in query_vars},
                subst=subst,
            )

    def solve_first(self, query: Query) -> Solution | None:
        return next(self.solve(query), None)

    def solve_all(self, query: Query, limit: int | None = None) -> list[Solution]:
        out = []
        for solution in self.solve(query):
            out.append(solution)
            if limit is not None and len(out) >= limit:
                break
        return out

    def prove(self, query: Query) -> bool:
        return self.solve_first(query) is not None

    def count_solutions(self, query: Query, limit: int | None = None) -> int:
        return len(self.solve_all(query, limit=limit))

    # -- engine ------------------------------------------------------------------
    def _as_goals(self, query: Query) -> tuple:
        if isinstance(query, str):
            from apps.prolog.parser import parse_query

            return parse_query(query)
        return tuple(query)

    def _budget(self, stats: SolveStats, depth: int) -> None:
        stats.deepest = max(stats.deepest, depth)
        if depth > self.max_depth:
            raise PrologError(f"depth limit exceeded ({self.max_depth})")
        if stats.inferences + stats.builtin_calls > self.max_steps:
            raise PrologError(f"inference budget exceeded ({self.max_steps})")

    def _solve(self, goals: tuple, subst: Subst, depth: int, stats: SolveStats) -> Iterator[Subst]:
        """Depth-first search with an explicit choice-point stack.

        The stack holds paused :meth:`_expand` generators (heap, not the
        Python call stack), so resolution chains thousands of steps long
        — e.g. naive fibonacci — do not hit the interpreter recursion
        limit. ``depth`` counts resolution steps along the current path.
        """
        if not goals:
            yield subst
            return
        self._budget(stats, depth)
        stack = [self._expand(goals, subst, depth, stats)]
        while stack:
            item = next(stack[-1], None)
            if item is None:
                stack.pop()
                continue
            next_goals, next_subst, next_depth = item
            if not next_goals:
                yield next_subst
                continue
            self._budget(stats, next_depth)
            stack.append(self._expand(next_goals, next_subst, next_depth, stats))

    def _expand(self, goals: tuple, subst: Subst, depth: int,
                stats: SolveStats) -> Iterator[tuple]:
        """Successor states of the first goal: one per applicable clause."""
        goal = walk(goals[0], subst)
        rest = goals[1:]
        handled = self._builtin(goal, rest, subst, depth, stats)
        if handled is not None:
            yield from handled
            return
        for clause in self.db.clauses_for(goal):
            stats.inferences += 1
            renamed = clause.rename()
            stats.unifications += 1
            unified = unify(goal, renamed.head, subst, self.occurs_check)
            if unified is None:
                continue
            yield (renamed.body + rest, unified, depth + 1)

    # -- builtins -----------------------------------------------------------------
    def _builtin(self, goal: Term, rest: tuple, subst: Subst, depth: int,
                 stats: SolveStats) -> Iterator[tuple] | None:
        """Dispatch builtin goals; None means "not a builtin".

        Builtins yield *successor states* ``(goals, subst, depth)`` —
        at most one for the deterministic builtins here.
        """
        if isinstance(goal, Atom):
            if goal.name == "true":
                return iter([(rest, subst, depth)])
            if goal.name in ("fail", "false"):
                return iter(())
            return None
        if not isinstance(goal, Struct):
            raise PrologError(f"cannot call non-callable term: {goal}")

        name, arity = goal.functor, goal.arity
        args = goal.args

        if name == "=" and arity == 2:
            stats.builtin_calls += 1
            unified = unify(args[0], args[1], subst, self.occurs_check)
            if unified is None:
                return iter(())
            return iter([(rest, unified, depth)])

        if name == "\\=" and arity == 2:
            stats.builtin_calls += 1
            if unify(args[0], args[1], subst, self.occurs_check) is None:
                return iter([(rest, subst, depth)])
            return iter(())

        if name == "==" and arity == 2:
            stats.builtin_calls += 1
            if resolve(args[0], subst) == resolve(args[1], subst):
                return iter([(rest, subst, depth)])
            return iter(())

        if name == "\\==" and arity == 2:
            stats.builtin_calls += 1
            if resolve(args[0], subst) != resolve(args[1], subst):
                return iter([(rest, subst, depth)])
            return iter(())

        if name == "is" and arity == 2:
            stats.builtin_calls += 1
            value = Num(self._eval(args[1], subst))
            unified = unify(args[0], value, subst, self.occurs_check)
            if unified is None:
                return iter(())
            return iter([(rest, unified, depth)])

        if name in _COMPARISONS and arity == 2:
            stats.builtin_calls += 1
            a = self._eval(args[0], subst)
            b = self._eval(args[1], subst)
            if _COMPARISONS[name](a, b):
                return iter([(rest, subst, depth)])
            return iter(())

        if name == "\\+" and arity == 1:
            stats.builtin_calls += 1
            succeeded = next(self._solve((args[0],), subst, depth + 1, stats), None)
            if succeeded is None:
                return iter([(rest, subst, depth)])
            return iter(())

        if name == "call" and arity == 1:
            stats.builtin_calls += 1
            return iter([((args[0],) + rest, subst, depth + 1)])

        if name == "once" and arity == 1:
            # deterministic call: first solution only, no backtracking
            stats.builtin_calls += 1
            first = next(self._solve((args[0],), subst, depth + 1, stats), None)
            if first is None:
                return iter(())
            return iter([(rest, first, depth)])

        if name in ("var", "nonvar", "atom", "number", "integer") and arity == 1:
            stats.builtin_calls += 1
            term = walk(args[0], subst)
            checks = {
                "var": isinstance(term, Var),
                "nonvar": not isinstance(term, Var),
                "atom": isinstance(term, Atom),
                "number": isinstance(term, Num),
                "integer": isinstance(term, Num) and isinstance(term.value, int),
            }
            if checks[name]:
                return iter([(rest, subst, depth)])
            return iter(())

        if name == "," and arity == 2:
            # a conjunction reached goal position (e.g. inside ';'):
            # flatten it back into the goal list
            from apps.prolog.parser import flatten_conjunction

            return iter([(flatten_conjunction(goal) + rest, subst, depth)])

        if name == ";" and arity == 2:
            # disjunction: two successor states, left branch first
            stats.builtin_calls += 1
            return iter(
                [
                    ((args[0],) + rest, subst, depth + 1),
                    ((args[1],) + rest, subst, depth + 1),
                ]
            )

        return None

    def _eval(self, term: Term, subst: Subst):
        """Arithmetic evaluation for ``is`` and comparisons."""
        term = walk(term, subst)
        if isinstance(term, Num):
            return term.value
        if isinstance(term, Var):
            raise PrologError(f"arguments are not sufficiently instantiated: {term}")
        if isinstance(term, Struct) and term.arity == 2:
            a = self._eval(term.args[0], subst)
            b = self._eval(term.args[1], subst)
            if term.functor == "+":
                return a + b
            if term.functor == "-":
                return a - b
            if term.functor == "*":
                return a * b
            if term.functor == "/":
                if b == 0:
                    raise PrologError("zero divisor")
                value = a / b
                return int(value) if isinstance(a, int) and isinstance(b, int) and a % b == 0 else value
            if term.functor == "//":
                if b == 0:
                    raise PrologError("zero divisor")
                return a // b
            if term.functor == "mod":
                if b == 0:
                    raise PrologError("zero divisor")
                return a % b
        raise PrologError(f"not an arithmetic expression: {term}")
