"""A Horn-clause engine with OR-parallel execution (paper section 4.2).

"OR-parallelism maps closely to our problem of attempting alternatives in
parallel. The alternatives are specialized to clauses of predicate logic."
The engine implements committed-choice OR-parallelism — the paper's
position is that one solution is selected, so worlds copy and never merge
("What our method does is copy, and since we choose only one alternative,
no merging is necessary").

- :mod:`apps.prolog.terms` — atoms, numbers, variables, structures.
- :mod:`apps.prolog.unify` — unification with substitutions.
- :mod:`apps.prolog.parser` — a small ISO-flavoured reader.
- :mod:`apps.prolog.database` — clauses and the fact/rule store.
- :mod:`apps.prolog.interpreter` — sequential SLD resolution with
  backtracking, arithmetic and negation-as-failure builtins.
- :mod:`apps.prolog.orparallel` — clause-level alternatives raced
  under Multiple Worlds.
"""

from apps.prolog.terms import Atom, Num, Struct, Var
from apps.prolog.parser import parse_program, parse_query, parse_term
from apps.prolog.database import Clause, Database
from apps.prolog.interpreter import Interpreter, Solution, SolveStats
from apps.prolog.orparallel import ORParallelEngine

__all__ = [
    "Atom",
    "Num",
    "Var",
    "Struct",
    "parse_program",
    "parse_query",
    "parse_term",
    "Clause",
    "Database",
    "Interpreter",
    "Solution",
    "SolveStats",
    "ORParallelEngine",
]
