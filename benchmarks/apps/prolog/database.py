"""Clauses and the knowledge base."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from apps.prolog.terms import Atom, Struct, Term, freshen
from apps.errors import PrologError


@dataclass(frozen=True)
class Clause:
    """``Head :- B1, ..., Bn`` (a fact when the body is empty)."""

    head: Term
    body: tuple = ()

    @property
    def indicator(self) -> str:
        if isinstance(self.head, Struct):
            return self.head.indicator
        if isinstance(self.head, Atom):
            return f"{self.head.name}/0"
        raise PrologError(f"invalid clause head: {self.head}")

    @property
    def is_fact(self) -> bool:
        return not self.body

    def rename(self) -> "Clause":
        """A copy with fresh variables (one per selection)."""
        mapping: dict = {}
        head = freshen(self.head, mapping)
        body = tuple(freshen(goal, mapping) for goal in self.body)
        return Clause(head, body)

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(g) for g in self.body)}."


@dataclass
class Database:
    """Clauses indexed by predicate indicator, in assertion order."""

    _clauses: dict[str, list[Clause]] = field(default_factory=dict)

    @classmethod
    def from_clauses(cls, clauses: Iterable[Clause]) -> "Database":
        db = cls()
        for clause in clauses:
            db.assertz(clause)
        return db

    @classmethod
    def from_source(cls, text: str) -> "Database":
        from apps.prolog.parser import parse_program

        return cls.from_clauses(parse_program(text))

    def assertz(self, clause: Clause) -> None:
        """Append ``clause`` to its predicate (standard assert order)."""
        self._clauses.setdefault(clause.indicator, []).append(clause)

    def asserta(self, clause: Clause) -> None:
        """Prepend ``clause`` to its predicate."""
        self._clauses.setdefault(clause.indicator, []).insert(0, clause)

    def clauses_for(self, goal: Term) -> list[Clause]:
        """The candidate clauses for ``goal``, in program order."""
        if isinstance(goal, Struct):
            key = goal.indicator
        elif isinstance(goal, Atom):
            key = f"{goal.name}/0"
        else:
            raise PrologError(f"cannot call non-callable term: {goal}")
        return self._clauses.get(key, [])

    def predicates(self) -> list[str]:
        return sorted(self._clauses)

    def __len__(self) -> int:
        return sum(len(v) for v in self._clauses.values())

    def __str__(self) -> str:
        lines = []
        for key in self.predicates():
            lines.extend(str(c) for c in self._clauses[key])
        return "\n".join(lines)
