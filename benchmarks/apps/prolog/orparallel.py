"""OR-parallel execution: clause alternatives as Multiple Worlds.

At a choice point, each clause whose head matches the current goal starts
one world; the worlds race, and the first to find a solution commits —
committed-choice nondeterminism, the flavour the paper advocates ("we
choose only one alternative, no merging is necessary").

Parallelism is extracted at the query's first user-defined goal (the top
of the AND-OR tree); each branch then runs the ordinary sequential engine
below it. Three execution modes:

- ``backend="thread"/"fork"`` — really race the branches;
- :meth:`ORParallelEngine.solve_first_sim` — trace-driven: measure each
  branch's inference count sequentially, then replay the race on the
  simulation kernel with a per-inference virtual cost (deterministic,
  CPU-count-independent; how the OR-parallel benches model a
  multiprocessor this host does not have).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from apps.prolog.database import Database
from apps.prolog.interpreter import Interpreter, Solution, SolveStats
from apps.prolog.terms import Term, Var, variables_in
from apps.prolog.unify import EMPTY_SUBST, Subst, resolve, unify, walk
from repro.core.alternative import Alternative
from repro.core.outcome import BlockOutcome
from repro.core.worlds import run_alternatives
from apps.errors import PrologError


@dataclass
class Branch:
    """One OR-branch: the goal list after selecting one clause."""

    index: int
    clause_str: str
    goals: tuple
    subst: Subst
    query_vars: tuple


@dataclass
class BranchWork:
    """Sequential measurement of one branch (for trace-driven racing)."""

    index: int
    clause_str: str
    inferences: int
    solution: Solution | None

    @property
    def succeeds(self) -> bool:
        return self.solution is not None


class ORParallelEngine:
    """Committed-choice OR-parallel driver over one database."""

    def __init__(self, db: Database, max_depth: int = 400,
                 max_steps: int = 2_000_000) -> None:
        self.db = db
        self.max_depth = max_depth
        self.max_steps = max_steps

    def _interpreter(self) -> Interpreter:
        return Interpreter(self.db, max_depth=self.max_depth, max_steps=self.max_steps)

    def _as_goals(self, query) -> tuple:
        if isinstance(query, str):
            from apps.prolog.parser import parse_query

            return parse_query(query)
        return tuple(query)

    @staticmethod
    def _query_vars(goals: Sequence[Term]) -> tuple:
        seen: dict[str, Var] = {}
        for goal in goals:
            for var in variables_in(goal):
                if not var.name.startswith("_"):
                    seen.setdefault(var.name, var)
        return tuple(seen.values())

    # -- branch extraction ------------------------------------------------
    def branches(self, query) -> list[Branch]:
        """The OR-branches at the query's first goal.

        The first goal must be user-defined (clauses in the database);
        builtins offer no OR-parallelism at the top.
        """
        goals = self._as_goals(query)
        if not goals:
            raise PrologError("empty query")
        first = walk(goals[0], EMPTY_SUBST)
        clauses = self.db.clauses_for(first)
        if not clauses:
            raise PrologError(
                f"no OR-parallelism: first goal {first} has no database clauses"
            )
        query_vars = self._query_vars(goals)
        out = []
        for index, clause in enumerate(clauses):
            renamed = clause.rename()
            unified = unify(first, renamed.head, EMPTY_SUBST)
            if unified is None:
                continue
            out.append(
                Branch(
                    index=index,
                    clause_str=str(clause),
                    goals=renamed.body + goals[1:],
                    subst=unified,
                    query_vars=query_vars,
                )
            )
        if not out:
            raise PrologError(f"no clause head unifies with {first}")
        return out

    def _solve_branch(self, branch: Branch) -> tuple[Solution | None, SolveStats]:
        """Run one branch to its first solution with the sequential engine."""
        interp = self._interpreter()
        stats = SolveStats()
        interp.last_stats = stats
        subst = next(interp._solve(branch.goals, branch.subst, 1, stats), None)
        if subst is None:
            return None, stats
        bindings = {v.name: resolve(v, subst) for v in branch.query_vars}
        return Solution(bindings=bindings, subst=subst), stats

    # -- real parallel execution ---------------------------------------------
    def alternatives(self, query) -> list[Alternative]:
        alts = []
        for branch in self.branches(query):
            def body(ws: dict, _branch=branch):
                solution, stats = self._solve_branch(_branch)
                if solution is None:
                    raise PrologError("no solution in this branch")
                ws["bindings"] = solution.bindings
                ws["inferences"] = stats.inferences
                ws["clause"] = _branch.clause_str
                return solution.bindings

            alts.append(Alternative(body, name=f"clause-{branch.index}"))
        return alts

    def solve_first_parallel(
        self, query, backend: str = "thread", timeout: float | None = None,
        **kwargs,
    ) -> tuple[Solution | None, BlockOutcome]:
        """Race the OR-branches for the first solution."""
        outcome = run_alternatives(
            self.alternatives(query),
            initial={},
            timeout=timeout,
            backend=backend,
            **kwargs,
        )
        if outcome.failed:
            return None, outcome
        return Solution(bindings=outcome.value), outcome

    # -- trace-driven simulated race -----------------------------------------------
    def branch_work(self, query) -> list[BranchWork]:
        """Sequentially measure every branch (inferences to first answer)."""
        out = []
        for branch in self.branches(query):
            try:
                solution, stats = self._solve_branch(branch)
            except PrologError:
                solution, stats = None, SolveStats(inferences=self.max_steps)
            out.append(
                BranchWork(
                    index=branch.index,
                    clause_str=branch.clause_str,
                    inferences=stats.inferences + stats.builtin_calls,
                    solution=solution,
                )
            )
        return out

    def solve_first_sim(
        self,
        query,
        per_inference_s: float = 1e-4,
        cpus: int = 4,
        **kwargs,
    ) -> tuple[Solution | None, BlockOutcome]:
        """Replay the OR-race on the simulation kernel.

        Each branch's virtual duration is its measured inference count ×
        ``per_inference_s``; failing branches abort after their full
        search cost. Returns the committed solution plus the outcome with
        virtual response time and overheads.
        """
        work = self.branch_work(query)
        alternatives = []
        for item in work:
            def body(ws: dict, _item=item):
                if not _item.succeeds:
                    raise PrologError("no solution in this branch")
                ws["bindings"] = _item.solution.bindings
                ws["clause"] = _item.clause_str
                return _item.solution.bindings

            alternatives.append(
                Alternative(
                    body,
                    name=f"clause-{item.index}",
                    sim_cost=item.inferences * per_inference_s,
                )
            )
        outcome = run_alternatives(
            alternatives, initial={}, backend="sim", cpus=cpus, **kwargs
        )
        if outcome.failed:
            return None, outcome
        return Solution(bindings=outcome.value), outcome

    # -- sequential reference ------------------------------------------------------------
    def solve_first_sequential(self, query) -> tuple[Solution | None, SolveStats]:
        """Plain depth-first first-solution search (the baseline)."""
        interp = self._interpreter()
        solution = interp.solve_first(query)
        return solution, interp.last_stats
