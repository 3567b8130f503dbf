"""The polyalgorithm framework (Rice [15], paper section 4.3).

A :class:`PolyAlgorithm` bundles several :class:`Method` objects for one
problem. Execution strategies:

- :meth:`run_sequential` — the classical NAPSS-style loop: try methods in
  (advice-ordered) sequence until one passes its acceptance test,
  accumulating *information about the problem* between attempts (e.g. a
  failing rootfinder's last iterate seeds the next method).
- :meth:`run_worlds` — the paper's transformation: create artificial
  alternatives, each trying a different method *first*, and race them
  under Multiple Worlds — "fastest first" scheduling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.alternative import Alternative, Guard
from repro.core.outcome import BlockOutcome
from repro.core.worlds import run_alternatives
from apps.errors import SolverError


@dataclass
class Method:
    """One solution method plus the analyst's knowledge about it.

    ``applies(problem)`` encodes "the circumstances under which a method
    is likely to be successful"; ``accept(problem, result)`` is the
    acceptance test; ``hint_out`` lets a failing method contribute
    information to later attempts (``state["hints"]``).
    """

    name: str
    solve: Callable[[dict], Any]
    applies: Callable[[dict], bool] | None = None
    accept: Callable[[dict, Any], bool] | None = None
    cost_estimate: float | Callable[[dict], float] | None = None

    def is_applicable(self, problem: dict) -> bool:
        if self.applies is None:
            return True
        try:
            return bool(self.applies(problem))
        except Exception:
            return False

    def accepts(self, problem: dict, result: Any) -> bool:
        if self.accept is None:
            return True
        try:
            return bool(self.accept(problem, result))
        except Exception:
            return False


@dataclass
class PolyResult:
    """What a polyalgorithm run produced."""

    value: Any
    method: str
    attempts: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    hints: dict = field(default_factory=dict)
    outcome: BlockOutcome | None = None

    @property
    def succeeded(self) -> bool:
        return self.method != ""


class PolyAlgorithm:
    """Several methods for one problem, with Worlds-powered scheduling."""

    def __init__(self, methods: Sequence[Method], name: str = "polyalgorithm") -> None:
        if not methods:
            raise SolverError("a polyalgorithm needs at least one method")
        names = [m.name for m in methods]
        if len(set(names)) != len(names):
            raise SolverError("method names must be unique")
        self.methods = list(methods)
        self.name = name

    # -- classical sequential execution -------------------------------------
    def run_sequential(self, problem: dict) -> PolyResult:
        """Try applicable methods in order until one is accepted.

        Failing methods may leave hints in ``problem["hints"]`` for their
        successors (e.g. "discovering multiple zeros in a failing
        root-finder may be useful to the next solution method").
        """
        problem = dict(problem)
        problem.setdefault("hints", {})
        attempts = []
        t0 = time.perf_counter()
        for method in self.methods:
            if not method.is_applicable(problem):
                continue
            attempts.append(method.name)
            try:
                value = method.solve(problem)
            except Exception as exc:
                problem["hints"][method.name] = f"raised {exc!r}"
                continue
            if method.accepts(problem, value):
                return PolyResult(
                    value=value,
                    method=method.name,
                    attempts=attempts,
                    elapsed_s=time.perf_counter() - t0,
                    hints=dict(problem["hints"]),
                )
            problem["hints"][method.name] = value
        return PolyResult(
            value=None,
            method="",
            attempts=attempts,
            elapsed_s=time.perf_counter() - t0,
            hints=dict(problem["hints"]),
        )

    # -- Multiple Worlds execution ----------------------------------------------
    def _rotation(self, first: int) -> list[Method]:
        """The method order for the alternative that tries ``first`` first."""
        return self.methods[first:] + self.methods[:first]

    def alternatives(self, problem: dict) -> list[Alternative]:
        """One artificial alternative per applicable first-method."""
        alts = []
        for index, method in enumerate(self.methods):
            if not method.is_applicable(problem):
                continue
            ordering = self._rotation(index)

            def body(ws: dict, _ordering=tuple(ordering)) -> Any:
                ws.setdefault("hints", {})
                for m in _ordering:
                    if not m.is_applicable(ws):
                        continue
                    try:
                        value = m.solve(ws)
                    except Exception as exc:
                        ws["hints"][m.name] = f"raised {exc!r}"
                        continue
                    if m.accepts(ws, value):
                        ws["solved_by"] = m.name
                        return value
                    ws["hints"][m.name] = value
                raise SolverError("no method in this ordering succeeded")

            cost = method.cost_estimate
            alts.append(
                Alternative(
                    body,
                    name=f"first:{method.name}",
                    guard=Guard(name=f"applicable:{method.name}"),
                    sim_cost=cost,
                )
            )
        if not alts:
            raise SolverError("no method is applicable to this problem")
        return alts

    def run_worlds(
        self,
        problem: dict,
        backend: str = "fork",
        timeout: float | None = None,
        **kwargs: Any,
    ) -> PolyResult:
        """Race the first-method rotations under Multiple Worlds."""
        t0 = time.perf_counter()
        outcome = run_alternatives(
            self.alternatives(problem),
            initial=dict(problem),
            timeout=timeout,
            backend=backend,
            **kwargs,
        )
        elapsed = time.perf_counter() - t0
        if outcome.failed:
            return PolyResult(
                value=None, method="", elapsed_s=elapsed, outcome=outcome
            )
        state = outcome.extras.get("state", {})
        return PolyResult(
            value=outcome.value,
            method=state.get("solved_by", outcome.winner.name),
            attempts=[outcome.winner.name],
            elapsed_s=elapsed,
            hints=state.get("hints", {}),
            outcome=outcome,
        )
