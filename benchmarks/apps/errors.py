"""Errors raised by the section-4 workloads.

They derive from :class:`repro.errors.ReproError`, so one ``except``
clause still catches everything a block running them can raise.
"""

from __future__ import annotations

from repro.errors import ReproError


class PrologError(ReproError):
    """Errors from the mini-Prolog engine."""


class PrologSyntaxError(PrologError):
    """Parse error in Prolog source text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        loc = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


class SolverError(ReproError):
    """Numerical solver failures (non-convergence, bad bracket, ...)."""


class ConvergenceError(SolverError):
    """An iterative numerical method failed to converge."""
