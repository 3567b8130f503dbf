"""Scalar root-finding methods: the polyalgorithm's method pool.

Five classical methods with sharply different cost/robustness profiles —
exactly the "performance differences between the alternatives, due to
data dependencies or use of heuristic methods" the paper's section 4
calls for. Each returns the root and raises
:class:`~apps.errors.SolverError` / :class:`~apps.errors.ConvergenceError`
on failure, so they can be wrapped directly as alternatives.
"""

from __future__ import annotations

import math
from typing import Callable

from apps.errors import ConvergenceError, SolverError

Fn = Callable[[float], float]
_DEFAULT_TOL = 1e-12


def _check_bracket(f: Fn, a: float, b: float) -> tuple[float, float, float, float]:
    if a >= b:
        raise SolverError(f"bad bracket: a={a} must be < b={b}")
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a, b, fa, fb
    if fb == 0.0:
        return a, b, fa, fb
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise SolverError(f"f({a}) and f({b}) have the same sign; not a bracket")
    return a, b, fa, fb


def bisection(f: Fn, a: float, b: float, tol: float = _DEFAULT_TOL,
              max_iter: int = 200) -> float:
    """Robust but linear-rate bracketing; never diverges on a valid bracket."""
    a, b, fa, fb = _check_bracket(f, a, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0 or (b - a) / 2 < tol:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    raise ConvergenceError(f"bisection: no convergence in {max_iter} iterations")


def secant(f: Fn, x0: float, x1: float, tol: float = _DEFAULT_TOL,
           max_iter: int = 100) -> float:
    """Superlinear, derivative-free; may diverge on nasty functions."""
    f0, f1 = f(x0), f(x1)
    for _ in range(max_iter):
        if f1 == 0.0:
            return x1
        denom = f1 - f0
        if denom == 0.0:
            raise ConvergenceError("secant: flat secant line")
        x2 = x1 - f1 * (x1 - x0) / denom
        if not math.isfinite(x2):
            raise ConvergenceError("secant: iterate diverged")
        if abs(x2 - x1) < tol * max(1.0, abs(x2)):
            return x2
        x0, f0 = x1, f1
        x1, f1 = x2, f(x2)
    raise ConvergenceError(f"secant: no convergence in {max_iter} iterations")


def newton(f: Fn, x0: float, fprime: Fn | None = None, tol: float = _DEFAULT_TOL,
           max_iter: int = 60, h: float = 1e-7) -> float:
    """Quadratic near a simple root; needs a good start and derivative."""
    x = x0
    for _ in range(max_iter):
        fx = f(x)
        if fx == 0.0:
            return x
        if fprime is not None:
            d = fprime(x)
        else:
            d = (f(x + h) - f(x - h)) / (2 * h)
        if d == 0.0 or not math.isfinite(d):
            raise ConvergenceError("newton: zero/invalid derivative")
        x_new = x - fx / d
        if not math.isfinite(x_new):
            raise ConvergenceError("newton: iterate diverged")
        if abs(x_new - x) < tol * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    raise ConvergenceError(f"newton: no convergence in {max_iter} iterations")


def brent(f: Fn, a: float, b: float, tol: float = _DEFAULT_TOL,
          max_iter: int = 120) -> float:
    """Brent's method: inverse quadratic / secant with bisection safety."""
    a, b, fa, fb = _check_bracket(f, a, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if abs(fa) < abs(fb):
        a, b, fa, fb = b, a, fb, fa
    c, fc = a, fa
    mflag = True
    d = c
    for _ in range(max_iter):
        if fb == 0.0 or abs(b - a) < tol:
            return b
        if fa != fc and fb != fc:
            # inverse quadratic interpolation
            s = (
                a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
            )
        else:
            s = b - fb * (b - a) / (fb - fa)
        cond = (
            not ((3 * a + b) / 4 <= s <= b or b <= s <= (3 * a + b) / 4)
            or (mflag and abs(s - b) >= abs(b - c) / 2)
            or (not mflag and abs(s - b) >= abs(c - d) / 2)
            or (mflag and abs(b - c) < tol)
            or (not mflag and abs(c - d) < tol)
        )
        if cond:
            s = 0.5 * (a + b)
            mflag = True
        else:
            mflag = False
        fs = f(s)
        d, c, fc = c, b, fb
        if math.copysign(1.0, fa) != math.copysign(1.0, fs):
            b, fb = s, fs
        else:
            a, fa = s, fs
        if abs(fa) < abs(fb):
            a, b, fa, fb = b, a, fb, fa
    raise ConvergenceError(f"brent: no convergence in {max_iter} iterations")


def fixed_point(g: Fn, x0: float, tol: float = _DEFAULT_TOL,
                max_iter: int = 500) -> float:
    """Iterate ``x = g(x)``; converges only for contractive g."""
    x = x0
    for _ in range(max_iter):
        x_new = g(x)
        if not math.isfinite(x_new):
            raise ConvergenceError("fixed_point: iterate diverged")
        if abs(x_new - x) < tol * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    raise ConvergenceError(f"fixed_point: no convergence in {max_iter} iterations")
