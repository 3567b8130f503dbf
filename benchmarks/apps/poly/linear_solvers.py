"""Linear-system methods: a second polyalgorithm domain (paper §4.3).

Rice's polyalgorithm examples are linear algebra; this module provides a
method pool for ``Ax = b`` whose members win on different matrix classes:

- :func:`direct_lu` — always correct, O(n³), memory-hungry;
- :func:`jacobi` — cheap per iteration, converges only for (near-)
  diagonally dominant systems;
- :func:`gauss_seidel` — like Jacobi but roughly twice the convergence
  rate where it applies;
- :func:`conjugate_gradient` — fast for symmetric positive-definite
  systems, diverges or stagnates elsewhere.

:func:`linear_polyalgorithm` packages them with the analyst's
applicability heuristics so the Multiple Worlds driver can race method
orderings.
"""

from __future__ import annotations

import numpy as np

from apps.poly.polyalgorithm import Method, PolyAlgorithm
from apps.errors import ConvergenceError, SolverError

_DEFAULT_TOL = 1e-10


def _validate(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SolverError(f"A must be square, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise SolverError(f"b must have shape ({a.shape[0]},), got {b.shape}")
    return a, b


def residual(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Relative residual ‖Ax − b‖ / ‖b‖ (‖b‖ floored at 1)."""
    return float(np.linalg.norm(a @ x - b) / max(np.linalg.norm(b), 1.0))


# -- matrix-class predicates (the analyst's knowledge) ----------------------
def is_diagonally_dominant(a: np.ndarray, strict: bool = True) -> bool:
    a = np.asarray(a, dtype=float)
    diag = np.abs(np.diag(a))
    off = np.abs(a).sum(axis=1) - diag
    return bool(np.all(diag > off) if strict else np.all(diag >= off))

def is_symmetric(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a, dtype=float)
    return bool(np.allclose(a, a.T, atol=tol))


def is_spd(a: np.ndarray) -> bool:
    """Symmetric positive definite (via Cholesky)."""
    if not is_symmetric(a):
        return False
    try:
        np.linalg.cholesky(np.asarray(a, dtype=float))
        return True
    except np.linalg.LinAlgError:
        return False


# -- the methods --------------------------------------------------------------
def direct_lu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination via numpy's LAPACK solve."""
    a, b = _validate(a, b)
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"direct solve failed: {exc}") from exc


def jacobi(a: np.ndarray, b: np.ndarray, tol: float = _DEFAULT_TOL,
           max_iter: int = 5000) -> np.ndarray:
    a, b = _validate(a, b)
    diag = np.diag(a)
    if np.any(diag == 0):
        raise SolverError("jacobi: zero diagonal entry")
    rest = a - np.diagflat(diag)
    x = np.zeros_like(b)
    for _ in range(max_iter):
        x_new = (b - rest @ x) / diag
        if not np.all(np.isfinite(x_new)):
            raise ConvergenceError("jacobi: iteration diverged")
        if np.linalg.norm(x_new - x, ord=np.inf) < tol * max(
            1.0, float(np.linalg.norm(x_new, ord=np.inf))
        ):
            return x_new
        x = x_new
    raise ConvergenceError(f"jacobi: no convergence in {max_iter} iterations")


def gauss_seidel(a: np.ndarray, b: np.ndarray, tol: float = _DEFAULT_TOL,
                 max_iter: int = 5000) -> np.ndarray:
    a, b = _validate(a, b)
    n = len(b)
    if np.any(np.diag(a) == 0):
        raise SolverError("gauss_seidel: zero diagonal entry")
    x = np.zeros_like(b)
    for _ in range(max_iter):
        x_old = x.copy()
        for i in range(n):
            sigma = a[i, :i] @ x[:i] + a[i, i + 1:] @ x_old[i + 1:]
            x[i] = (b[i] - sigma) / a[i, i]
        if not np.all(np.isfinite(x)):
            raise ConvergenceError("gauss_seidel: iteration diverged")
        if np.linalg.norm(x - x_old, ord=np.inf) < tol * max(
            1.0, float(np.linalg.norm(x, ord=np.inf))
        ):
            return x
    raise ConvergenceError(f"gauss_seidel: no convergence in {max_iter} iterations")


def conjugate_gradient(a: np.ndarray, b: np.ndarray, tol: float = _DEFAULT_TOL,
                       max_iter: int | None = None) -> np.ndarray:
    """Plain CG; mathematically sound for SPD matrices."""
    a, b = _validate(a, b)
    n = len(b)
    if max_iter is None:
        max_iter = 10 * n
    x = np.zeros_like(b)
    r = b - a @ x
    p = r.copy()
    rs = float(r @ r)
    b_norm = max(float(np.linalg.norm(b)), 1.0)
    for _ in range(max_iter):
        if np.sqrt(rs) < tol * b_norm:
            return x
        ap = a @ p
        denom = float(p @ ap)
        if denom <= 0 or not np.isfinite(denom):
            raise ConvergenceError("conjugate_gradient: matrix is not SPD")
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            raise ConvergenceError("conjugate_gradient: diverged")
        p = r + (rs_new / rs) * p
        rs = rs_new
    if np.sqrt(rs) < 1e-6 * b_norm:  # close enough to call converged
        return x
    raise ConvergenceError(f"conjugate_gradient: no convergence in {max_iter} iterations")


# -- the polyalgorithm ------------------------------------------------------------
def linear_polyalgorithm(tol: float = 1e-8) -> PolyAlgorithm:
    """A PolyAlgorithm over the four methods, with applicability advice.

    Problems are dicts with keys ``A`` (matrix) and ``b`` (vector); the
    solution lands in the result and ``ws["x"]``.
    """

    def accept(ws, x):
        return x is not None and residual(np.asarray(ws["A"]), np.asarray(ws["b"]), x) < tol

    def make(name, solver, applies=None):
        def solve(ws):
            x = solver(np.asarray(ws["A"], dtype=float),
                       np.asarray(ws["b"], dtype=float))
            ws["x"] = x.tolist()
            return x

        return Method(name, solve, applies=applies, accept=accept)

    return PolyAlgorithm(
        [
            make("conjugate_gradient", conjugate_gradient,
                 applies=lambda ws: is_symmetric(np.asarray(ws["A"]))),
            make("jacobi", jacobi,
                 applies=lambda ws: is_diagonally_dominant(np.asarray(ws["A"]),
                                                           strict=False)),
            make("gauss_seidel", gauss_seidel,
                 applies=lambda ws: is_diagonally_dominant(np.asarray(ws["A"]),
                                                           strict=False)),
            make("direct_lu", direct_lu),
        ],
        name="linear-solver",
    )
