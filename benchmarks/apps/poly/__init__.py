"""Polyalgorithms and numerical applications (paper section 4.3).

A *polyalgorithm* (Rice [15]) packages several methods for the same
numerical problem with knowledge about when each is likely to succeed.
"Multiple Worlds" turns a polyalgorithm's method ordering into artificial
alternatives, each trying a different method first — "fastest first"
scheduling.

- :mod:`apps.poly.polyalgorithm` — the framework.
- :mod:`apps.poly.scalar_solvers` — bisection/secant/Newton/Brent
  scalar root finders (method pool for the examples and benches).
- :mod:`apps.poly.rootfind` — the complex-polynomial Jenkins-Traub
  zero finder whose random-angle degree of freedom the paper parallelizes
  (Table I).
"""

from apps.poly.polyalgorithm import Method, PolyAlgorithm, PolyResult
from apps.poly.scalar_solvers import (
    bisection,
    brent,
    fixed_point,
    newton,
    secant,
)
from apps.poly.linear_solvers import (
    conjugate_gradient,
    direct_lu,
    gauss_seidel,
    jacobi,
    linear_polyalgorithm,
)

__all__ = [
    "Method",
    "PolyAlgorithm",
    "PolyResult",
    "bisection",
    "secant",
    "newton",
    "brent",
    "fixed_point",
    "direct_lu",
    "jacobi",
    "gauss_seidel",
    "conjugate_gradient",
    "linear_polyalgorithm",
]
