#!/usr/bin/env python3
"""A linear-system polyalgorithm under Multiple Worlds.

Rice's polyalgorithm idea (paper section 4.3) on ``Ax = b``: four methods
— conjugate gradient, Jacobi, Gauss-Seidel, direct LU — each strongest on
a different matrix class. The analyst's applicability advice gates which
methods even try; Multiple Worlds races the method orderings so the
problem never waits on a misjudged first choice.
"""

import pathlib
import sys

import numpy as np

# the paper's section-4 workloads live beside the benches that run them
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))

from apps.poly.linear_solvers import (
    is_diagonally_dominant,
    is_spd,
    is_symmetric,
    linear_polyalgorithm,
    residual,
)


def make_problems():
    rng = np.random.default_rng(42)
    n = 40

    m = rng.normal(size=(n, n))
    spd = m @ m.T + n * np.eye(n)

    dominant = rng.normal(size=(n, n))
    dominant += np.diagflat(np.abs(dominant).sum(axis=1) + 1.0)

    general = rng.normal(size=(n, n))

    # symmetric but indefinite: structure that misleads the CG heuristic
    sym = rng.normal(size=(n, n))
    tricky = (sym + sym.T) / 2

    b = rng.normal(size=n)
    return {
        "symmetric positive definite": (spd, b),
        "diagonally dominant": (dominant, b),
        "general dense": (general, b),
        "symmetric indefinite (misleading)": (tricky, b),
    }


def describe(a):
    tags = []
    if is_spd(a):
        tags.append("SPD")
    elif is_symmetric(a):
        tags.append("symmetric")
    if is_diagonally_dominant(a, strict=False):
        tags.append("diag-dominant")
    return ", ".join(tags) or "no exploitable structure"


def main() -> None:
    poly = linear_polyalgorithm(tol=1e-8)
    for label, (a, b) in make_problems().items():
        print(f"=== {label} [{describe(a)}] ===")
        seq = poly.run_sequential({"A": a, "b": b})
        x = np.asarray(seq.value)
        print(f"  sequential: {seq.method:<20} attempts={seq.attempts} "
              f"residual={residual(a, b, x):.2e}")
        par = poly.run_worlds({"A": a.tolist(), "b": b.tolist()}, backend="thread")
        x = np.asarray(par.value)
        print(f"  worlds    : {par.method:<20} "
              f"(winning ordering {par.outcome.winner.name}) "
              f"residual={residual(a, b, x):.2e}")
        print()
    print("on the misleading matrix the CG-first ordering stalls and a "
          "different\nworld's ordering delivers — without anyone having "
          "diagnosed the matrix first.")


if __name__ == "__main__":
    main()
