#!/usr/bin/env python3
"""Polyalgorithms (paper section 4.3): "fastest first" scheduling.

A scalar root-finding polyalgorithm bundles Newton, secant and bisection.
On friendly functions Newton wins in a handful of iterations; on nasty
ones it diverges and a robust method must step in. The NAPSS-style
sequential loop pays for every failure in series; the Multiple Worlds
version runs one ordering per world — each trying a different method
first — and commits whichever ordering finishes first.
"""

import math
import pathlib
import sys

# the paper's section-4 workloads live beside the benches that run them
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))

from apps.poly import Method, PolyAlgorithm, bisection, newton, secant


def m_newton(ws):
    return newton(ws["f"], ws["x0"], max_iter=40)


def m_secant(ws):
    return secant(ws["f"], ws["a"], ws["b"], max_iter=60)


def m_bisection(ws):
    return bisection(ws["f"], ws["a"], ws["b"])


def accept(ws, value):
    return abs(ws["f"](value)) < 1e-8


POLY = PolyAlgorithm(
    [
        Method("newton", m_newton, accept=accept),
        Method("secant", m_secant, accept=accept),
        Method("bisection", m_bisection, accept=accept,
               applies=lambda ws: ws["f"](ws["a"]) * ws["f"](ws["b"]) < 0),
    ],
    name="scalar-rootfinder",
)

PROBLEMS = {
    "friendly parabola": {
        "f": lambda x: x * x - 2, "a": 0.0, "b": 2.0, "x0": 1.5,
    },
    "flat-tailed atan (bad Newton start)": {
        "f": lambda x: math.atan(x - 1.0), "a": -50.0, "b": 60.0, "x0": 400.0,
    },
    "oscillatory": {
        "f": lambda x: math.sin(3 * x) + 0.5 * x - 0.25,
        "a": -2.0, "b": 2.0, "x0": 1.9,
    },
}


def main() -> None:
    for label, problem in PROBLEMS.items():
        print(f"=== {label} ===")
        seq = POLY.run_sequential(problem)
        print(f"  sequential : solved by {seq.method:<10} "
              f"after attempts {seq.attempts} -> {seq.value:.8f}")
        par = POLY.run_worlds(problem, backend="thread")
        print(f"  worlds     : solved by {par.method:<10} "
              f"(winning ordering: {par.outcome.winner.name}) "
              f"-> {par.value:.8f}")
        print()
    print("on the nasty inputs the sequential loop burns attempts before a "
          "robust\nmethod runs; the worlds version already had every "
          "ordering going.")


if __name__ == "__main__":
    main()
