#!/usr/bin/env python3
"""The Table I workload: a parallel Jenkins-Traub rootfinder.

The complex Jenkins-Traub zero finder starts from ``s = beta * e^{i*theta}``
with theta a random angle. Different angles converge at different speeds
(and some fail outright), so racing several angle choices as Multiple
Worlds buys the best angle's runtime. This reproduces the paper's section
4.3 experiment and prints a Table I of our own.
"""

import pathlib
import sys

import numpy as np

# the paper's section-4 workloads live beside the benches that run them
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))

from apps.poly.rootfind import (
    ParallelRootfinder,
    Polynomial,
    find_all_zeros,
)
from apps.poly.rootfind.parallel import (
    default_table_polynomial,
    render_table_one,
)


def main() -> None:
    poly = default_table_polynomial(degree=32)
    print(f"polynomial: degree {poly.degree}, clustered + scattered roots\n")

    print("=== single runs: the angle choice matters ===")
    finder = ParallelRootfinder(poly)
    for run in finder.sequential_runs(range(6)):
        status = "FAILED" if run.failed else f"{len(run.zeros)} zeros"
        print(f"  angle-seed {run.seed}: {run.elapsed_s * 1000:7.1f} ms  "
              f"({run.angle_tries} angle tries, {status})")

    print("\n=== Table I (2 simulated processors, like the Ardent Titan) ===")
    rows = finder.table_one([1, 2, 3, 4, 5, 6], processors=2)
    print(render_table_one(rows))
    print("\nreading the table: par ~= min + overhead while processes <= "
          "processors;\nbeyond that the processors saturate and par grows — "
          "the paper's procs>=3 rows.")

    print("\n=== sanity: the zeros are real zeros ===")
    report = find_all_zeros(poly, seed=0)
    # compare |p(z)| against its own floating-point error bound: a ratio
    # below 1 means the zero is as exact as the arithmetic can express
    ratios = []
    for z in report.zeros:
        value, bound = poly.eval_with_error_bound(z)
        ratios.append(abs(value) / bound if bound > 0 else 0.0)
    print(f"max |p(z)| / rounding-bound over {len(report.zeros)} zeros: "
          f"{max(ratios):.3f}  (< 1 means machine-exact)")

    print("\n=== and the classic stress test ===")
    wilkinson = Polynomial.wilkinson(15)
    report = find_all_zeros(wilkinson, seed=1)
    reals = sorted(z.real for z in report.zeros)
    print(f"Wilkinson-15 roots: {np.round(reals, 4).tolist()}")


if __name__ == "__main__":
    main()
