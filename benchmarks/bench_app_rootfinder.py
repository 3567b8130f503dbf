"""Application bench: Jenkins-Traub quality and real timing.

Library-quality checks on the from-scratch zero finder: accuracy against
``numpy.roots`` across degrees (greedy-paired max error), real wall-clock
timing via pytest-benchmark, and the angle-dispersion profile that makes
the Table I race worthwhile.
"""

import numpy as np
import pytest

from _harness import report, table
from apps.poly.rootfind import Polynomial, find_all_zeros
from apps.poly.rootfind.parallel import default_table_polynomial


def _max_paired_error(zeros, reference) -> float:
    ours = list(np.asarray(zeros, dtype=complex))
    worst = 0.0
    for want in reference:
        best = min(range(len(ours)), key=lambda i: abs(ours[i] - want))
        worst = max(worst, abs(ours[best] - want))
        del ours[best]
    return worst


def accuracy_sweep():
    rng = np.random.default_rng(11)
    rows = []
    for degree in (4, 8, 12, 16, 20, 24):
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        poly = Polynomial(coeffs)
        rep = find_all_zeros(poly, seed=degree)
        error = _max_paired_error(rep.zeros, np.roots(coeffs)) if not rep.failed else float("inf")
        rows.append((degree, rep.failed, error, rep.elapsed_s * 1000,
                     rep.angle_tries))
    return rows


def accuracy_text(rows):
    return table(
        ["degree", "failed", "max |Δroot| vs numpy", "time (ms)", "angle tries"],
        rows, fmt="10.2e",
    )


def test_accuracy_vs_numpy(benchmark):
    rows = benchmark.pedantic(accuracy_sweep, iterations=1, rounds=1)
    report("app_rootfinder_accuracy", accuracy_text(rows))
    for degree, failed, error, _, _ in rows:
        assert not failed, f"degree {degree} failed"
        assert error < 1e-7, f"degree {degree}: error {error}"


def test_wilkinson_20(benchmark):
    """The classic ill-conditioned stress case, really benchmarked."""

    def solve():
        return find_all_zeros(Polynomial.wilkinson(20), seed=3)

    rep = benchmark(solve)
    assert not rep.failed
    reals = sorted(z.real for z in rep.zeros)
    assert np.allclose(reals, range(1, 21), atol=2e-2)  # famously sensitive


def test_table_polynomial_timing(benchmark):
    """Real wall-clock of one full Table-I-workload run (pytest-benchmark
    statistics across rounds show the machine's noise floor)."""
    poly = default_table_polynomial(degree=40)

    def solve():
        return find_all_zeros(poly, seed=0)

    rep = benchmark(solve)
    assert not rep.failed


def test_angle_dispersion_profile(benchmark):
    """The race's fuel: per-seed runtimes disperse measurably."""

    def profile():
        poly = default_table_polynomial(degree=40)
        times = []
        for seed in range(8):
            rep = find_all_zeros(poly, seed=seed)
            times.append(rep.elapsed_s)
        return times

    times = benchmark.pedantic(profile, iterations=1, rounds=1)
    spread = max(times) / min(times)
    assert spread > 1.05  # angles matter
    report(
        "app_rootfinder_dispersion",
        "per-angle-seed runtimes (ms): "
        + ", ".join(f"{t * 1000:.1f}" for t in times)
        + f"\nmax/min dispersion: {spread:.2f}x",
    )


if __name__ == "__main__":
    for row in accuracy_sweep():
        print(row)
