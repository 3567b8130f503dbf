"""Tests for the Jenkins-Traub three-stage zero finder."""

import numpy as np
import pytest

from apps.poly.rootfind.jenkins_traub import (
    JTOptions,
    find_all_zeros,
    find_one_zero,
)
from apps.poly.rootfind.polynomial import Polynomial


def _assert_zero_sets_match(zeros, expected, atol=1e-6):
    """Greedy nearest-neighbour pairing (sort order is float-fragile)."""
    ours = list(np.asarray(zeros, dtype=complex))
    ref = list(np.asarray(expected, dtype=complex))
    assert len(ours) == len(ref)
    for want in ref:
        best = min(range(len(ours)), key=lambda i: abs(ours[i] - want))
        assert abs(ours[best] - want) <= atol, (want, ours)
        del ours[best]


class TestFindOne:
    def test_linear(self):
        assert find_one_zero(Polynomial([2, -4])) == pytest.approx(2.0)

    def test_zero_at_origin(self):
        p = Polynomial([1, 1, 0])  # z(z+1)
        assert find_one_zero(p) == 0

    def test_finds_a_true_zero(self):
        p = Polynomial.from_roots([1 + 1j, -2, 0.5j])
        z = find_one_zero(p, rng=np.random.default_rng(0))
        assert abs(p(z)) < 1e-8

    def test_explicit_angle_is_deterministic(self):
        p = Polynomial.from_roots([2, 3, -1 - 1j])
        z1 = find_one_zero(p, angle=0.7)
        z2 = find_one_zero(p, angle=0.7)
        assert z1 == z2


class TestFindAll:
    def test_quadratic_closed_form(self):
        report = find_all_zeros(Polynomial([1, 0, -4]))  # z^2 = 4
        _assert_zero_sets_match(report.zeros, [2, -2])

    def test_real_roots(self):
        report = find_all_zeros(Polynomial.from_roots([1, 2, 3, 4, 5]), seed=0)
        assert not report.failed
        _assert_zero_sets_match(report.zeros, [1, 2, 3, 4, 5], atol=1e-5)

    def test_complex_conjugate_roots(self):
        roots = [1 + 2j, 1 - 2j, -0.5, 3j, -3j]
        report = find_all_zeros(Polynomial.from_roots(roots), seed=1)
        assert not report.failed
        _assert_zero_sets_match(report.zeros, roots, atol=1e-6)

    def test_matches_numpy_on_random_polys(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            deg = int(rng.integers(3, 16))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            p = Polynomial(coeffs)
            report = find_all_zeros(p, seed=trial)
            assert not report.failed, report.failure_reason
            _assert_zero_sets_match(report.zeros, np.roots(coeffs), atol=1e-6)

    def test_wilkinson_15(self):
        report = find_all_zeros(Polynomial.wilkinson(15), seed=3)
        assert not report.failed
        reals = sorted(z.real for z in report.zeros)
        assert np.allclose(reals, range(1, 16), atol=1e-4)
        assert max(abs(z.imag) for z in report.zeros) < 1e-4

    def test_repeated_root(self):
        report = find_all_zeros(Polynomial.from_roots([2, 2, -1]), seed=0)
        assert not report.failed
        _assert_zero_sets_match(report.zeros, [2, 2, -1], atol=1e-4)

    def test_report_accounting(self):
        report = find_all_zeros(Polynomial.from_roots([1, 2, 3, 4]), seed=0)
        assert report.elapsed_s > 0
        assert report.angle_tries >= 1
        assert report.stage2_iterations > 0

    def test_seed_determinism(self):
        p = Polynomial.from_roots([1j, -1j, 2, -2, 0.5 + 0.1j])
        a = find_all_zeros(p, seed=5)
        b = find_all_zeros(p, seed=5)
        assert a.zeros == b.zeros
        assert a.angle_tries == b.angle_tries

    def test_tight_budget_can_fail(self):
        # the Table I failure mode: starve the iteration budgets and some
        # angle sequences give up (report.failed instead of an exception)
        strict = JTOptions(
            stage1_iterations=1,
            stage2_max_iterations=3,
            stage3_max_iterations=2,
            max_angle_tries=1,
        )
        p = Polynomial.wilkinson(12)
        failures = sum(
            1 for seed in range(10)
            if find_all_zeros(p, options=strict, seed=seed).failed
        )
        assert failures > 0

    def test_published_angle_ladder_without_rng(self):
        # no rng and no seed: the 49° + k*94° ladder must still work
        report = find_all_zeros(Polynomial.from_roots([1, -1, 1j]))
        assert not report.failed
        _assert_zero_sets_match(report.zeros, [1, -1, 1j], atol=1e-6)
