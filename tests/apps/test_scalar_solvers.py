"""Tests for the scalar root-finder method pool."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apps.poly.scalar_solvers import bisection, brent, fixed_point, newton, secant
from apps.errors import ConvergenceError, SolverError


def f_cubic(x):
    return x**3 - 2 * x - 5  # classic Newton test; root near 2.0945514815


ROOT_CUBIC = 2.0945514815423265


class TestBisection:
    def test_finds_root(self):
        assert bisection(f_cubic, 2, 3) == pytest.approx(ROOT_CUBIC, abs=1e-10)

    def test_endpoint_root(self):
        assert bisection(lambda x: x, 0.0, 1.0) == 0.0

    def test_rejects_non_bracket(self):
        with pytest.raises(SolverError):
            bisection(f_cubic, 3, 4)

    def test_rejects_inverted_interval(self):
        with pytest.raises(SolverError):
            bisection(f_cubic, 3, 2)


class TestSecant:
    def test_finds_root(self):
        assert secant(f_cubic, 2, 3) == pytest.approx(ROOT_CUBIC, abs=1e-9)

    def test_flat_secant_fails(self):
        with pytest.raises(ConvergenceError):
            secant(lambda x: 1.0, 0, 1)

    def test_divergence_detected(self):
        with pytest.raises(ConvergenceError):
            secant(lambda x: math.atan(x) + 10, 100.0, 120.0, max_iter=12)


class TestNewton:
    def test_with_analytic_derivative(self):
        root = newton(f_cubic, 2.5, fprime=lambda x: 3 * x**2 - 2)
        assert root == pytest.approx(ROOT_CUBIC, abs=1e-10)

    def test_with_numeric_derivative(self):
        assert newton(f_cubic, 2.5) == pytest.approx(ROOT_CUBIC, abs=1e-8)

    def test_zero_derivative_fails(self):
        with pytest.raises(ConvergenceError):
            newton(lambda x: x**2 + 1, 0.0, fprime=lambda x: 2 * x)

    def test_bad_start_can_fail(self):
        # the classic cycle/divergence case x^(1/3) from far away
        def cube_root_like(x):
            return math.copysign(abs(x) ** (1 / 3), x)

        with pytest.raises(ConvergenceError):
            newton(cube_root_like, 1.0, max_iter=30)


class TestBrent:
    def test_finds_root(self):
        assert brent(f_cubic, 2, 3) == pytest.approx(ROOT_CUBIC, abs=1e-10)

    def test_handles_nasty_flat_function(self):
        def flat(x):
            return (x - 1.5) ** 9

        assert brent(flat, 0, 4, tol=1e-9) == pytest.approx(1.5, abs=1e-3)

    def test_rejects_non_bracket(self):
        with pytest.raises(SolverError):
            brent(f_cubic, 3, 4)


class TestFixedPoint:
    def test_contraction_converges(self):
        # x = cos(x) has the Dottie number fixed point
        assert fixed_point(math.cos, 1.0) == pytest.approx(0.7390851332, abs=1e-8)

    def test_expansion_diverges(self):
        with pytest.raises(ConvergenceError):
            fixed_point(lambda x: 2 * x + 1, 1.0, max_iter=50)


@given(st.floats(min_value=-50, max_value=50))
@settings(max_examples=100, deadline=None)
def test_bracketing_methods_agree(shift):
    """Bisection and Brent find the same root of a shifted cubic."""
    def f(x):
        return (x - shift) ** 3 + (x - shift)

    a, b = shift - 7, shift + 11
    r_bis = bisection(f, a, b, tol=1e-12)
    r_brent = brent(f, a, b, tol=1e-12)
    assert r_bis == pytest.approx(shift, abs=1e-6)
    assert r_brent == pytest.approx(shift, abs=1e-6)


@given(st.floats(min_value=0.5, max_value=20))
@settings(max_examples=100, deadline=None)
def test_newton_sqrt(target):
    """Newton on x^2 - t recovers sqrt(t) from a decent start."""
    root = newton(lambda x: x * x - target, target, fprime=lambda x: 2 * x)
    assert root == pytest.approx(math.sqrt(target), rel=1e-9)
