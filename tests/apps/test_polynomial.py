"""Unit and property tests for the dense complex polynomial type."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apps.poly.rootfind.polynomial import Polynomial
from apps.errors import SolverError


class TestBasics:
    def test_degree_and_leading(self):
        p = Polynomial([2, 0, -1])
        assert p.degree == 2
        assert p.leading == 2
        assert p.constant == -1

    def test_leading_zeros_stripped(self):
        p = Polynomial([0, 0, 3, 1])
        assert p.degree == 1
        assert p.leading == 3

    def test_zero_polynomial_rejected(self):
        with pytest.raises(SolverError):
            Polynomial([0, 0, 0])

    def test_empty_rejected(self):
        with pytest.raises(SolverError):
            Polynomial([])

    def test_horner_evaluation(self):
        p = Polynomial([1, -3, 2])  # x^2 - 3x + 2 = (x-1)(x-2)
        assert p(1) == 0
        assert p(2) == 0
        assert p(0) == 2
        assert p(3j) == pytest.approx((3j) ** 2 - 9j + 2)

    def test_derivative(self):
        p = Polynomial([1, 0, -4, 7])  # x^3 - 4x + 7
        dp = p.derivative()
        assert np.allclose(dp.coeffs, [3, 0, -4])

    def test_derivative_of_constant_rejected(self):
        with pytest.raises(SolverError):
            Polynomial([5]).derivative()

    def test_from_roots(self):
        p = Polynomial.from_roots([1, -1])
        assert np.allclose(p.coeffs, [1, 0, -1])  # x^2 - 1
        for r in (1, -1):
            assert abs(p(r)) < 1e-12

    def test_monic(self):
        p = Polynomial([2, 4, 6]).monic()
        assert p.leading == 1
        assert np.allclose(p.coeffs, [1, 2, 3])

    def test_wilkinson(self):
        p = Polynomial.wilkinson(5)
        for k in range(1, 6):
            assert abs(p(k)) < 1e-9


class TestDivision:
    def test_deflate_removes_root(self):
        p = Polynomial.from_roots([1, 2, 3])
        q = p.deflate(2)
        assert q.degree == 2
        assert abs(q(1)) < 1e-10
        assert abs(q(3)) < 1e-10

    def test_deflate_constant_rejected(self):
        with pytest.raises(SolverError):
            Polynomial([3]).deflate(1)

    def test_divide_out_linear_remainder_is_value(self):
        p = Polynomial([1, 2, 3, 4])
        s = 1.5 + 0.5j
        q, r = p.divide_out_linear(s)
        assert r == pytest.approx(p(s))
        # p(z) = q(z)(z-s) + r at a test point
        z = -0.7 + 0.2j
        assert q(z) * (z - s) + r == pytest.approx(p(z))


class TestCauchyRadius:
    def test_lower_bound_property(self):
        roots = [0.5, 2.0, -3.0 + 1j]
        p = Polynomial.from_roots(roots)
        beta = p.cauchy_lower_radius()
        assert 0 < beta <= min(abs(r) for r in roots) + 1e-9

    def test_zero_at_origin(self):
        p = Polynomial([1, 0])  # root 0
        assert p.cauchy_lower_radius() == 0.0


@st.composite
def random_polys(draw):
    degree = draw(st.integers(min_value=1, max_value=8))
    coeffs = [
        complex(draw(st.floats(-5, 5)), draw(st.floats(-5, 5)))
        for _ in range(degree + 1)
    ]
    if abs(coeffs[0]) < 1e-3:
        coeffs[0] = 1.0
    return Polynomial(coeffs)


@given(random_polys(), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=100, deadline=None)
def test_horner_matches_numpy(p, re, im):
    z = complex(re, im)
    assert p(z) == pytest.approx(complex(np.polyval(p.coeffs, z)), abs=1e-6)


@given(random_polys(), st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=100, deadline=None)
def test_deflation_inverts_from_root(p, re, im):
    root = complex(re, im)
    grown_coeffs = np.convolve(p.coeffs, [1.0, -root])
    grown = Polynomial(grown_coeffs)
    shrunk = grown.deflate(root)
    assert np.allclose(shrunk.coeffs, p.coeffs, atol=1e-8)


@given(random_polys())
@settings(max_examples=100, deadline=None)
def test_cauchy_radius_is_lower_bound(p):
    if abs(p.constant) < 1e-9:  # (near-)zero root: bound trivially ~0
        return
    beta = p.cauchy_lower_radius()
    roots = np.roots(p.coeffs)
    if roots.size:
        assert beta <= np.min(np.abs(roots)) * (1 + 1e-6) + 1e-9
