"""Tests for the linear-system method pool and its polyalgorithm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apps.poly.linear_solvers import (
    conjugate_gradient,
    direct_lu,
    gauss_seidel,
    is_diagonally_dominant,
    is_spd,
    is_symmetric,
    jacobi,
    linear_polyalgorithm,
    residual,
)
from apps.errors import ConvergenceError, SolverError


def _dd_system(n=6, seed=0):
    """A strictly diagonally dominant (and hence solvable) system."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a += np.diagflat(np.abs(a).sum(axis=1) + 1.0)
    b = rng.normal(size=n)
    return a, b


def _spd_system(n=6, seed=1):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.normal(size=n)
    return a, b


class TestPredicates:
    def test_diagonal_dominance(self):
        assert is_diagonally_dominant(np.array([[3.0, 1.0], [1.0, 3.0]]))
        assert not is_diagonally_dominant(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_symmetry(self):
        assert is_symmetric(np.eye(3))
        assert not is_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_spd(self):
        a, _ = _spd_system()
        assert is_spd(a)
        assert not is_spd(-a)
        assert not is_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestMethods:
    @pytest.mark.parametrize("solver", [direct_lu, jacobi, gauss_seidel])
    def test_solves_dd_system(self, solver):
        a, b = _dd_system()
        x = solver(a, b)
        assert residual(a, b, x) < 1e-8

    def test_cg_solves_spd(self):
        a, b = _spd_system()
        x = conjugate_gradient(a, b)
        assert residual(a, b, x) < 1e-8

    def test_cg_rejects_non_spd(self):
        # symmetric indefinite with a p·Ap <= 0 breakdown on this rhs
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(ConvergenceError):
            conjugate_gradient(a, np.array([1.0, 1.0]))

    def test_jacobi_diverges_without_dominance(self):
        a = np.array([[1.0, 5.0], [5.0, 1.0]])
        with pytest.raises(ConvergenceError):
            jacobi(a, np.array([1.0, 1.0]), max_iter=200)

    def test_direct_rejects_singular(self):
        with pytest.raises(SolverError):
            direct_lu(np.zeros((2, 2)), np.array([1.0, 2.0]))

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            direct_lu(np.ones((2, 3)), np.ones(2))
        with pytest.raises(SolverError):
            direct_lu(np.eye(2), np.ones(3))

    def test_zero_diagonal_rejected(self):
        a = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SolverError):
            jacobi(a, np.ones(2))
        with pytest.raises(SolverError):
            gauss_seidel(a, np.ones(2))


class TestPolyalgorithm:
    def test_sequential_on_spd_uses_cg(self):
        a, b = _spd_system()
        result = linear_polyalgorithm().run_sequential({"A": a, "b": b})
        assert result.method == "conjugate_gradient"
        assert residual(a, b, np.asarray(result.value)) < 1e-8

    def test_sequential_on_general_falls_to_direct(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5))  # not symmetric, not dominant
        b = rng.normal(size=5)
        result = linear_polyalgorithm().run_sequential({"A": a, "b": b})
        assert result.method == "direct_lu"
        assert residual(a, b, np.asarray(result.value)) < 1e-8

    def test_worlds_mode_solves(self):
        a, b = _dd_system()
        result = linear_polyalgorithm().run_worlds(
            {"A": a.tolist(), "b": b.tolist()}, backend="thread"
        )
        assert result.succeeded
        assert residual(a, b, np.asarray(result.value)) < 1e-8

    def test_misleading_structure_still_solved(self):
        # symmetric (so CG applies/attempts) but indefinite, with a rhs
        # that breaks CG; not diagonally dominant, so the ordering falls
        # through to the direct method
        a = np.array([[1.0, 4.0], [4.0, 1.0]])
        b = np.array([1.0, 0.0])
        result = linear_polyalgorithm().run_sequential({"A": a, "b": b})
        assert result.succeeded
        assert result.method == "direct_lu"
        assert "conjugate_gradient" in result.attempts


sizes = st.integers(min_value=2, max_value=8)


@given(sizes, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_iterative_methods_agree_with_direct(n, seed):
    a, b = _dd_system(n, seed)
    x_direct = direct_lu(a, b)
    x_jacobi = jacobi(a, b)
    x_gs = gauss_seidel(a, b)
    assert np.allclose(x_jacobi, x_direct, atol=1e-6)
    assert np.allclose(x_gs, x_direct, atol=1e-6)


@given(sizes, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_cg_agrees_with_direct_on_spd(n, seed):
    a, b = _spd_system(n, seed)
    assert np.allclose(conjugate_gradient(a, b), direct_lu(a, b), atol=1e-6)
