"""Tests for the polyalgorithm framework (sequential and worlds modes)."""

import pytest

from apps.poly.polyalgorithm import Method, PolyAlgorithm
from apps.poly.scalar_solvers import bisection, newton, secant
from apps.errors import ConvergenceError, SolverError


def _problem(f, a=0.0, b=4.0, x0=3.0):
    return {"f": f, "a": a, "b": b, "x0": x0}


def m_bisect(ws):
    return bisection(ws["f"], ws["a"], ws["b"])


def m_newton(ws):
    return newton(ws["f"], ws["x0"])


def m_secant(ws):
    return secant(ws["f"], ws["a"], ws["b"])


def _accept(ws, value):
    return abs(ws["f"](value)) < 1e-6


def standard_poly():
    return PolyAlgorithm(
        [
            Method("newton", m_newton, accept=_accept),
            Method("secant", m_secant, accept=_accept),
            Method("bisection", m_bisect, accept=_accept,
                   applies=lambda ws: ws["f"](ws["a"]) * ws["f"](ws["b"]) < 0),
        ],
        name="scalar-root",
    )


def test_constructor_validations():
    with pytest.raises(SolverError):
        PolyAlgorithm([])
    with pytest.raises(SolverError):
        PolyAlgorithm([Method("x", m_newton), Method("x", m_bisect)])


class TestSequential:
    def test_first_method_wins_when_it_works(self):
        result = standard_poly().run_sequential(_problem(lambda x: x * x - 2))
        assert result.succeeded
        assert result.method == "newton"
        assert result.value == pytest.approx(2 ** 0.5)

    def test_falls_through_to_robust_method(self):
        # a function whose flat tails break Newton/secant from x0=3 but
        # which brackets fine: atan shifted
        import math

        f = lambda x: math.atan(x - 1.2)
        result = standard_poly().run_sequential(_problem(f, a=-40, b=40, x0=300.0))
        assert result.succeeded
        assert result.method in ("secant", "bisection")
        assert result.value == pytest.approx(1.2, abs=1e-6)
        assert "newton" in result.attempts

    def test_failure_collects_hints(self):
        def hopeless(x):
            return 1.0  # no root at all

        poly = PolyAlgorithm([Method("newton", m_newton)])
        result = poly.run_sequential(_problem(hopeless))
        assert not result.succeeded
        assert "newton" in result.hints

    def test_inapplicable_method_skipped(self):
        poly = PolyAlgorithm(
            [
                Method("never", m_newton, applies=lambda ws: False),
                Method("bisect", m_bisect),
            ]
        )
        result = poly.run_sequential(_problem(lambda x: x - 1))
        assert result.method == "bisect"
        assert "never" not in result.attempts


class TestWorlds:
    def test_worlds_mode_solves(self):
        result = standard_poly().run_worlds(
            _problem(lambda x: x * x - 2), backend="thread"
        )
        assert result.succeeded
        assert result.value == pytest.approx(2 ** 0.5, abs=1e-6)

    def test_worlds_mode_fork_backend(self):
        import os

        if not hasattr(os, "fork"):
            pytest.skip("needs fork")
        result = standard_poly().run_worlds(
            _problem(lambda x: x ** 3 - 8), backend="fork"
        )
        assert result.succeeded
        assert result.value == pytest.approx(2.0, abs=1e-6)

    def test_alternatives_are_rotations(self):
        poly = standard_poly()
        alts = poly.alternatives(_problem(lambda x: x - 1))
        names = [a.name for a in alts]
        assert names == ["first:newton", "first:secant", "first:bisection"]

    def test_each_alternative_eventually_succeeds_alone(self):
        # every rotation solves the easy problem (methods back each other up)
        poly = standard_poly()
        for alt in poly.alternatives(_problem(lambda x: x * x - 2)):
            ws = _problem(lambda x: x * x - 2)
            ws["hints"] = {}
            assert alt.fn(ws) == pytest.approx(2 ** 0.5, abs=1e-6)

    def test_rotation_survives_first_method_failure(self):
        def nasty(x):
            return 1.0 if x > -1000 else -1.0  # no usable root for newton

        poly = PolyAlgorithm(
            [
                Method("newton", m_newton, accept=_accept),
                Method("answer", lambda ws: 42.0),
            ]
        )
        alts = poly.alternatives(_problem(nasty))
        ws = _problem(nasty)
        assert alts[0].fn(ws) == 42.0
        assert ws["solved_by"] == "answer"

    def test_no_applicable_method_raises(self):
        poly = PolyAlgorithm([Method("never", m_newton, applies=lambda ws: False)])
        with pytest.raises(SolverError):
            poly.alternatives(_problem(lambda x: x))

    def test_all_orderings_fail_gives_failed_outcome(self):
        def diverges(ws):
            raise ConvergenceError("nope")

        poly = PolyAlgorithm([Method("bad", diverges)])
        result = poly.run_worlds(_problem(lambda x: x), backend="thread")
        assert not result.succeeded
