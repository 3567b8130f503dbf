"""Tests for the Table I parallel rootfinder driver."""

import math

import numpy as np
import pytest

from apps.poly.rootfind.jenkins_traub import JTOptions
from apps.poly.rootfind.parallel import (
    ParallelRootfinder,
    default_table_polynomial,
    render_table_one,
)
from apps.poly.rootfind.polynomial import Polynomial


@pytest.fixture(scope="module")
def finder():
    return ParallelRootfinder(default_table_polynomial(degree=24))


def test_default_polynomial_shape():
    p = default_table_polynomial(degree=17)
    assert p.degree == 17


def test_sequential_run_is_deterministic(finder):
    a = finder.sequential_run(3)
    b = finder.sequential_run(3)
    assert a.failed == b.failed
    assert a.zeros == b.zeros


def test_sequential_runs_have_dispersion(finder):
    runs = finder.sequential_runs(range(6))
    times = [r.elapsed_s for r in runs]
    assert max(times) > 0
    # runtimes differ across angle seeds (the paper's premise)
    assert max(times) > min(times)


def test_winner_zeros_are_correct(finder):
    outcome = finder.parallel_run(range(4), backend="thread")
    assert not outcome.failed
    zeros = outcome.extras["state"]["zeros"]
    p = finder.poly
    assert all(abs(p(z)) < 1e-4 for z in zeros)
    assert len(zeros) == p.degree


def test_parallel_run_fork_backend(finder):
    import os

    if not hasattr(os, "fork"):
        pytest.skip("needs fork")
    outcome = finder.parallel_run(range(3), backend="fork")
    assert not outcome.failed
    assert len(outcome.extras["state"]["zeros"]) == finder.poly.degree


def test_table_one_shape(finder):
    rows = finder.table_one([1, 2, 3], base_seed=0)
    assert [r.procs for r in rows] == [1, 2, 3]
    for row in rows:
        assert row.min_s <= row.avg_s <= row.max_s
        assert row.fails >= 0
        assert math.isfinite(row.par_s)
    # with one process, par ≈ the single sequential time plus overhead
    assert rows[0].par_s == pytest.approx(rows[0].max_s, rel=0.3)


def test_table_one_two_procs_story(finder):
    """The paper's headline: at 2 procs on 2 CPUs, par beats avg.

    par = min + overhead, and overhead is small, so par < avg whenever
    the dispersion exceeds the worlds overhead.
    """
    row = finder.table_one_row(6, base_seed=0, processors=6)
    # with one CPU per process, parallel tracks the fastest alternative
    assert row.par_s == pytest.approx(row.min_s, rel=0.25)
    assert row.par_s < row.avg_s


def test_table_one_cpu_saturation(finder):
    """More processes than CPUs: par grows past min (paper procs >= 3)."""
    unsat = finder.table_one_row(2, base_seed=0, processors=2)
    sat = finder.table_one_row(6, base_seed=0, processors=2)
    assert sat.par_s > unsat.par_s


def test_failures_counted():
    strict = JTOptions(
        stage1_iterations=1,
        stage2_max_iterations=4,
        stage3_max_iterations=3,
        max_angle_tries=1,
    )
    finder = ParallelRootfinder(Polynomial.wilkinson(14), options=strict)
    rows = finder.table_one([6], base_seed=0)
    assert rows[0].fails > 0


def test_all_seeds_failing_gives_nan_par():
    impossible = JTOptions(
        stage1_iterations=0,
        stage2_max_iterations=1,
        stage3_max_iterations=1,
        max_angle_tries=1,
    )
    finder = ParallelRootfinder(Polynomial.wilkinson(16), options=impossible)
    row = finder.table_one_row(3, base_seed=0)
    if row.fails == 3:  # overwhelmingly likely with this budget
        assert math.isnan(row.par_s)


def test_render_table(finder):
    rows = finder.table_one([1, 2])
    text = render_table_one(rows)
    assert "procs" in text and "par" in text
    assert len(text.splitlines()) == 3
