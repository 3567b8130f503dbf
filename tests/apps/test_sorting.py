"""Tests for the sorting-alternatives workload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apps.sorting import (
    ALGORITHMS,
    INPUT_KINDS,
    comparison_counts,
    domain_matrix,
    make_input,
    sorting_polyalgorithm,
)
from apps.errors import SolverError


class TestAlgorithms:
    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_sorts_correctly(self, name):
        data = make_input("random", 200, seed=3)
        assert ALGORITHMS[name](data) == sorted(data)

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_empty_and_singleton(self, name):
        assert ALGORITHMS[name]([]) == []
        assert ALGORITHMS[name]([7]) == [7]

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_input_not_mutated(self, name):
        data = [3, 1, 2]
        ALGORITHMS[name](data)
        assert data == [3, 1, 2]

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_all_input_kinds(self, kind, name):
        data = make_input(kind, 150, seed=1)
        assert ALGORITHMS[name](data) == sorted(data)


class TestCostSurface:
    def test_quicksort_quadratic_on_sorted(self):
        counts_random = comparison_counts(make_input("random", 300))
        counts_sorted = comparison_counts(make_input("sorted", 300))
        assert counts_sorted["quicksort"] > 5 * counts_random["quicksort"]

    def test_insertion_linearish_on_nearly_sorted(self):
        counts = comparison_counts(make_input("nearly-sorted", 300))
        assert counts["insertion"] < counts["mergesort"]
        assert counts["insertion"] < counts["heapsort"]

    def test_quicksort_wins_on_random(self):
        counts = comparison_counts(make_input("random", 500, seed=2))
        assert counts["quicksort"] < counts["insertion"]

    def test_winner_rotates_across_domain(self):
        import numpy as np

        _, names, rows = domain_matrix(n=300)
        winners = {names[int(np.argmin(row))] for row in rows}
        assert len(winners) >= 2  # no single algorithm dominates

    def test_unknown_input_kind_rejected(self):
        with pytest.raises(SolverError):
            make_input("nope", 10)


class TestDomainIntegration:
    def test_scheme_c_beats_scheme_b_on_sorting_domain(self):
        from repro.analysis.domain import DomainAnalysis

        _, _, rows = domain_matrix(n=300)
        domain = DomainAnalysis(rows)
        assert domain.domain_pi() > 1.0
        assert domain.complementarity() > 0.1


class TestPolyalgorithm:
    def test_sequential_first_acceptable_wins(self):
        poly = sorting_polyalgorithm()
        result = poly.run_sequential({"data": [4, 2, 9, 1]})
        assert result.succeeded
        assert result.method == "quicksort"  # first in the pool, correct

    def test_worlds_mode(self):
        poly = sorting_polyalgorithm()
        result = poly.run_worlds({"data": make_input("reversed", 80)},
                                 backend="thread")
        assert result.succeeded


@given(st.lists(st.integers(-50, 50), max_size=60))
@settings(max_examples=150, deadline=None)
def test_all_algorithms_agree(data):
    expected = sorted(data)
    for name, algorithm in ALGORITHMS.items():
        assert algorithm(data) == expected, name


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=40))
@settings(max_examples=100, deadline=None)
def test_stability_of_counts(data):
    """Counting is deterministic: same input, same comparison counts."""
    assert comparison_counts(data) == comparison_counts(data)
