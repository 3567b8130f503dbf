"""Sorting alternatives: the paper's own Scheme A example, made runnable.

Section 3.2 motivates Scheme A with "quicksort is 'almost always'
O(n log n). Thus, we'll rarely go wrong to use it." — and Scheme C with
the cases where we *do* go wrong. This module supplies deterministic
sorting algorithms with sharply input-dependent behaviour plus input
generators that rotate the winner, feeding the schemes benches and the
domain analysis with a second realistic workload.

All sorts are pure (list in, list out) and instrumented: they return the
sorted list and record comparison counts in ``ws`` when run as workspace
alternatives.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from apps.poly.polyalgorithm import Method, PolyAlgorithm
from apps.errors import SolverError


class _Counter:
    __slots__ = ("comparisons",)

    def __init__(self) -> None:
        self.comparisons = 0

    def less(self, a, b) -> bool:
        self.comparisons += 1
        return a < b


# -- the algorithms ----------------------------------------------------------
def quicksort_first_pivot(data: list, counter: _Counter | None = None) -> list:
    """Deterministic quicksort, first element as pivot.

    O(n log n) on random data, O(n²) on sorted/reversed input — the
    classic "almost always" failure mode. Iterative, so the quadratic
    case burns time rather than the recursion limit.
    """
    counter = counter or _Counter()
    data = list(data)
    stack = [(0, len(data) - 1)]
    while stack:
        lo, hi = stack.pop()
        if lo >= hi:
            continue
        pivot = data[lo]
        i, j = lo + 1, hi
        while True:
            while i <= j and not counter.less(pivot, data[i]):
                i += 1
            while i <= j and counter.less(pivot, data[j]):
                j -= 1
            if i > j:
                break
            data[i], data[j] = data[j], data[i]
        data[lo], data[j] = data[j], data[lo]
        stack.append((lo, j - 1))
        stack.append((j + 1, hi))
    return data


def mergesort(data: list, counter: _Counter | None = None) -> list:
    """Always O(n log n); higher constant factor and extra memory."""
    counter = counter or _Counter()
    items = list(data)
    width = 1
    n = len(items)
    buffer = items[:]
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            left, right = lo, mid
            for out in range(lo, hi):
                if left < mid and (
                    right >= hi or not counter.less(items[right], items[left])
                ):
                    buffer[out] = items[left]
                    left += 1
                else:
                    buffer[out] = items[right]
                    right += 1
        items, buffer = buffer, items
        width *= 2
    return items


def insertion_sort(data: list, counter: _Counter | None = None) -> list:
    """O(n + inversions): unbeatable on nearly-sorted input, dreadful
    otherwise."""
    counter = counter or _Counter()
    items = list(data)
    for i in range(1, len(items)):
        value = items[i]
        j = i - 1
        while j >= 0 and counter.less(value, items[j]):
            items[j + 1] = items[j]
            j -= 1
        items[j + 1] = value
    return items


def heapsort(data: list, counter: _Counter | None = None) -> list:
    """Always O(n log n), in place, cache-unfriendly constants."""
    counter = counter or _Counter()
    items = list(data)
    n = len(items)

    def sift(lo: int, hi: int) -> None:
        root = lo
        while True:
            child = 2 * root + 1
            if child > hi:
                return
            if child + 1 <= hi and counter.less(items[child], items[child + 1]):
                child += 1
            if counter.less(items[root], items[child]):
                items[root], items[child] = items[child], items[root]
                root = child
            else:
                return

    for start in range(n // 2 - 1, -1, -1):
        sift(start, n - 1)
    for end in range(n - 1, 0, -1):
        items[0], items[end] = items[end], items[0]
        sift(0, end - 1)
    return items


ALGORITHMS = {
    "quicksort": quicksort_first_pivot,
    "mergesort": mergesort,
    "insertion": insertion_sort,
    "heapsort": heapsort,
}


def comparison_counts(data: Iterable) -> dict[str, int]:
    """Comparisons each algorithm needs on ``data`` (the cost surface)."""
    out = {}
    items = list(data)
    for name, algorithm in ALGORITHMS.items():
        counter = _Counter()
        result = algorithm(items, counter)
        if result != sorted(items):
            raise SolverError(f"{name} produced an unsorted result")
        out[name] = counter.comparisons
    return out


# -- input generators ------------------------------------------------------------
def make_input(kind: str, n: int, seed: int = 0) -> list[int]:
    """Named input classes with different algorithm winners."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.integers(0, n * 10, size=n).tolist()
    if kind == "sorted":
        return list(range(n))
    if kind == "reversed":
        return list(range(n, 0, -1))
    if kind == "nearly-sorted":
        items = list(range(n))
        for _ in range(max(1, n // 50)):
            i, j = rng.integers(0, n, size=2)
            items[i], items[j] = items[j], items[i]
        return items
    if kind == "few-unique":
        return rng.integers(0, 4, size=n).tolist()
    raise SolverError(f"unknown input kind {kind!r}")


INPUT_KINDS = ("random", "sorted", "reversed", "nearly-sorted", "few-unique")


def domain_matrix(n: int = 400, seed: int = 0) -> tuple[list[str], list[str], list[list[int]]]:
    """(input kinds, algorithm names, comparison-count matrix).

    Feed the matrix to :class:`repro.analysis.domain.DomainAnalysis` with
    comparisons as the cost unit.
    """
    names = list(ALGORITHMS)
    rows = []
    for index, kind in enumerate(INPUT_KINDS):
        counts = comparison_counts(make_input(kind, n, seed + index))
        rows.append([counts[name] for name in names])
    return list(INPUT_KINDS), names, rows


def sorting_polyalgorithm() -> PolyAlgorithm:
    """The four sorts as a polyalgorithm over ``ws["data"]``."""

    def make(name: str):
        algorithm = ALGORITHMS[name]

        def solve(ws: dict):
            counter = _Counter()
            ws["data"] = algorithm(ws["data"], counter)
            ws["comparisons"] = counter.comparisons
            return name

        return Method(
            name,
            solve,
            accept=lambda ws, v: ws["data"] == sorted(ws["data"]),
        )

    return PolyAlgorithm([make(name) for name in ALGORITHMS], name="sorting")
