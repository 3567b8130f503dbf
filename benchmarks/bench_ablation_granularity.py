"""Ablation: page-based vs value-based world granularity (paper §5).

Quantifies the paper's claim against Wilson's "Alternate Universes":
page-based isolation "trades a higher startup cost against cheaper
referencing from that point on". The model (repro.analysis.granularity)
charges the page scheme a page-map copy + COW page copies, and the value
scheme a per-reference software check + per-object copies; the bench
sweeps reference intensity and object size to map the crossover.
"""

import math

import pytest

from _harness import report, table
from repro.analysis.granularity import (
    AccessProfile,
    GranularityCosts,
    crossover_references,
    page_based_overhead,
    preferred_scheme,
    value_based_overhead,
)


def reference_sweep():
    rows = []
    for references in (10, 100, 1_000, 10_000, 100_000, 1_000_000):
        profile = AccessProfile(
            objects=200, object_bytes=1024, objects_written=40,
            references=references,
        )
        rows.append(
            (
                references,
                page_based_overhead(profile) * 1000,
                value_based_overhead(profile) * 1000,
                preferred_scheme(profile),
            )
        )
    return rows


def object_size_sweep():
    rows = []
    for object_bytes in (16, 64, 256, 1024, 4096):
        profile = AccessProfile(
            objects=200, object_bytes=object_bytes, objects_written=40,
            references=50_000,
        )
        rows.append(
            (
                object_bytes,
                page_based_overhead(profile) * 1000,
                value_based_overhead(profile) * 1000,
                preferred_scheme(profile),
            )
        )
    return rows


def _crossover():
    return crossover_references(
        AccessProfile(objects=200, object_bytes=1024, objects_written=40,
                      references=0)
    )


def refs_text(rows):
    text = table(
        ["references", "page-based (ms)", "value-based (ms)", "winner"],
        rows, fmt="10.3f",
    )
    return text + f"\n\ncrossover at ~{_crossover():,.0f} references"


def objsize_text(rows):
    return table(
        ["object bytes", "page-based (ms)", "value-based (ms)", "winner"],
        rows, fmt="10.3f",
    )


OBJECTS, OBJ_BYTES, WRITES, READS = 120, 512, 20, 30_000


def measured_schemes():
    """One speculative workload through BOTH executable substrates — the
    paged COW heap and the value-granularity store — with their actual
    instrumentation priced by the same cost constants."""
    from repro.memory.frame import FramePool
    from repro.memory.heap import PagedHeap
    from repro.memory.valueworlds import VersionedStore

    costs = GranularityCosts(page_size=2048)
    base = {f"k{i}": bytes(OBJ_BYTES) for i in range(OBJECTS)}

    # page-based: fork a paged heap, do the reads (free) and writes
    pool = FramePool(costs.page_size)
    heap = PagedHeap(pool=pool)
    heap.update(base)
    child = heap.fork()
    for i in range(WRITES):
        child.put(f"k{i}", bytes(OBJ_BYTES))
    for i in range(READS):
        child.get(f"k{i % OBJECTS}")
    page_cost = (
        pool.stats.pte_copies * costs.pte_copy_s
        + pool.stats.pages_copied * costs.page_copy_s
    )

    # value-based: same accesses through a versioned store
    store = VersionedStore(base)
    world = store.root_world().fork()
    for i in range(WRITES):
        world.put(f"k{i}", bytes(OBJ_BYTES))
    for i in range(READS):
        world.get(f"k{i % OBJECTS}")
    value_cost = (
        store.stats.ref_checks * costs.ref_check_s
        + store.stats.object_copies * costs.object_copy_fixed_s
        + store.stats.bytes_copied * costs.object_copy_s_per_byte
    )
    return page_cost, value_cost, pool.stats, store.stats


def measured_text(page_cost, value_cost, page_stats, value_stats):
    return (
        f"identical workload ({OBJECTS} objects x {OBJ_BYTES} B, "
        f"{WRITES} writes, {READS} reads):\n"
        f"  page-based : {page_cost * 1000:8.3f} ms "
        f"({page_stats.pte_copies} PTEs, {page_stats.pages_copied} page copies)\n"
        f"  value-based: {value_cost * 1000:8.3f} ms "
        f"({value_stats.ref_checks} ref checks, "
        f"{value_stats.object_copies} object copies)"
    )


def test_reference_intensity_crossover(benchmark):
    rows = benchmark.pedantic(reference_sweep, iterations=1, rounds=1)
    report("ablation_granularity_refs", refs_text(rows))
    cross = _crossover()

    # fine-grained work prefers values, reference-heavy work prefers pages
    assert rows[0][3] == "value"
    assert rows[-1][3] == "page"
    # page cost is reference-independent; value cost grows linearly
    page_costs = {r[1] for r in rows}
    assert max(page_costs) - min(page_costs) < 1e-9
    value_costs = [r[2] for r in rows]
    assert value_costs == sorted(value_costs)
    # the crossover the table shows matches the closed form
    for references, _, _, winner in rows:
        assert winner == ("value" if references < cross else "page")
    assert math.isfinite(cross)


def test_object_size_sweep(benchmark):
    rows = benchmark.pedantic(object_size_sweep, iterations=1, rounds=1)
    report("ablation_granularity_objsize", objsize_text(rows))
    # at this reference intensity the page scheme wins across sizes
    # except possibly the tiniest objects; page overhead grows with state
    page_costs = [r[1] for r in rows]
    assert page_costs == sorted(page_costs)
    assert rows[-1][3] == "page"


def test_measured_schemes_on_identical_workload(benchmark):
    """Not just the model: both executable substrates, priced."""
    page_cost, value_cost, page_stats, value_stats = benchmark.pedantic(
        measured_schemes, iterations=1, rounds=1
    )
    report(
        "ablation_granularity_measured",
        measured_text(page_cost, value_cost, page_stats, value_stats),
    )
    # reference-heavy workload: the per-reference software tax loses to
    # the MMU-backed page scheme (the paper's positioning)
    assert page_cost < value_cost
    # copies happened on both sides, but reads were free only for pages
    assert page_stats.pages_copied > 0
    assert value_stats.ref_checks > READS


def test_papers_positioning_holds(benchmark):
    """Large-grained parallelism (the paper's target domain) is firmly in
    the page regime; language-level fine grain is firmly value."""

    def classify():
        coarse = AccessProfile(
            objects=500, object_bytes=2048, objects_written=100,
            references=5_000_000,  # a long computation
        )
        fine = AccessProfile(
            objects=20, object_bytes=32, objects_written=4,
            references=50,  # an expression-level speculation
        )
        return preferred_scheme(coarse), preferred_scheme(fine)

    coarse_winner, fine_winner = benchmark.pedantic(classify, iterations=1, rounds=1)
    assert coarse_winner == "page"
    assert fine_winner == "value"


if __name__ == "__main__":
    for row in reference_sweep():
        print(row)
    for row in object_size_sweep():
        print(row)
