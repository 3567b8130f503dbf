"""Ablation: page size (2 KiB vs 4 KiB machines).

The paper's two calibration machines differ in page size; the COW
economics shift with it: larger pages mean fewer page-table entries to
copy at fork (cheaper setup) but more false sharing — a small write
privatizes more bytes (costlier runtime copying). This bench runs the
same workload on both calibrated machines plus synthetic variants that
isolate the page-size effect at fixed per-byte copy throughput.
"""

from dataclasses import replace

import pytest

from _harness import report, table
from repro.analysis.calibration import ATT_3B2_310, MachineProfile
from repro.core import Alternative, run_alternatives_sim

STATE_BYTES = 256 * 1024
VALUES = 128  # state is spread over this many heap values
WRITES = 12  # the speculative child updates this many values


def _profile_with_page_size(page_size: int) -> MachineProfile:
    """3B2-like machine rescaled to a page size, same byte throughput.

    Copy throughput is held at the 3B2's bytes/s (326 pages x 2 KiB), so
    only the granularity changes; pte copy cost stays per-entry.
    """
    bytes_per_s = 326.0 * 2048
    return replace(
        ATT_3B2_310,
        page_size=page_size,
        page_copy_s=page_size / bytes_per_s,
    )


def run_workload(profile: MachineProfile):
    value_bytes = STATE_BYTES // VALUES

    def child(ctx):
        for i in range(WRITES):
            yield ctx.put(f"v{i * (VALUES // WRITES)}", bytes(value_bytes))
        return "done"

    outcome, kernel = run_alternatives_sim(
        [Alternative(child, name="writer")],
        initial={f"v{i}": bytes(value_bytes) for i in range(VALUES)},
        profile=profile,
        cpus=1,
    )
    return outcome, kernel


def generate():
    rows = []
    for page_size in (1024, 2048, 4096, 8192, 16384):
        profile = _profile_with_page_size(page_size)
        outcome, kernel = run_workload(profile)
        rows.append(
            (
                page_size,
                kernel.stats.pte_copies,
                outcome.overhead.setup_s * 1000,
                kernel.stats.pages_copied,
                kernel.stats.bytes_copied // 1024,
                outcome.overhead.runtime_s * 1000,
                outcome.overhead.total_s * 1000,
            )
        )
    return rows


def page_size_text(rows):
    text = table(
        ["page size", "PTEs copied", "setup (ms)", "pages copied",
         "KiB copied", "COW (ms)", "total ovh (ms)"],
        rows, fmt="8.2f",
    )
    return text + (
        f"\n\n(256 KiB state in {VALUES} values, child rewrites "
        f"{WRITES}; copy throughput fixed at the 3B2's bytes/s)"
    )


def test_page_size_ablation(benchmark):
    rows = benchmark.pedantic(generate, iterations=1, rounds=1)
    report("ablation_page_size", page_size_text(rows))
    by_size = {r[0]: r for r in rows}
    # setup falls with page size (fewer PTEs to copy at fork)
    setups = [r[2] for r in rows]
    assert setups == sorted(setups, reverse=True)
    # bytes actually copied grow with page size (false sharing)
    kib = [r[4] for r in rows]
    assert kib == sorted(kib)
    # the 2 KiB machine copies at least twice the KiB of... the other way:
    # 16 KiB pages copy strictly more data than 1 KiB pages for the same
    # 12 logical writes
    assert by_size[16384][4] >= 4 * by_size[1024][4]


def test_calibrated_machines_same_workload(benchmark):
    """The two paper machines end-to-end on one workload: the HP's faster
    copy engine and smaller page count beat the 3B2 on both buckets."""
    from repro.analysis.calibration import HP_9000_350

    def run():
        out = {}
        for profile in (ATT_3B2_310, HP_9000_350):
            outcome, _ = run_workload(profile)
            out[profile.name] = outcome.overhead
        return out

    overheads = benchmark.pedantic(run, iterations=1, rounds=1)
    assert overheads["HP 9000/350"].setup_s < overheads["AT&T 3B2/310"].setup_s
    assert overheads["HP 9000/350"].runtime_s < overheads["AT&T 3B2/310"].runtime_s


if __name__ == "__main__":
    for row in generate():
        print(row)
