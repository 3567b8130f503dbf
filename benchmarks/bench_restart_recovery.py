"""Cold-restart recovery time vs journal length, with and without compaction.

The durable-restart layer's headline number: how long a dead process
takes to become a serving process again, as a function of how much WAL
it must replay. Compaction's payoff is that the replay length is bounded
by records-since-snapshot instead of the journal's whole history — this
bench measures both curves, asserts the bound, and proves the corrupt-
snapshot path *degrades* (full replay + structured quarantine report)
rather than losing data.

Two more lines pin what restart leaves behind in the serving process:
one ``find_block_win`` miss (the supervisor's per-request replay
lookup) on a short and a long journal, gated on the ratio so a lookup
that scans history again fails CI, and the reopened journal's resident
bytes per record.

Run standalone with ``--quick`` for the CI smoke, or under
``pytest benchmarks/ --benchmark-only`` for the timed variant. Emits
``benchmarks/results/restart_recovery.txt``.
"""

import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass

from _harness import mean_std, report, table
from repro.journal import (
    CommitJournal,
    MemoryJournalStorage,
    find_block_win,
    record_block_win,
)
from repro.journal.wal import SNAP_MAGIC
from repro.util.framing import HEADER_SIZE

LENGTHS = (200, 1000, 4000)
QUICK_LENGTHS = (100, 400)
REPEATS = 5
QUICK_REPEATS = 2
#: requests in the short and the long journal of the lookup row (also
#: under --quick: building both in memory takes well under a second)
LOOKUP_REQUESTS = (200, 2000)
#: a linear scan reads ~10 here, a keyed lookup ~1
LOOKUP_MAX_GROWTH = 3.0

HEADERS = (
    "records", "open ms (raw)", "open ms (compacted)", "speedup",
    "replay after compact",
)


@dataclass
class _Winner:
    index: int
    name: str
    value: object


def _grow_journal(storage, n_requests: int) -> None:
    """A serving-shaped history: admits, block wins, reads, releases."""
    journal = CommitJournal(storage=storage)
    for i in range(n_requests):
        txn = journal.begin(
            "admit", request=i, tenant=f"t{i % 4}", spec={"n": i},
            priority=0, cost=1.0, timeout=None,
        )
        journal.seal(txn)
        record_block_win(journal, i, 0, _Winner(0, "fast", i * 7))
        journal.mark_applied(txn, status="committed")
        if i % 16 == 0:
            journal.note_read("tty", b"x" * 32)


def _open_ms(storage, repeats: int) -> tuple[float, float, CommitJournal]:
    samples = []
    journal = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        journal = CommitJournal(storage=storage)
        samples.append((time.perf_counter() - t0) * 1e3)
    mu, sd = mean_std(samples)
    return mu, sd, journal


def sweep_restart(lengths=LENGTHS, repeats=REPEATS) -> list[list]:
    rows = []
    for n in lengths:
        raw = MemoryJournalStorage()
        _grow_journal(raw, n)
        raw_ms, _, raw_journal = _open_ms(raw, repeats)

        compacted = MemoryJournalStorage(raw.load())
        journal = CommitJournal(storage=compacted)
        journal.compact()
        # the replay bound: nothing outside the snapshot remains
        replay = journal.records_since_snapshot()
        assert replay == 0, (
            f"compaction left {replay} records to replay "
            "(must be bounded by records-since-snapshot)"
        )
        compact_ms, _, compact_journal = _open_ms(compacted, repeats)
        assert compact_journal.restored_from_snapshot

        # the exactly-once ledger is preserved bit-for-bit
        for i in (0, n // 2, n - 1):
            a = find_block_win(raw_journal, i)
            b = find_block_win(compact_journal, i)
            assert a == b and a["value"] == i * 7, (i, a, b)

        rows.append([
            n, raw_ms, compact_ms,
            raw_ms / compact_ms if compact_ms > 0 else float("inf"),
            replay,
        ])
    return rows


def lookup_us(n_requests: int, calls: int = 2000) -> float:
    """Median cost of one ``find_block_win`` miss after ``n_requests``."""
    storage = MemoryJournalStorage()
    _grow_journal(storage, n_requests)
    journal = CommitJournal(storage=storage)  # the restarted process
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        win = find_block_win(journal, n_requests)  # never journalled
        samples.append((time.perf_counter() - t0) * 1e6)
        assert win is None
    return statistics.median(samples)


def sweep_lookup() -> dict[int, float]:
    costs = {n: lookup_us(n) for n in LOOKUP_REQUESTS}
    short, long_ = (costs[n] for n in LOOKUP_REQUESTS)
    assert long_ <= short * LOOKUP_MAX_GROWTH, (
        f"find_block_win miss costs {long_:.1f} us after {LOOKUP_REQUESTS[1]} "
        f"requests vs {short:.1f} us after {LOOKUP_REQUESTS[0]}: the "
        "per-request lookup grows with journal length"
    )
    return costs


def open_bytes_per_record(n_requests: int) -> float:
    """Traced bytes a journal reopened from storage holds, per record."""
    storage = MemoryJournalStorage()
    _grow_journal(storage, n_requests)
    tracemalloc.start()
    try:
        journal = CommitJournal(storage=storage)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / len(journal.records())


def corrupt_snapshot_recovery(n_requests: int = 200) -> dict:
    """A corrupted snapshot must degrade to full replay + quarantine."""
    storage = MemoryJournalStorage()
    _grow_journal(storage, n_requests)
    journal = CommitJournal(storage=storage)
    journal.snapshot()

    raw = bytearray(storage.load())
    at = raw.index(SNAP_MAGIC) + len(SNAP_MAGIC) + HEADER_SIZE + 8
    raw[at] ^= 0xFF
    damaged = MemoryJournalStorage(bytes(raw))

    t0 = time.perf_counter()
    reopened = CommitJournal(storage=damaged)
    degraded_ms = (time.perf_counter() - t0) * 1e3

    assert not reopened.restored_from_snapshot, "corrupt snapshot must not load"
    assert len(reopened.quarantines) == 1, "damage must be quarantined"
    entry = reopened.quarantines[0]
    assert entry.site == "snapshot" and entry.crc_expected != entry.crc_got
    # full-replay equivalence: every committed value survives
    for i in range(n_requests):
        win = find_block_win(reopened, i)
        assert win is not None and win["value"] == i * 7, i
    return {
        "degraded_open_ms": degraded_ms,
        "quarantined_records": len(reopened.quarantines),
        "values_recovered": n_requests,
    }


def _check_rows(rows) -> None:
    for n, raw_ms, compact_ms, speedup, replay in rows:
        assert replay == 0, (n, replay)
    # at the longest journal, opening the compacted image must not be
    # slower than replaying the full WAL (it is usually much faster)
    n, raw_ms, compact_ms, speedup, _ = rows[-1]
    assert compact_ms <= raw_ms * 1.5, (
        f"compacted open ({compact_ms:.1f} ms) slower than raw replay "
        f"({raw_ms:.1f} ms) at {n} records"
    )


def _residency_lines(lookups, bytes_per_record) -> str:
    return "\n".join([
        *(
            f"find_block_win miss after {n} requests: {us:.2f} us"
            for n, us in lookups.items()
        ),
        f"reopened journal holds {bytes_per_record:.0f} B/record",
    ])


def _emit(rows, lookups, bytes_per_record) -> None:
    report(
        "restart_recovery",
        table(HEADERS, rows, fmt="8.2f") + "\n\n"
        + _residency_lines(lookups, bytes_per_record),
    )


def test_restart_recovery(benchmark):
    rows = benchmark.pedantic(
        sweep_restart, kwargs={"lengths": QUICK_LENGTHS, "repeats": 2},
        iterations=1, rounds=1,
    )
    _check_rows(rows)
    corrupt_snapshot_recovery(100)
    _emit(rows, sweep_lookup(), open_bytes_per_record(QUICK_LENGTHS[-1]))


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    lengths = QUICK_LENGTHS if quick else LENGTHS
    repeats = QUICK_REPEATS if quick else REPEATS
    rows = sweep_restart(lengths, repeats)
    print(table(HEADERS, rows, fmt="8.2f"))
    _check_rows(rows)
    corrupt = corrupt_snapshot_recovery(100 if quick else 200)
    print(
        f"corrupt snapshot: degraded open {corrupt['degraded_open_ms']:.2f} ms, "
        f"{corrupt['quarantined_records']} quarantined, "
        f"{corrupt['values_recovered']} values recovered"
    )
    lookups = sweep_lookup()
    bytes_per_record = open_bytes_per_record(lengths[-1])
    print(_residency_lines(lookups, bytes_per_record))
    _emit(rows, lookups, bytes_per_record)
    print("ok")
