"""Journal lifecycle: snapshots, compaction, quarantine, poisoning.

The durable-restart layer's ground floor: a snapshot checkpoints the
whole exactly-once ledger, ``compact()`` truncates the WAL to it, a
torn or corrupt snapshot is quarantined (structured report) and the
open degrades to full replay — never data loss, never a crash — and a
journal that suffered a torn write is *poisoned*: the owning process
is dead and every further append is refused until a reopen.
"""

import pickle
import struct
import zlib
from dataclasses import dataclass

import pytest

from repro.errors import JournalCrash
from repro.faults.plan import FaultKind, FaultPlan
from repro.journal import (
    CommitJournal,
    MemoryJournalStorage,
    find_block_win,
    record_block_win,
)
from repro.journal.wal import MAGIC, SNAP_MAGIC

#: the frame header, spelled here independently of the codec under test
_FRAME = struct.Struct("<II")


@dataclass
class _Winner:
    index: int
    name: str
    value: object


def _ledger(journal, n=5):
    """Grow a representative ledger: applied, sealed, aborted, reads."""
    for i in range(n):
        txn = journal.begin("admit", request=i, tenant=f"t{i % 2}", spec={"n": i})
        journal.seal(txn)
        if i % 2 == 0:
            journal.mark_applied(txn, status="committed")
            record_block_win(journal, i, 0, _Winner(0, "fast", i * 7))
    journal.note_read("tty", b"hello-")
    journal.release(None, "disk", eid=1, pos_start=0, pos_end=4)


def _assert_ledger(journal, n=5):
    for i in range(0, n, 2):
        win = find_block_win(journal, i)
        assert win is not None and win["value"] == i * 7, i
    sealed = {
        intent["data"]["request"]
        for intent in journal.sealed_unapplied_intents("admit")
    }
    assert {i for i in range(n) if i % 2 == 1} <= sealed
    assert journal.reads_for("tty") == b"hello-"
    assert journal.release_frontier("disk") == 4


def test_snapshot_reopen_restores_whole_ledger():
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    _ledger(journal)
    journal.snapshot()
    # post-snapshot suffix must replay on top of the snapshot
    txn = journal.begin("admit", request=100, tenant="late", spec={"n": 100})
    journal.seal(txn)

    reopened = CommitJournal(storage=storage)
    assert reopened.restored_from_snapshot
    assert not reopened.quarantines
    _assert_ledger(reopened)
    late = [
        intent for intent in reopened.sealed_unapplied_intents("admit")
        if intent["data"]["request"] == 100
    ]
    assert len(late) == 1
    # the restored incarnation never reuses a txn seq
    assert reopened.begin("admit", request=101) > txn


def test_compact_truncates_and_preserves_exactly_once_ledger():
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    _ledger(journal, n=20)
    before = len(storage)
    stats = journal.compact()
    assert len(storage) < before
    assert stats["records_dropped"] > 0
    # the replay bound: nothing outside the snapshot remains
    assert journal.records_since_snapshot() == 0

    reopened = CommitJournal(storage=storage)
    assert reopened.restored_from_snapshot
    _assert_ledger(reopened, n=20)


def test_corrupt_snapshot_quarantined_and_degrades_to_full_replay():
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    _ledger(journal)
    journal.snapshot()
    txn = journal.begin("admit", request=100, tenant="late", spec={"n": 100})
    journal.seal(txn)

    # flip one byte inside the snapshot body: CRC must catch it
    raw = bytearray(storage.load())
    at = raw.index(SNAP_MAGIC) + len(SNAP_MAGIC) + _FRAME.size + 3
    raw[at] ^= 0xFF
    corrupted = MemoryJournalStorage(bytes(raw))

    reopened = CommitJournal(storage=corrupted)
    # degraded, not broken: the snapshot is stepped over and every
    # record before AND after it replays — no data loss
    assert not reopened.restored_from_snapshot
    _assert_ledger(reopened)
    assert any(
        intent["data"]["request"] == 100
        for intent in reopened.sealed_unapplied_intents("admit")
    )
    # ... and the damage is reported structurally, not as a warning
    assert len(reopened.quarantines) == 1
    entry = reopened.quarantines[0]
    assert entry.site == "snapshot"
    assert entry.length > 0
    assert entry.crc_expected != entry.crc_got
    # the bad bytes landed in the storage's quarantine sidecar
    assert len(corrupted.quarantine_log) == 1
    assert corrupted.quarantine_log[0]["site"] == "snapshot"


def test_torn_snapshot_poisons_then_reopen_quarantines():
    storage = MemoryJournalStorage()
    plan = FaultPlan(seed=1, rates={FaultKind.TORN_SNAPSHOT: 1.0})
    journal = CommitJournal(storage=storage, fault_plan=plan)
    _ledger(journal)
    with pytest.raises(JournalCrash):
        journal.snapshot()
    # the process is dead: every further append is refused
    assert journal.poisoned
    with pytest.raises(JournalCrash, match="poisoned"):
        journal.begin("admit", request=9)
    with pytest.raises(JournalCrash, match="poisoned"):
        journal.snapshot()

    reopened = CommitJournal(storage=storage)
    assert not reopened.poisoned
    assert reopened.quarantines, "torn snapshot tail must be quarantined"
    _assert_ledger(reopened)


def test_compaction_crash_leaves_durable_snapshot():
    storage = MemoryJournalStorage()
    plan = FaultPlan(seed=1, rates={FaultKind.COMPACTION_CRASH: 1.0})
    journal = CommitJournal(storage=storage, fault_plan=plan)
    _ledger(journal)
    with pytest.raises(JournalCrash, match="mid-compaction"):
        journal.compact()

    # the snapshot was appended durably before the rewrite: the reopen
    # loads it (nothing to quarantine, nothing lost)
    reopened = CommitJournal(storage=storage)
    assert reopened.restored_from_snapshot
    _assert_ledger(reopened)


def test_torn_record_poisons_journal():
    storage = MemoryJournalStorage()
    plan = FaultPlan(seed=1, rates={FaultKind.TORN_RECORD: 1.0})
    journal = CommitJournal(storage=storage, fault_plan=plan)
    with pytest.raises(JournalCrash):
        journal.begin("admit", request=0)
    assert journal.poisoned
    with pytest.raises(JournalCrash, match="poisoned"):
        journal.begin("admit", request=1)

    # reopen truncates the torn tail and carries on clean
    reopened = CommitJournal(storage=storage)
    assert not reopened.poisoned
    assert reopened.sealed_unapplied_intents("admit") == []
    txn = reopened.begin("admit", request=1)
    reopened.seal(txn)
    assert reopened.status(txn) == "sealed"


def test_snapshot_body_is_crc_framed():
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    _ledger(journal, n=2)
    journal.snapshot()
    raw = storage.load()
    at = raw.index(SNAP_MAGIC) + len(SNAP_MAGIC)
    length, crc = _FRAME.unpack_from(raw, at)
    body = raw[at + _FRAME.size:at + _FRAME.size + length]
    assert zlib.crc32(body) == crc
    state = pickle.loads(body)
    assert state["snap_index"] == 1
    assert "intents" in state and "applied" in state and "frontiers" in state
