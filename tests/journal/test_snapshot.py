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


def _history(journal):
    """Every kind of ledger line: an applied admit settled after its
    block win (so applied order is not seq order), an aborted attempt, a
    sealed admit, an open unkeyed txn, a grouped admit, reads, releases."""
    admit = journal.begin("admit", request=7, tenant="t0", priority=0, spec={"n": 7})
    journal.seal(admit)
    lost = journal.begin("block", block=7, attempt=0, winner_index=1, winner_name="slow")
    journal.abort(lost, "retry")
    record_block_win(journal, 7, 1, _Winner(0, "fast", ("fast", 49)))
    journal.mark_applied(admit, status="committed")
    later = journal.begin("admit", request=8, tenant="t1", priority=1, spec=None)
    journal.seal(later)
    journal.begin("restart", name="ckpt", crc=1234)
    journal.note_read("tty", b"hi")
    journal.release(None, "disk", eid=1, pos_start=0, pos_end=4)
    with journal.group():
        grouped = journal.begin("admit", request=9, tenant="t0", priority=0, spec=None)
        journal.seal(grouped)
    record_block_win(journal, 9, 0, _Winner(2, "mid", 81))
    journal.mark_applied(grouped, status="committed")


#: ``snapshot()`` after ``_history``, as the tree before the one-entry-
#: per-txn ledger wrote it (marker, frame header, pickled state)
SNAPSHOT_BYTES = bytes.fromhex(
    "4d57534e4150310a4f02000049de153980059544020000000000007d94288c0a736e"
    "61705f696e646578944b018c086e6578745f736571944b088c0966726f6e74696572"
    "73947d948c046469736b944b04738c057265616473947d948c037474799443026869"
    "94738c07696e74656e7473947d94284b017d94288c0174948c06696e74656e74948c"
    "03736571944b018c046b696e64948c0561646d6974948c0464617461947d94288c07"
    "72657175657374944b078c0674656e616e74948c027430948c087072696f72697479"
    "944b008c0473706563947d948c016e944b077375754b037d9428680d680e680f4b03"
    "68108c05626c6f636b9468127d9428681c4b078c07617474656d7074944b018c0c77"
    "696e6e65725f696e646578944b008c0b77696e6e65725f6e616d65948c0466617374"
    "9475754b047d9428680d680e680f4b046810681168127d942868144b0868158c0274"
    "319468174b0168184e75754b057d9428680d680e680f4b0568108c07726573746172"
    "749468127d94288c046e616d65948c04636b7074948c03637263944dd20475754b06"
    "7d9428680d680e680f4b066810681168127d942868144b096815681668174b006818"
    "4e75754b077d9428680d680e680f4b076810681c68127d9428681c4b09681e4b0068"
    "1f4b0268208c036d6964947575758c067365616c6564945d94284b014b034b044b06"
    "4b07658c076170706c696564947d94284b037d948c0576616c75659468214b318694"
    "734b017d948c06737461747573948c09636f6d6d697474656494734b077d9468354b"
    "51734b067d946838683973758c0761626f72746564945d944b0261752e"
)


def test_snapshot_of_the_same_history_writes_the_same_bytes():
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    _history(journal)
    journal.snapshot()
    written = storage.load()
    written = written[written.rindex(SNAP_MAGIC):]
    body = SNAPSHOT_BYTES[len(SNAP_MAGIC) + _FRAME.size:]
    # same state, same key order (the ledger's intents in arrival order,
    # applied txns in the order they were applied)
    mine = pickle.loads(written[len(SNAP_MAGIC) + _FRAME.size:])
    theirs = pickle.loads(body)
    assert mine == theirs
    assert list(mine["intents"]) == list(theirs["intents"]) == [1, 3, 4, 5, 6, 7]
    assert list(mine["applied"]) == list(theirs["applied"]) == [3, 1, 7, 6]
    # byte for byte, wherever this interpreter pickles the way the one
    # that wrote SNAPSHOT_BYTES did
    if pickle.dumps(theirs, protocol=pickle.HIGHEST_PROTOCOL) == body:
        assert written == SNAPSHOT_BYTES
    # a reopen loads the snapshot into the ledger that wrote it: the next
    # snapshot holds the same state (it may pickle shorter — the loaded
    # intents now share their strings with the later ones)
    reopened = CommitJournal(storage=MemoryJournalStorage(storage.load()))
    assert reopened.restored_from_snapshot
    reopened.snapshot()
    raw = reopened.storage.load()
    again = pickle.loads(raw[raw.rindex(SNAP_MAGIC) + len(SNAP_MAGIC) + _FRAME.size:])
    assert again == {**theirs, "snap_index": 2}


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
