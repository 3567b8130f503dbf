"""The write-ahead journal: framing, torn-tail repair, the txn protocol."""

import pickle
import struct
import zlib

import pytest

from repro.errors import JournalCrash, JournalError
from repro.faults import FaultKind, FaultPlan
from repro.journal import (
    CommitJournal,
    FileJournalStorage,
    MemoryJournalStorage,
    find_block_win,
    record_block_win,
)
from repro.journal.wal import MAGIC
from repro.util.framing import frame

#: the frame header, spelled here independently of the codec under test
_FRAME = struct.Struct("<II")


def reopen(journal: CommitJournal) -> CommitJournal:
    """A fresh journal over the same surviving bytes (simulated restart)."""
    return CommitJournal(MemoryJournalStorage(journal.storage.load()))


class TestFraming:
    def test_empty_storage_gets_magic(self):
        storage = MemoryJournalStorage()
        CommitJournal(storage)
        assert storage.load() == MAGIC

    def test_bad_magic_rejected(self):
        with pytest.raises(JournalError, match="bad magic"):
            CommitJournal(MemoryJournalStorage(b"NOTAJRNL" + b"x" * 40))

    def test_torn_magic_repaired(self):
        j = CommitJournal(MemoryJournalStorage(MAGIC[:3]))
        assert j.repaired_bytes == 3
        assert j.storage.load() == MAGIC

    def test_records_survive_reopen(self):
        j = CommitJournal()
        seq = j.begin("commit", group=1, winner_wid=2)
        j.seal(seq)
        j.mark_applied(seq)
        j2 = reopen(j)
        assert j2.status(seq) == "applied"
        assert j2.intent(seq)["data"] == {"group": 1, "winner_wid": 2}
        assert j2._next_seq > seq

    def test_torn_tail_truncated_on_open(self):
        j = CommitJournal()
        seq = j.begin("commit", group=1)
        j.seal(seq)
        storage = MemoryJournalStorage(j.storage.load()[:-5])  # torn seal
        j2 = CommitJournal(storage)
        assert j2.repaired_bytes > 0
        assert j2.status(seq) == "open"  # the seal never became durable
        # the repair is itself durable: a third open finds a clean stream
        assert CommitJournal(MemoryJournalStorage(storage.load())).repaired_bytes == 0

    def test_corrupt_record_truncated_without_unpickling(self):
        j = CommitJournal()
        seq = j.begin("commit", group=1)
        raw = bytearray(j.storage.load())
        raw[-1] ^= 0xFF  # flip a byte inside the intent body
        j2 = CommitJournal(MemoryJournalStorage(bytes(raw)))
        assert j2.repaired_bytes > 0
        with pytest.raises(JournalError):
            j2.intent(seq)

    def test_crc_checked_before_body_parse(self):
        # a frame whose header promises garbage of the right length: the
        # CRC must reject it before pickle ever sees the bytes
        body = b"\x80\x04garbage-not-a-pickle"
        frame = _FRAME.pack(len(body), zlib.crc32(body) ^ 1) + body
        j = CommitJournal(MemoryJournalStorage(MAGIC + frame))
        assert j.repaired_bytes == len(frame)
        assert j.records() == []

    def test_storage_is_magic_plus_one_codec_frame_per_record(self):
        storage = MemoryJournalStorage()
        j = CommitJournal(storage)
        admit = j.begin("admit", request=7, tenant="t0")
        j.seal(admit)
        lost = j.begin("block", block=7, attempt=0)
        j.abort(lost, "retry")
        won = j.begin("block", block=7, attempt=1)
        j.seal(won)
        j.mark_applied(won, value=49)
        j.mark_applied(admit, status="committed")
        records = j.records()
        assert [r["t"] for r in records] == [
            "intent", "seal", "intent", "abort", "intent", "seal",
            "applied", "applied",
        ]
        assert storage.load() == MAGIC + b"".join(
            frame(pickle.dumps(r, pickle.HIGHEST_PROTOCOL)) for r in records
        )
        # ... which a reopen replays unchanged, and leaves unchanged
        assert reopen(j).records() == records
        assert reopen(j).storage.load() == storage.load()

    def test_records_reads_a_damaged_live_storage_without_repairing_it(self):
        storage = MemoryJournalStorage()
        j = CommitJournal(storage)
        j.seal(j.begin("commit", group=1))
        good = j.records()
        storage.append(b"\x07\x00\x00")  # another writer's half-landed frame
        image = storage.load()
        assert j.records() == good
        assert storage.load() == image and storage.quarantine_log == []
        assert j.quarantines == [] and j.repaired_bytes == 0

    def test_file_storage_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        j = CommitJournal(FileJournalStorage(path))
        seq = j.begin("commit", group=9)
        j.seal(seq)
        j2 = CommitJournal(FileJournalStorage(path))
        assert j2.status(seq) == "sealed"
        assert j2.intent(seq)["data"]["group"] == 9


class TestProtocol:
    def test_intent_seal_apply_lifecycle(self):
        j = CommitJournal()
        seq = j.begin("eliminate", wid=3)
        assert j.status(seq) == "open"
        j.seal(seq)
        assert j.status(seq) == "sealed"
        j.mark_applied(seq, note="done")
        assert j.status(seq) == "applied"

    def test_seqs_monotonic(self):
        j = CommitJournal()
        assert [j.begin("a"), j.begin("b"), j.begin("c")] == [1, 2, 3]

    def test_apply_unsealed_rejected(self):
        j = CommitJournal()
        seq = j.begin("commit")
        with pytest.raises(JournalError, match="unsealed"):
            j.mark_applied(seq)

    def test_abort_rolls_back_open_txn(self):
        j = CommitJournal()
        seq = j.begin("commit")
        j.abort(seq, reason="test")
        assert j.status(seq) == "aborted"
        j.abort(seq)  # idempotent

    def test_abort_sealed_rejected(self):
        j = CommitJournal()
        seq = j.begin("commit")
        j.seal(seq)
        with pytest.raises(JournalError, match="sealed"):
            j.abort(seq)

    def test_double_seal_rejected(self):
        j = CommitJournal()
        seq = j.begin("commit")
        j.seal(seq)
        with pytest.raises(JournalError):
            j.seal(seq)

    def test_mark_applied_idempotent(self):
        j = CommitJournal()
        seq = j.begin("commit")
        j.seal(seq)
        j.mark_applied(seq)
        before = len(j.records())
        j.mark_applied(seq)
        assert len(j.records()) == before

    def test_unsealed_and_sealed_unapplied_views(self):
        j = CommitJournal()
        open_seq = j.begin("a")
        sealed_seq = j.begin("b")
        j.seal(sealed_seq)
        done_seq = j.begin("c")
        j.seal(done_seq)
        j.mark_applied(done_seq)
        assert j.unsealed_txns() == [open_seq]
        assert j.sealed_unapplied() == [sealed_seq]

    def test_unpicklable_intent_raises_journal_error(self):
        j = CommitJournal()
        with pytest.raises(JournalError, match="unpicklable"):
            j.begin("commit", payload=lambda: None)

    def test_unpicklable_apply_data_degrades_to_marker(self):
        j = CommitJournal()
        seq = j.begin("restart")
        j.seal(seq)
        j.mark_applied(seq, value=lambda: None)  # not picklable
        assert j.status(seq) == "applied"
        assert reopen(j).status(seq) == "applied"


class TestFrontierAndReads:
    def test_release_frontier_is_max_pos_end(self):
        j = CommitJournal()
        j.release(None, "tty", 1, 0, 7)
        j.release(None, "tty", 2, 7, 10)
        assert j.release_frontier("tty") == 10
        assert j.release_frontier("other") == 0
        assert reopen(j).release_frontier("tty") == 10

    def test_reads_accumulate_in_order(self):
        j = CommitJournal()
        j.note_read("tty", b"ab")
        j.note_read("tty", b"cd")
        j.note_read("tty", b"")  # no-op
        assert j.reads_for("tty") == b"abcd"
        assert reopen(j).reads_for("tty") == b"abcd"

    def test_find_sealed_and_applied_match_latest(self):
        j = CommitJournal()
        s1 = j.begin("block", block=7, attempt=0)
        j.seal(s1)
        j.mark_applied(s1, value="first")
        s2 = j.begin("block", block=7, attempt=1)
        j.seal(s2)
        j.mark_applied(s2, value="second")
        assert j.find_sealed("block", block=7)["seq"] == s2
        intent, applied = j.find_applied("block", block=7)
        assert applied["value"] == "second"
        assert j.find_applied("block", block=99) is None


class TestFaultInjection:
    def plan(self, kind, seed=0):
        return FaultPlan(seed=seed, rates={kind: 1.0})

    def test_torn_record_half_frame_then_crash(self):
        j = CommitJournal(fault_plan=self.plan(FaultKind.TORN_RECORD))
        before = len(j.storage)
        with pytest.raises(JournalCrash) as exc:
            j.begin("commit", group=1)
        assert exc.value.kind is FaultKind.TORN_RECORD
        assert len(j.storage) > before  # some bytes landed...
        j2 = reopen(j)
        assert j2.repaired_bytes > 0  # ...and the reopen cuts them away
        assert j2.records() == []

    def test_crash_before_seal_leaves_intent_unsealed(self):
        j = CommitJournal(fault_plan=self.plan(FaultKind.CRASH_BEFORE_SEAL))
        seq = j.begin("commit", group=1)
        with pytest.raises(JournalCrash):
            j.seal(seq)
        assert reopen(j).status(seq) == "open"

    def test_crash_after_seal_leaves_seal_durable(self):
        j = CommitJournal(fault_plan=self.plan(FaultKind.CRASH_AFTER_SEAL))
        seq = j.begin("commit", group=1)
        with pytest.raises(JournalCrash):
            j.seal(seq)
        assert reopen(j).status(seq) == "sealed"

    def test_partial_release_is_armed_not_fired(self):
        j = CommitJournal(fault_plan=self.plan(FaultKind.PARTIAL_RELEASE))
        seq = j.begin("release", device="tty")
        j.seal(seq)  # seal passes: the gate's loop consumes the arm
        assert j.take_armed(seq) is FaultKind.PARTIAL_RELEASE
        assert j.take_armed(seq) is None  # consumed


class TestBlockWinHelpers:
    def test_record_and_find(self):
        from repro.core.outcome import AlternativeResult

        j = CommitJournal()
        win = AlternativeResult(index=1, name="fast", value=42, succeeded=True)
        record_block_win(j, block_id=5, attempt=2, winner=win)
        hit = find_block_win(j, 5)
        assert hit == {"winner_index": 1, "winner_name": "fast", "value": 42}
        assert find_block_win(j, 6) is None

    def test_unpicklable_value_not_replayable(self):
        from repro.core.outcome import AlternativeResult

        j = CommitJournal()
        win = AlternativeResult(index=0, name="odd", value=lambda: 1, succeeded=True)
        record_block_win(j, block_id=5, attempt=0, winner=win)
        assert find_block_win(j, 5) is None  # must re-run, never half-replay
