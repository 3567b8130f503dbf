"""``CommitJournal.group()``: consecutive phases of one txn as one
durable append — same records, same bytes, same crash outcomes, and
nothing visible before the append that covers it has returned.
"""

import sys
import threading
from collections import namedtuple

import pytest

from repro.errors import JournalCrash, JournalError
from repro.faults import FaultKind, FaultPlan
from repro.journal import (
    CommitJournal,
    MemoryJournalStorage,
    record_block_win,
    recover,
)
from repro.serve import SpeculationService, WorldBudget

Winner = namedtuple("Winner", "index name value")

CRASH_SITES = (
    FaultKind.TORN_RECORD, FaultKind.CRASH_BEFORE_SEAL, FaultKind.CRASH_AFTER_SEAL,
)


def three_appends(journal, block, value):
    """A block win the way it was written before groups existed."""
    seq = journal.begin(
        "block", block=block, attempt=0, winner_index=1, winner_name="fast",
    )
    journal.seal(seq)
    journal.mark_applied(seq, value=value)


def one_append(journal, block, value):
    record_block_win(journal, block, 0, Winner(1, "fast", value))


class CountingStorage(MemoryJournalStorage):
    """Counts ``append`` calls (the magic's aside) and can look at the
    journal from inside one."""

    def __init__(self, data=b""):
        super().__init__(data)
        self.appends = 0
        self.during_append = None

    def append(self, blob):
        if self.during_append is not None:
            self.during_append()
        super().append(blob)
        self.appends += 1


# -- (i) the same bytes -----------------------------------------------------
def test_grouped_journal_is_byte_identical_to_three_separate_appends():
    grouped, separate = CommitJournal(), CommitJournal()
    for block in range(5):
        one_append(grouped, block, ("v", block))
        three_appends(separate, block, ("v", block))
        # an admit-shaped intent + seal pair
        with grouped.group():
            grouped.seal(grouped.begin("admit", request=block, spec={"n": block}))
        separate.seal(separate.begin("admit", request=block, spec={"n": block}))
    assert grouped.storage.load() == separate.storage.load()
    assert grouped.records() == separate.records()
    assert grouped.records_since_snapshot() == separate.records_since_snapshot() == 25
    # and each side replays the other's file
    assert CommitJournal(grouped.storage).find_applied("block", block=4)[1] == {
        "value": ("v", 4)
    }


def test_nested_groups_flush_once_at_the_outermost_close():
    storage = CountingStorage()
    journal = CommitJournal(storage)
    storage.appends = 0
    with journal.group():
        one_append(journal, 1, "a")  # its own group joins this one
        one_append(journal, 2, "b")
        assert storage.appends == 0
    assert storage.appends == 1
    assert journal.records_since_snapshot() == 6


def test_protocol_checks_still_hold_inside_a_group():
    journal = CommitJournal()
    with journal.group():
        seq = journal.begin("block", block=1)
        with pytest.raises(JournalError, match="unsealed"):
            journal.mark_applied(seq)
        journal.seal(seq)
        with pytest.raises(JournalError, match="already-sealed"):
            journal.seal(seq)
        with pytest.raises(JournalError, match="sealed"):
            journal.abort(seq)
        journal.mark_applied(seq, value=1)
        journal.mark_applied(seq, value=2)  # idempotent, as ungrouped
    assert journal.status(seq) == "applied"
    assert journal.records_since_snapshot() == 3


# -- (ii) the crash-site matrix ---------------------------------------------
def _crashed_run(kind, write):
    """One clean win, then a win on a journal whose plan fires ``kind``;
    returns what the crash left behind and what recovery made of it."""
    storage = MemoryJournalStorage()
    write(CommitJournal(storage), 1, "clean")
    journal = CommitJournal(storage, fault_plan=FaultPlan(seed=7, rates={kind: 1.0}))
    with pytest.raises(JournalCrash) as crash:
        write(journal, 2, "doomed")
    assert crash.value.kind is kind
    left = storage.load()
    report = recover(CommitJournal(storage))
    return left, report, storage.quarantine_log, storage.load(), journal.poisoned


@pytest.mark.parametrize("kind", CRASH_SITES, ids=lambda k: k.value)
def test_a_crash_inside_a_group_leaves_what_the_separate_appends_leave(kind):
    grouped = _crashed_run(kind, one_append)
    separate = _crashed_run(kind, three_appends)
    assert grouped == separate
    left, report, quarantine, _, poisoned = grouped
    if kind is FaultKind.TORN_RECORD:
        assert poisoned and report.repaired_bytes > 0 and len(quarantine) == 1
    elif kind is FaultKind.CRASH_BEFORE_SEAL:
        assert report.rolled_back and not quarantine
    else:
        assert report.rolled_forward and not quarantine


# -- (iii) counted: three appends, six records ------------------------------
def test_one_journalled_request_is_three_appends_carrying_six_records():
    storage = CountingStorage()
    journal = CommitJournal(storage)
    storage.appends = 0
    with SpeculationService(
        WorldBudget(2), workers=1, journal=journal, journal_admission=True,
    ) as svc:
        assert svc.submit("t", [lambda ws: 7], spec={"n": 1}).result(10).value == 7
    assert storage.appends == 3  # admit intent+seal | block win | admit settle
    assert [r["t"] for r in journal.records()] == [
        "intent", "seal", "intent", "seal", "applied", "applied",
    ]


# -- (iv) nothing is known before its append returns ------------------------
def test_the_ledger_learns_of_a_group_only_after_its_append_returns():
    storage = CountingStorage()
    journal = CommitJournal(storage)
    seen = []

    def look():
        seen.append((
            journal.find_applied("block", block=9),
            journal.find_sealed("block", block=9),
            journal.unsealed_txns(),
            journal.records_since_snapshot(),
        ))
        with pytest.raises(JournalError, match="no txn"):
            journal.status(1)

    storage.during_append = look
    one_append(journal, 9, "late")
    storage.during_append = None
    assert seen == [(None, None, [], 0)]
    assert journal.find_applied("block", block=9)[1] == {"value": "late"}
    assert journal.status(1) == "applied"


def test_a_failed_append_leaves_the_ledger_without_the_group():
    storage = CountingStorage()
    journal = CommitJournal(storage)

    def disk_full():
        raise OSError("no space left on device")

    storage.during_append = disk_full
    with pytest.raises(OSError):
        one_append(journal, 3, "lost")
    storage.during_append = None
    assert journal.find_sealed("block", block=3) is None
    assert journal.records() == []
    one_append(journal, 3, "again")  # the group did not stay open
    assert storage.appends == 2  # the magic, then this one


# -- (v) concurrent groups never interleave ---------------------------------
def test_concurrent_groups_never_interleave_one_txns_frames_with_anothers():
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage)
    n_threads, per_thread = 5, 400
    errors = []
    start = threading.Barrier(n_threads)

    def loop(t):
        start.wait(timeout=10)
        try:
            for i in range(per_thread):
                one_append(journal, (t, i), i)
        except JournalError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []

    records = journal.records()
    assert len(records) == 3 * n_threads * per_thread
    for at in range(0, len(records), 3):
        txn = records[at:at + 3]
        assert [r["t"] for r in txn] == ["intent", "seal", "applied"]
        assert len({r["seq"] for r in txn}) == 1, f"frames interleaved at {at}"
    reopened = CommitJournal(MemoryJournalStorage(storage.load()))
    for t in range(n_threads):
        for i in range(per_thread):
            assert reopened.find_applied("block", block=(t, i))[1] == {"value": i}
