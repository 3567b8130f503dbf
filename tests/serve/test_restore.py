"""SpeculationService.restore: cold restart from the journal alone.

A full-process crash leaves only the WAL. ``restore`` must rebuild the
service, replay applied commits idempotently (byte-identical values,
never re-run), re-admit sealed-but-unapplied requests under their
original seq, bump the seq floor past everything journalled, and
settle unrebuildable admits as ``unrecoverable`` instead of retrying
them forever.
"""

import threading
import time

from repro.journal import CommitJournal, MemoryJournalStorage, find_block_win
from repro.serve import ServeRequest, SpeculationService, WorldBudget, admission

from tests.jam import CrashJam


def build_alternatives(spec):
    n = spec["n"]

    def compute(ws):
        ws["n"] = n
        return n * 11

    return [compute]


def _crashed_service_journal(n_requests=4, jam=False):
    """Run a service over a journal, crash it, return the storage.

    ``jam`` keeps the one worker from ever serving: every admit stays
    sealed-but-unapplied, the shape restore must re-admit.
    """
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    svc = SpeculationService(
        WorldBudget(2), workers=1, journal=journal, journal_admission=True
    )
    svc.start()
    tickets = []
    try:
        if jam:
            CrashJam([svc]).submit(svc.submit, "jam", spec=None)
        for i in range(n_requests):
            tickets.append(
                svc.submit("t", build_alternatives({"n": i}), spec={"n": i})
            )
        if not jam:
            for t in tickets:
                t.result(timeout=30)
    finally:
        svc.crash()
    return storage, [t.seq for t in tickets]


def test_restore_replays_applied_commits_idempotently():
    storage, seqs = _crashed_service_journal()
    journal = CommitJournal(storage=storage)
    svc, report = SpeculationService.restore(
        journal, WorldBudget(2), build_alternatives=build_alternatives,
        workers=1,
    )
    try:
        assert sorted(seqs) == [
            s for s in report.already_applied if s in seqs
        ], "every committed request is recognised as already applied"
        assert report.re_admitted == []
        # the journalled values are replayable and byte-identical
        for i, seq in enumerate(seqs):
            win = find_block_win(journal, seq)
            assert win is not None and win["value"] == i * 11
    finally:
        svc.stop()


def test_restore_re_admits_sealed_unapplied_under_original_seq():
    storage, seqs = _crashed_service_journal(jam=True)
    journal = CommitJournal(storage=storage)
    svc, report = SpeculationService.restore(
        journal, WorldBudget(2), build_alternatives=build_alternatives,
        workers=2,
    )
    try:
        assert sorted(report.re_admitted) == sorted(seqs)
        for i, seq in enumerate(seqs):
            result = report.tickets[seq].result(timeout=30)
            assert result.committed
            assert result.seq == seq, "original seq survives the restart"
            assert result.value == i * 11
            # exactly-once: the replayed run applied one block win
            assert find_block_win(journal, seq)["value"] == i * 11
    finally:
        svc.stop()


def test_crash_runs_nothing_it_had_only_queued():
    """A crashed service is a dead process: once ``crash()`` returns, the
    journal holds no ``block`` intent for any request that was still
    queued behind the jammed worker — as after ``kill -9`` — and restore
    re-admits each of them once, from its sealed admit."""
    storage, seqs = _crashed_service_journal(n_requests=5, jam=True)
    journal = CommitJournal(storage=storage)
    ran = {
        r["data"]["block"] for r in journal.records()
        if r["t"] == "intent" and r["kind"] == "block"
    }
    assert not ran & set(seqs), f"the dead service ran queued requests {ran}"
    assert {
        i["data"]["request"] for i in journal.sealed_unapplied_intents("admit")
    } >= set(seqs)
    svc, report = SpeculationService.restore(
        journal, WorldBudget(2), build_alternatives=build_alternatives,
        workers=2,
    )
    try:
        assert sorted(report.re_admitted) == sorted(seqs)
        for i, seq in enumerate(seqs):
            assert report.tickets[seq].result(timeout=30).value == i * 11
    finally:
        svc.stop()
    applied = [i["data"]["block"] for i, _ in journal.applied_intents("block")]
    assert sorted(applied) == sorted(seqs), "each ran exactly once"


def test_a_request_coming_back_to_its_settled_admit_is_acked_again():
    """``confirm_stolen`` closes the source's ledger line. If the request
    then comes back (the thief died, the walk wrapped round), that
    settled admit is not an ack: without a fresh sealed one the request
    is durable nowhere, and the next crash loses it."""
    journal = CommitJournal()
    svc = SpeculationService(
        WorldBudget(1), workers=1, journal=journal, journal_admission=True
    )
    svc.start()
    try:
        CrashJam([svc]).submit(svc.submit, "jam", spec=None)  # parks the worker
        deadline = time.monotonic() + 10
        while len(svc.queue) and time.monotonic() < deadline:
            time.sleep(0.001)

        def sealed():
            return {
                i["data"]["request"]
                for i in journal.sealed_unapplied_intents("admit")
            }

        request = ServeRequest.build("t", build_alternatives({"n": 1}), spec={"n": 1})
        svc.admit(request)
        assert request.seq in sealed()
        (stolen,) = svc.steal_requests(1)
        svc.confirm_stolen(stolen)
        assert request.seq not in sealed()
        svc.admit(request)
        assert request.seq in sealed()
    finally:
        svc.crash()


def test_restore_bumps_seq_floor_past_journal():
    storage, seqs = _crashed_service_journal()
    journal = CommitJournal(storage=storage)
    svc, report = SpeculationService.restore(
        journal, WorldBudget(2), build_alternatives=build_alternatives,
        workers=1,
    )
    try:
        assert report.seq_floor > max(seqs)
        ticket = svc.submit("t", build_alternatives({"n": 9}), spec={"n": 9})
        assert ticket.seq >= report.seq_floor, "no journalled seq is reused"
        assert ticket.result(timeout=30).committed
    finally:
        svc.stop()


class _WinStallingStorage(MemoryJournalStorage):
    """Holds the append after the admit's — the block win's flush — until
    told to go; :meth:`load` while it waits is what a kill -9 leaves."""

    def __init__(self):
        super().__init__()
        self.appends = 0
        self.stalled = threading.Event()
        self.go = threading.Event()

    def append(self, blob):
        self.appends += 1
        if self.appends == 3:  # the magic, the admit, then the win
            self.stalled.set()
            self.go.wait(10)
        super().append(blob)


def test_a_crash_between_release_and_flush_leaves_what_a_crash_before_the_win_does():
    storage = _WinStallingStorage()
    svc = SpeculationService(
        WorldBudget(2), workers=1, journal_admission=True,
        journal=CommitJournal(storage=storage),
    ).start()
    try:
        ticket = svc.submit("t", build_alternatives({"n": 1}), spec={"n": 1})
        assert storage.stalled.wait(10)
        assert svc.budget.in_use == 0, "the slots are back before the win is durable"
        disk = storage.load()  # the process dies here
        assert not ticket.done, "nothing is acked before the win is durable"
    finally:
        storage.go.set()
        svc.crash()
    journal = CommitJournal(storage=MemoryJournalStorage(disk))
    # exactly a crash before record_block_win: the sealed admit, no block txn
    assert [(r["t"], r.get("kind")) for r in journal.records()] == [
        ("intent", "admit"), ("seal", None),
    ]
    restored, report = SpeculationService.restore(
        journal, WorldBudget(2), build_alternatives=build_alternatives, workers=1,
    )
    try:
        assert report.re_admitted == [ticket.seq]
        result = report.tickets[ticket.seq].result(timeout=30)
        assert result.committed and not result.replayed  # it re-ran
        assert result.value == 11
    finally:
        restored.stop()


def test_a_fresh_start_over_a_used_journal_runs_its_own_request(tmp_path, monkeypatch):
    """Not a restore: a plain new service over the journal file a
    previous process left, with that new process's seq counter."""
    path = str(tmp_path / "svc.wal")
    results = []
    for word in ("first", "second"):
        monkeypatch.setattr(admission, "_seq", admission._SeqCounter())
        with SpeculationService(2, workers=1, journal=path) as svc:
            results.append(svc.submit("t", [lambda ws, w=word: w]).result(30))
    assert [(r.value, r.replayed) for r in results] == [
        ("first", False), ("second", False),
    ]
    assert results[1].seq > results[0].seq


def test_restore_drops_specless_admits_as_unrecoverable():
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    txn = journal.begin("admit", request=7, tenant="t", spec=None)
    journal.seal(txn)

    svc, report = SpeculationService.restore(
        journal, WorldBudget(2), build_alternatives=build_alternatives,
        workers=1,
    )
    try:
        assert report.dropped == [7]
        assert report.tickets == {}
        # settled, not retried forever: the admit txn is applied
        assert journal.status(txn) == "applied"
        hit = journal.find_applied("admit", request=7)
        assert hit is not None and hit[1]["status"] == "unrecoverable"
    finally:
        svc.stop()


def test_restore_without_builder_drops_everything_sealed():
    storage, seqs = _crashed_service_journal(n_requests=2, jam=True)
    journal = CommitJournal(storage=storage)
    svc, report = SpeculationService.restore(journal, WorldBudget(2), workers=1)
    try:
        # the jam request (spec=None) is dropped too — only seqs matter
        assert set(seqs) <= set(report.dropped)
        assert report.re_admitted == []
    finally:
        svc.stop()
