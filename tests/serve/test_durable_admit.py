"""Durable before visible: an admit is sealed before any worker can take
its request, and every fate a request ends in is declared once
(``repro.journal.FATES``) and settled through one function."""

import threading
import time

import pytest

from repro.cluster import ClusterRouter, ClusterShard
from repro.errors import JournalCrash, JournalError
from repro.faults.plan import FaultKind, FaultPlan
from repro.journal import (
    CommitJournal,
    MemoryJournalStorage,
    find_block_win,
    request_fate,
)
from repro.serve import SpeculationService, WorldBudget
from repro.serve.admission import next_seq

from tests.jam import CrashJam
from tests.journal.test_group import records_in


def seven(ws):
    return 7


def wait_until_taken(svc):
    """Until the jam reaches ``svc``'s only worker: its queue is empty."""
    deadline = time.monotonic() + 10
    while len(svc.queue) and time.monotonic() < deadline:
        time.sleep(0.001)
    assert not len(svc.queue)


class HeldAdmitStorage(MemoryJournalStorage):
    """Holds the append carrying an ``admit`` intent until :attr:`release`
    is set; signals when it is held and when a ``block`` record lands."""

    def __init__(self):
        super().__init__()
        self.admit_held = threading.Event()
        self.release = threading.Event()
        self.block_written = threading.Event()

    def append(self, blob):
        if b"admit" in blob:
            self.admit_held.set()
            assert self.release.wait(10)
        super().append(blob)
        if b"block" in blob:
            self.block_written.set()


def test_the_admit_record_comes_before_any_block_record_of_its_request():
    storage = HeldAdmitStorage()
    journal = CommitJournal(storage=storage)
    svc = SpeculationService(
        WorldBudget(1), workers=1, journal=journal, journal_admission=True
    ).start()
    tickets = []
    try:
        submitter = threading.Thread(
            target=lambda: tickets.append(svc.submit("t", [seven], spec={}))
        )
        submitter.start()
        assert storage.admit_held.wait(10)
        # a worker can take the request only if it was offered: if so,
        # let it journal its win before the held admit lands
        if svc.queue.admitted:
            assert storage.block_written.wait(10)
        storage.release.set()
        submitter.join(10)
        assert tickets[0].result(timeout=10).committed
    finally:
        storage.release.set()
        svc.stop()
    order = [r["kind"] for r in journal.records() if r["t"] == "intent"]
    assert order == ["admit", "block"]
    assert journal.sealed_unapplied_intents("admit") == []


def test_a_journal_crash_at_the_admit_seal_leaves_nothing_queued():
    journal = CommitJournal()
    svc = SpeculationService(
        WorldBudget(1), workers=1, journal=journal, journal_admission=True
    ).start()
    jam = CrashJam([svc])
    try:
        jam.submit(svc.submit, "jam", spec=None)  # parks the only worker
        wait_until_taken(svc)
        journal.fault_plan = FaultPlan(
            seed=1, rates={FaultKind.CRASH_BEFORE_SEAL: 1.0}
        )
        before = next_seq()
        with pytest.raises(JournalCrash):
            svc.submit("t", [seven], spec={})
        seq = before + 1
        assert len(svc.queue) == 0
    finally:
        svc.crash()
    blocks = [
        r["data"]["block"] for r in journal.records()
        if r["t"] == "intent" and r["kind"] == "block"
    ]
    assert seq not in blocks
    assert journal.find_sealed("admit", request=seq) is None


def test_a_crash_between_the_admit_seal_and_the_offer_leaves_what_restore_runs():
    """The process dies with the admit sealed and the request not yet
    offered (``crash-after-seal`` at the admit txn): nothing ran and no
    ticket was returned, and restore re-admits the request once."""
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    svc = SpeculationService(
        WorldBudget(1), workers=1, journal=journal, journal_admission=True
    ).start()
    try:
        journal.fault_plan = FaultPlan(seed=1, rates={FaultKind.CRASH_AFTER_SEAL: 1.0})
        before = next_seq()
        with pytest.raises(JournalCrash):
            svc.submit("t", [seven], spec={})
        assert svc.queue.admitted == 0
    finally:
        svc.crash()
    seq = before + 1
    restored, report = SpeculationService.restore(
        CommitJournal(storage=storage), WorldBudget(1),
        build_alternatives=lambda spec: [seven], workers=1,
    )
    try:
        assert report.re_admitted == [seq]
        assert report.tickets[seq].result(timeout=10).value == 7
    finally:
        restored.stop()


def test_a_settle_to_a_fate_the_table_does_not_list_raises():
    from repro.journal import FATES, settle

    journal = CommitJournal()
    svc = SpeculationService(
        WorldBudget(1), workers=1, journal=journal, journal_admission=True
    ).start()
    try:
        CrashJam([svc]).submit(svc.submit, "jam", spec=None)
        ticket = svc.submit("t", [seven], spec={})
        (admit,) = [
            i for i in journal.sealed_unapplied_intents("admit")
            if i["data"]["request"] == ticket.seq
        ]
        with pytest.raises(JournalError, match="not a request fate"):
            settle(journal, admit["seq"], "lost")
        assert journal.status(admit["seq"]) == "sealed"
        settle(journal, admit["seq"], "shed")
        settle(journal, admit["seq"], "committed")  # a settled line stays put
        assert journal.find_applied("admit", request=ticket.seq)[1] == {"status": "shed"}
    finally:
        svc.crash()
    assert sorted(FATES) == sorted([
        "committed", "failed", "shed", "cancelled", "rejected",
        "superseded", "recovered", "recovered-remote", "unrecoverable",
    ])


def test_a_refusal_on_one_shard_is_not_the_answer_of_a_request_another_took():
    shards = [
        ClusterShard(sid, slots=1, workers=1, queue_depth=1, journal_admission=True)
        for sid in range(2)
    ]
    jam = CrashJam([shards[0].service])
    router = ClusterRouter(shards, spill=False).start(detect=False)
    try:
        tenant = next(t for t in (f"t{k}" for k in range(100)) if router.ring.route(t) == 0)
        jam.submit(router.submit, tenant, spec=None)  # parks shard 0's only worker
        wait_until_taken(shards[0].service)
        router.submit(tenant, [seven], spec={})  # fills shard 0's queue
        ticket = router.submit(tenant, [seven], spec={})  # refused there
        result = ticket.result(timeout=10)
        assert result.committed and result.shard_id == 1
    finally:
        shards[0].crash()
        router.stop()
    refused = shards[0].journal.find_applied("admit", request=ticket.seq)
    assert refused is not None and refused[1] == {"status": "rejected"}
    # the refusing shard's journal read last: its line must not be the answer
    fate = request_fate({1: shards[1].journal, 0: shards[0].journal}, ticket.seq)
    assert fate.won is not None and fate.won[0] == 1
    assert fate.settled == "committed"


def test_a_request_burst_draws_one_durable_seq():
    """Shadows are load only: a burst of n copies advances ``next_seq()``
    by the one request that can be acked."""
    plan = FaultPlan(seed=1, rates={FaultKind.REQUEST_BURST: 1.0}, burst_n=4)
    with SpeculationService(WorldBudget(2), workers=2, fault_plan=plan) as svc:
        before = next_seq()
        ticket = svc.submit("storm", [seven])
        after = next_seq()
        assert ticket.result(timeout=10).committed
    assert plan.injections and ticket.seq == before + 1
    assert after == before + 2


class TearingStorage(MemoryJournalStorage):
    """Tears the first append that carries a ``block`` record (half its
    bytes land), and is dead from then on: the process died mid-write."""

    def __init__(self):
        super().__init__()
        self.torn = None

    def append(self, blob):
        if self.torn is not None:
            raise JournalCrash("the process is dead")
        if b"block" in blob:
            self.torn = blob
            super().append(blob[: len(blob) // 2])
            raise JournalCrash("torn append")
        super().append(blob)


def test_a_torn_win_and_settle_append_leaves_the_admit_sealed_for_restore():
    """The block win and the admit's settle are one append: torn, it
    leaves the admit sealed with no win, and restore re-admits it once."""
    storage = TearingStorage()
    svc = SpeculationService(
        WorldBudget(1), workers=1, journal=CommitJournal(storage=storage),
        journal_admission=True,
    ).start()
    try:
        ticket = svc.submit("t", [seven], spec={})
        ticket.result(timeout=10)
    finally:
        svc.crash()
    assert [(r["t"], r.get("kind")) for r in records_in(storage.torn)] == [
        ("intent", "block"), ("seal", None), ("applied", None), ("applied", None),
    ]
    journal = CommitJournal(storage=MemoryJournalStorage(storage.load()))
    assert journal.quarantines and find_block_win(journal, ticket.seq) is None
    (admit,) = journal.sealed_unapplied_intents("admit")
    assert admit["data"]["request"] == ticket.seq
    restored, report = SpeculationService.restore(
        journal, WorldBudget(1), build_alternatives=lambda spec: [seven], workers=1,
    )
    try:
        assert report.re_admitted == [ticket.seq]
        assert report.tickets[ticket.seq].result(timeout=10).value == 7
    finally:
        restored.stop()
    assert [i["data"]["block"] for i, _ in journal.applied_intents("block")] == [
        ticket.seq
    ]
    assert journal.find_applied("admit", request=ticket.seq)[1] == {
        "status": "committed"
    }
