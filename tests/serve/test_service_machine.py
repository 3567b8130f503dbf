"""One speculation service, its journal and ``restore()``, explored by a
hypothesis ``RuleBasedStateMachine`` against a dict model of the ledger.

The machine is single-threaded: the service starts no workers, and a
rule takes and serves a request itself (``SpeculationService._work``, a
worker's one step). The rules are submit, worker step, deadline shed,
a journal fault at the next append, crash, and restore. After every step:

- every acked request has a sealed admit (settled or not), or an
  applied win;
- no seq has two applied wins;
- nothing queued lacks a sealed, unsettled admit;
- the ledger, read back from the journal's records, matches the model.

CI's fuzz smoke runs ``SERVICE_MACHINE_EXAMPLES=1000``.
"""

import collections
import math
import os
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import AdmissionRejected, JournalCrash, ServiceStopped
from repro.faults.plan import (
    JOURNAL_SITE,
    RECOVERY_KEY,
    FaultDecision,
    FaultKind,
    FaultPlan,
)
from repro.journal import CommitJournal, MemoryJournalStorage, find_block_win
from repro.serve import AdmissionQueue, ServeRequest, SpeculationService, WorldBudget
from repro.serve import admission
from repro.serve.admission import raise_seq_floor

EXAMPLES = int(os.environ.get("SERVICE_MACHINE_EXAMPLES", "60"))
#: the queue bound of a fresh incarnation (a restored one adds room for
#: what it re-admits)
DEPTH = 3
TORN, BEFORE_SEAL, AFTER_SEAL = (
    FaultKind.TORN_RECORD, FaultKind.CRASH_BEFORE_SEAL, FaultKind.CRASH_AFTER_SEAL,
)


@pytest.fixture(autouse=True)
def one_tenant_bounded_only_by_depth(monkeypatch):
    """Every request is tenant "t", and a restored incarnation's depth
    grows with what it re-admits: only the model's depth may refuse."""
    monkeypatch.setattr(admission, "TENANT_DEPTH", math.inf)


def build_alternatives(spec):
    n = spec["n"]
    return [lambda ws: n * 11]


class ArmedPlan(FaultPlan):
    """Fires one chosen journal fault at the next txn, then nothing (a
    recovery pass's own decision is not a txn's)."""

    def __init__(self):
        super().__init__(seed=0)
        self.armed = None

    def decide(self, site, *key):
        if site == JOURNAL_SITE and key != (RECOVERY_KEY,) and self.armed is not None:
            kind, self.armed = self.armed, None
            return FaultDecision(kind)
        return FaultDecision()


class SteppedService(SpeculationService):
    """A service whose start() raises the seq floor and starts no worker."""

    def start(self):
        self._running = True
        raise_seq_floor([self.journal])
        return self


def incarnation(depth):
    return dict(
        budget=WorldBudget(3), queue=AdmissionQueue(depth=depth),
        workers=1, backend="sequential",
    )


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.plan = ArmedPlan()
        self.storage = MemoryJournalStorage()
        self.depth = DEPTH
        self.svc = SteppedService(
            journal=CommitJournal(storage=self.storage, fault_plan=self.plan),
            journal_admission=True, **incarnation(DEPTH),
        ).start()
        self.n = 0
        # the model: request seq -> its admit line (open / sealed /
        # aborted / the fate it settled with), applied wins, the queue
        self.admits: dict[int, str] = {}
        self.wins: set[int] = set()
        self.queue: list[int] = []
        self.expired: set[int] = set()
        self.acked: set[int] = set()
        self.tickets: dict = {}
        self.fault = None
        self.poisoned = False
        self.crashed = False

    def teardown(self):
        self.svc.crash()

    # -- the model's moves --------------------------------------------------
    def _take_fault(self):
        """The fault the next txn's begin consumes (a poisoned journal
        refuses before it decides)."""
        if self.poisoned:
            return None
        fault, self.fault = self.fault, None
        if fault is TORN:
            self.poisoned = True
        return fault

    def _end(self, seq, status):
        if not self.poisoned and self.admits.get(seq) == "sealed":
            self.admits[seq] = status
        assert self.tickets[seq].result(timeout=0).status == status

    # -- rules ---------------------------------------------------------------
    @rule()
    def submit(self):
        self.n += 1
        request = ServeRequest.build(
            "t", build_alternatives({"n": self.n}), spec={"n": self.n}
        )
        if self.crashed:
            with pytest.raises(ServiceStopped):
                self.svc.admit(request)  # refused before any journal write
            return
        seq, refused = request.seq, self.poisoned
        fault = self._take_fault()
        acked = not refused and fault is None and len(self.queue) < self.depth
        if fault in (BEFORE_SEAL, AFTER_SEAL):
            self.admits[seq] = "open" if fault is BEFORE_SEAL else "sealed"
        elif not refused and fault is None:
            self.admits[seq] = "sealed" if acked else "rejected"
        try:
            ticket = self.svc.admit(request)
        except (JournalCrash, AdmissionRejected) as exc:
            assert not acked, f"request {seq} refused: {exc!r}"
            return
        assert acked, f"request {seq} acked with fault {fault}"
        self.acked.add(seq)
        self.queue.append(seq)
        self.tickets[seq] = ticket

    def _step(self):
        request, shed = self.svc.queue.take(timeout=0)
        ended = []
        while self.queue and self.queue[0] in self.expired:
            ended.append(self.queue.pop(0))
        served = self.queue.pop(0) if self.queue else None
        assert [r.seq for r in shed] == ended
        assert (request and request.seq) == served
        self.svc._work(request, shed)
        for seq in ended:
            self._end(seq, "shed")
        if served is None:
            return
        if served in self.wins:
            self._end(served, "committed")  # replayed, never re-run
            return
        fault = self._take_fault()
        if self.poisoned or fault is not None:
            self._end(served, "failed")  # the win's journal write failed
        else:
            self.wins.add(served)
            self._end(served, "committed")

    @precondition(lambda self: not self.crashed and self.queue)
    @rule()
    def worker_step(self):
        self._step()

    @precondition(lambda self: not self.crashed and self.queue)
    @rule()
    def deadline_shed(self):
        (lane,) = self.svc.queue._lanes.values()
        head = lane[0]
        assert head.seq == self.queue[0]
        head.deadline_s = time.monotonic() - 1.0
        self.expired.add(head.seq)
        self._step()

    @precondition(lambda self: self.fault is None and not self.poisoned)
    @rule(kind=st.sampled_from([TORN, BEFORE_SEAL, AFTER_SEAL]))
    def journal_fault_at_the_next_append(self, kind):
        self.plan.armed = self.fault = kind

    @rule()
    def crash(self):
        self.svc.crash()  # idempotent
        self.crashed = True
        self.queue.clear()
        self.expired.clear()

    @precondition(lambda self: self.crashed)
    @rule()
    def restore(self):
        journal = CommitJournal(storage=self.storage, fault_plan=self.plan)
        sealed = len(journal.sealed_unapplied_intents("admit"))
        self.depth = DEPTH + sealed
        self.svc, report = SteppedService.restore(
            journal, build_alternatives=build_alternatives,
            **incarnation(self.depth),
        )
        self.crashed = self.poisoned = False
        for seq, line in self.admits.items():
            if line == "open":
                self.admits[seq] = "aborted"  # recovery rolls it back
        readmitted = [seq for seq, line in self.admits.items() if line == "sealed"]
        assert report.re_admitted == readmitted
        self.queue = list(readmitted)
        self.acked.update(readmitted)
        self.tickets.update(report.tickets)

    # -- checks after every step --------------------------------------------
    @invariant()
    def every_acked_request_has_a_sealed_admit_or_an_applied_win(self):
        journal = self.svc.journal
        for seq in self.acked:
            assert (
                journal.find_sealed("admit", request=seq) is not None
                or find_block_win(journal, seq) is not None
            ), f"acked request {seq} is durable nowhere"

    @invariant()
    def no_seq_has_two_applied_wins(self):
        wins = collections.Counter(
            i["data"]["block"] for i, _ in self.svc.journal.applied_intents("block")
        )
        assert all(n == 1 for n in wins.values()), wins

    @invariant()
    def nothing_queued_lacks_a_sealed_admit(self):
        journal = self.svc.journal
        for lane in self.svc.queue._lanes.values():
            for request in lane:
                admit = journal.find_sealed("admit", request=request.seq)
                assert admit is not None, f"request {request.seq} queued unsealed"
                assert journal.status(admit["seq"]) == "sealed", request.seq

    @invariant()
    def the_ledger_matches_the_model(self):
        lines, owner = {}, {}
        for record in self.svc.journal.records():
            if record["t"] == "intent" and record["kind"] == "admit":
                owner[record["seq"]] = record["data"]["request"]
                lines[owner[record["seq"]]] = "open"
            elif record.get("seq") in owner:
                lines[owner[record["seq"]]] = {
                    "seal": "sealed", "abort": "aborted",
                }.get(record["t"]) or record["data"].get("status")
        assert lines == self.admits
        assert {
            i["data"]["block"] for i, _ in self.svc.journal.applied_intents("block")
        } == self.wins


ServiceMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=30, deadline=None
)
TestServiceMachine = ServiceMachine.TestCase
