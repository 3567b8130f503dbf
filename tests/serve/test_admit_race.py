"""Race hunt for the admit ledger line, which no lock guards.

A request's ``admit`` line has two writers, one after the other: the
admitting thread until ``queue.offer`` (it settles ``rejected`` when the
offer is refused), then the one worker that took the request. Here
admitting threads and the service's two workers all write one journal
at once, and after every round each request's line must have been
sealed once and settled once, with the fate its ticket carries.

CI's fuzz smoke runs ``ADMIT_RACE_ROUNDS=2000``.
"""

import collections
import os
import sys
import threading

from repro.errors import AdmissionRejected
from repro.journal import CommitJournal
from repro.serve import AdmissionQueue, ServeRequest, SpeculationService, WorldBudget

from tests.journal.test_group import CountingStorage, records_in

ROUNDS = int(os.environ.get("ADMIT_RACE_ROUNDS", "25"))
ADMITTERS, PER_ADMITTER = 3, 4


def answer(ws):
    return 42


def test_every_admit_line_is_sealed_once_and_settled_once_with_its_tickets_fate():
    storage = CountingStorage()
    svc = SpeculationService(
        WorldBudget(4), queue=AdmissionQueue(depth=4),
        workers=2, backend="sequential",
        journal=CommitJournal(storage=storage), journal_admission=True,
    ).start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_no in range(ROUNDS):
            storage.blobs = []
            fates = run_round(svc)
            lines = admit_lines(b"".join(storage.blobs))
            assert sorted(lines) == sorted(fates), f"round {round_no}"
            for seq, fate in fates.items():
                assert lines[seq] == [("seal", None), ("applied", fate)], (
                    f"round {round_no}: request {seq} ({fate}) wrote {lines[seq]}"
                )
    finally:
        sys.setswitchinterval(interval)
        svc.stop()


def run_round(svc):
    """Admit and serve one round of requests at once; returns each
    request seq's fate as its caller learned it."""
    fates, tickets = {}, {}
    admitting = threading.Barrier(ADMITTERS)

    def admit():
        admitting.wait(timeout=10)
        for _ in range(PER_ADMITTER):
            request = ServeRequest.build("t", [answer], spec={})
            try:
                tickets[request.seq] = svc.admit(request)
            except AdmissionRejected:
                fates[request.seq] = "rejected"

    threads = [threading.Thread(target=admit) for _ in range(ADMITTERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    for seq, ticket in tickets.items():
        fates[seq] = ticket.result(timeout=10).status
    return fates


def admit_lines(blob):
    """Request seq -> the records its admit txn got after the intent."""
    owner, lines = {}, collections.defaultdict(list)
    for record in records_in(blob):
        if record["t"] == "intent" and record["kind"] == "admit":
            owner[record["seq"]] = record["data"]["request"]
            lines[owner[record["seq"]]]  # a line with no later record shows up
        elif record.get("seq") in owner:
            lines[owner[record["seq"]]].append(
                (record["t"], record.get("data", {}).get("status"))
            )
    return lines
