"""The ``admit`` record is a disk contract: a journal written by the
commit before ``ServeRequest`` became the one request record
(``golden_admit_pr21.wal``: one sealed, unapplied admit with every
durable field set) restores with every field intact, and the same submit
writes the same bytes today.
"""

import pathlib
import threading

from repro.journal import CommitJournal, MemoryJournalStorage
from repro.serve import SpeculationService, WorldBudget

GOLDEN = (pathlib.Path(__file__).parent / "golden_admit_pr21.wal").read_bytes()

SUBMIT = dict(
    priority=3, cost=2.5, timeout=1.25, seq=4242,
    spec={"n": 5, "who": "pr21"}, request_class="io",
    initial={"x": 1}, deadline_s=60.0,
)


def test_parent_written_admit_restores_with_every_field():
    seen, resolved = [], threading.Event()

    def on_resolve(request, result):
        seen.append((request, result))
        resolved.set()

    journal = CommitJournal(storage=MemoryJournalStorage(GOLDEN))
    svc, report = SpeculationService.restore(
        journal, WorldBudget(2), workers=1, on_resolve=on_resolve,
        build_alternatives=lambda spec: [lambda ws: spec["n"] * 2],
    )
    try:
        assert report.re_admitted == [4242] and not report.dropped
        assert report.tickets[4242].result(timeout=10).value == 10
        assert resolved.wait(10)
    finally:
        svc.stop()
    request, result = seen[0]
    assert result.committed
    assert (
        request.seq, request.tenant, request.priority, request.cost,
        request.timeout, request.spec, request.request_class,
    ) == (4242, "golden", 3, 2.5, 1.25, {"n": 5, "who": "pr21"}, "io")
    # not journalled, by decision: the rebuild starts from the spec
    assert request.initial is None and request.deadline_s is None
    # the re-admission reused the golden admit instead of writing another
    assert len(journal.applied_intents("admit")) == 1
    assert journal.sealed_unapplied_intents("admit") == []


def test_the_same_submit_writes_the_parents_bytes():
    storage = MemoryJournalStorage()
    svc = SpeculationService(
        WorldBudget(2), workers=1, journal=CommitJournal(storage=storage),
        journal_admission=True,
    )
    svc._running = True  # no workers: the admit stays sealed, as in the golden
    svc.submit("golden", [lambda ws: 1], **SUBMIT)
    assert storage.load() == GOLDEN
