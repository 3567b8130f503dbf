"""The ``admit`` record is a disk contract. A journal written by the
commit before ``ServeRequest`` became the one request record
(``golden_admit_pr21.wal``: one sealed, unapplied admit with every
durable field of its day set, ``cost`` and ``request_class`` among them)
still restores with every field the record keeps today intact, and so
does ``golden_admit_five_keys.wal``, the same submit as written before
requests lost ``priority``: an old record's ``priority`` key is ignored.
The same submit today writes ``golden_admit_four_keys.wal`` byte for
byte: ``request``, ``tenant``, ``timeout`` and ``spec``.

``golden_admit_stolen.wal`` was written by the last commit that had work
stealing: one admit, for seq 4343, settled ``stolen``. No writer of that
fate is left, and the fate table no longer lists it, yet such a line
still restores as a closed line that answers nothing.
"""

import pathlib
import threading

from repro.cluster import ClusterRouter
from repro.core.outcome import AlternativeResult
from repro.journal import (
    CommitJournal,
    MemoryJournalStorage,
    record_block_win,
    request_fate,
)
from repro.serve import SpeculationService, WorldBudget

HERE = pathlib.Path(__file__).parent
PARENT = (HERE / "golden_admit_pr21.wal").read_bytes()
FIVE_KEYS = (HERE / "golden_admit_five_keys.wal").read_bytes()
GOLDEN = (HERE / "golden_admit_four_keys.wal").read_bytes()
STOLEN = (HERE / "golden_admit_stolen.wal").read_bytes()
STOLEN_SEQ = 4343

SUBMIT = dict(
    timeout=1.25, seq=4242, spec={"n": 5, "who": "pr21"},
    initial={"x": 1}, deadline_s=60.0,
)


def _restore_one(data):
    """Restore a service over the journal bytes ``data``; returns the
    journal and the one re-admitted request with its result."""
    seen, resolved = [], threading.Event()

    def on_resolve(request, result):
        seen.append((request, result))
        resolved.set()

    journal = CommitJournal(storage=MemoryJournalStorage(data))
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
    return journal, *seen[0]


def test_parent_written_admit_restores_with_every_field():
    journal, request, result = _restore_one(PARENT)
    assert result.committed
    assert (
        request.seq, request.tenant, request.timeout, request.spec,
    ) == (4242, "golden", 1.25, {"n": 5, "who": "pr21"})
    # not journalled, by decision: the rebuild starts from the spec
    assert request.initial is None and request.deadline_s is None
    # the re-admission reused the golden admit instead of writing another
    assert len(journal.applied_intents("admit")) == 1
    assert journal.sealed_unapplied_intents("admit") == []


def test_a_five_key_admit_restores_and_its_priority_is_ignored():
    _, request, result = _restore_one(FIVE_KEYS)
    assert result.committed and result.value == 10
    assert request.seq == 4242 and not hasattr(request, "priority")


def test_the_same_submit_writes_the_golden_bytes():
    storage = MemoryJournalStorage()
    svc = SpeculationService(
        WorldBudget(2), workers=1, journal=CommitJournal(storage=storage),
        journal_admission=True,
    )
    svc._running = True  # no workers: the admit stays sealed, as in the golden
    svc.submit("golden", [lambda ws: 1], **SUBMIT)
    assert storage.load() == GOLDEN


def _restore_cluster(journals):
    """Cold-restart a cluster over ``journals``; returns the report and
    the specs of every request it rebuilt to run again."""
    rebuilt = []

    def build_alternatives(spec):
        rebuilt.append(spec)
        return [lambda ws: spec["n"] * 2]

    router, report = ClusterRouter.restore(
        journals, build_alternatives=build_alternatives,
        shard_kwargs=dict(slots=1, workers=1), detect=False,
    )
    router.stop()
    return report, rebuilt


def test_a_line_settled_stolen_beside_the_win_replays_and_is_not_re_admitted():
    # the shard the request was handed to sealed its own admit and won
    taker = CommitJournal()
    taker.seal(taker.begin(
        "admit", request=STOLEN_SEQ, tenant="golden", timeout=None,
        spec={"n": 3},
    ))
    record_block_win(taker, STOLEN_SEQ, 0, AlternativeResult(
        index=0, name="alt", value=6, succeeded=True,
    ))
    journals = {0: CommitJournal(storage=MemoryJournalStorage(STOLEN)), 1: taker}
    report, rebuilt = _restore_cluster(journals)
    assert report.replayed == [STOLEN_SEQ]
    replayed = report.results[STOLEN_SEQ]
    assert (replayed.value, replayed.shard_id) == (6, 1)
    assert report.re_admitted == [] and report.superseded == [] and rebuilt == []
    assert journals[0].find_applied("admit", request=STOLEN_SEQ)[1] == {
        "status": "stolen"
    }


def test_a_lone_line_settled_stolen_re_admits_nothing():
    journal = CommitJournal(storage=MemoryJournalStorage(STOLEN))
    report, rebuilt = _restore_cluster({0: journal})
    assert (report.replayed, report.re_admitted, report.superseded, report.dropped) == (
        [], [], [], []
    )
    assert rebuilt == []
    fate = request_fate({0: journal}, STOLEN_SEQ)
    assert (fate.won, fate.sealed, fate.settled) == (None, (), None)
