"""SpeculationService end-to-end: commits, budget, journal, preemption."""

import time

import pytest

from repro.errors import AdmissionRejected, ServiceStopped
from repro.journal import CommitJournal, MemoryJournalStorage
from repro.obs import Observability
from repro.serve import (
    AdmissionQueue,
    FixedSpeculationPolicy,
    SpeculationService,
    WorldBudget,
)
from repro.serve.policy import SpeculationDecision


def fast(ws):
    time.sleep(0.002)
    ws["who"] = "fast"
    return "fast"


def slow(ws):
    time.sleep(0.03)
    ws["who"] = "slow"
    return "slow"


def failing(ws):
    raise RuntimeError("nope")


def test_submit_commits_and_carries_outcome():
    with SpeculationService(WorldBudget(4), workers=2) as svc:
        result = svc.submit("t", [fast, slow]).result(timeout=10)
    assert result.committed
    assert result.value in ("fast", "slow")
    assert result.outcome.winner is not None
    assert result.latency_s > 0
    assert result.backend in ("thread", "sequential")


def test_all_failing_alternatives_report_failed():
    with SpeculationService(WorldBudget(2), workers=1, supervisor_retries=0) as svc:
        result = svc.submit("t", [failing]).result(timeout=10)
    assert result.status == "failed"
    assert result.outcome is not None
    assert result.outcome.winner is None


def test_submit_requires_running_service():
    svc = SpeculationService(WorldBudget(2))
    with pytest.raises(ServiceStopped):
        svc.submit("t", [fast])


def test_backpressure_surfaces_at_submit():
    # one slot, tiny queue, slow work: the backlog fills
    queue = AdmissionQueue(depth=2, tenant_depth=None)
    with SpeculationService(WorldBudget(1), queue=queue, workers=1) as svc:
        tickets = []
        rejected = 0
        for _ in range(12):
            try:
                tickets.append(svc.submit("t", [slow]))
            except AdmissionRejected as exc:
                rejected += 1
                assert exc.retry_after_s > 0
        assert rejected > 0
        for t in tickets:
            t.result(timeout=30)


def test_budget_high_watermark_never_exceeds_slots():
    budget = WorldBudget(3)
    with SpeculationService(budget, workers=4) as svc:
        tickets = [svc.submit(f"t{i % 4}", [fast, slow]) for i in range(16)]
        for t in tickets:
            assert t.result(timeout=30).status in ("committed", "failed")
    assert budget.high_watermark <= 3
    assert budget.in_use == 0


def test_deadline_expired_in_queue_is_shed():
    with SpeculationService(WorldBudget(1), workers=1) as svc:
        blocker = svc.submit("a", [slow])  # occupies the only slot
        doomed = svc.submit("b", [fast], deadline_s=0.001)
        result = doomed.result(timeout=10)
        blocker.result(timeout=10)
    assert result.status == "shed"
    assert "deadline" in result.reason


def test_stop_cancels_queued_requests():
    svc = SpeculationService(WorldBudget(1), workers=1).start()
    busy = svc.submit("a", [slow])
    queued = [svc.submit("b", [fast]) for _ in range(3)]
    svc.stop(timeout=5.0)
    statuses = {t.result(timeout=5).status for t in queued}
    assert statuses <= {"cancelled", "committed", "shed"}
    assert "cancelled" in statuses or all(t.done for t in queued)
    busy.result(timeout=5)


def test_exactly_once_commit_in_journal():
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    with SpeculationService(WorldBudget(4), workers=2, journal=journal) as svc:
        tickets = [svc.submit("t", [fast]) for _ in range(6)]
        seqs = [t.seq for t in tickets]
        for t in tickets:
            assert t.result(timeout=10).committed
    # one applied block transaction per request seq, none duplicated
    blocks = [
        r["data"]["block"] for r in journal.records()
        if r["t"] == "intent" and r["kind"] == "block"
    ]
    assert sorted(blocks) == sorted(seqs)
    for seq in seqs:
        assert journal.status(
            [r["seq"] for r in journal.records()
             if r["t"] == "intent" and r["kind"] == "block"
             and r["data"]["block"] == seq][0]
        ) == "applied"


def test_restarted_service_replays_journalled_wins():
    storage = MemoryJournalStorage()
    journal = CommitJournal(storage=storage)
    with SpeculationService(WorldBudget(2), workers=1, journal=journal) as svc:
        ticket = svc.submit("t", [fast])
        first = ticket.result(timeout=10)
        assert first.committed and not first.replayed
        seq = ticket.seq

    # a new incarnation over the surviving journal bytes
    journal2 = CommitJournal(storage=storage)
    svc2 = SpeculationService(WorldBudget(2), workers=1, journal=journal2).start()
    try:
        # force the same request seq through the queue: simulate the
        # service redelivering an already-committed request after crash
        from repro.core.backend import normalize_alternatives
        from repro.serve.admission import ServeRequest
        from repro.serve.service import ServeTicket

        ticket2 = ServeTicket("t", seq)
        request = ServeRequest(
            tenant="t", alternatives=normalize_alternatives([fast]),
            seq=seq, ticket=ticket2,
        )
        svc2.queue.offer(request)
        replayed = ticket2.result(timeout=10)
    finally:
        svc2.stop()
    assert replayed.committed
    assert replayed.replayed
    assert replayed.value == first.value


class TwoPhasePolicy:
    """Test double: K=2 with a long stagger on the spare, so preemption
    has a deterministic window to land in."""

    def __init__(self, stagger_s):
        self.stagger_s = stagger_s

    def decide(self, names, granted, load=0.0, request_class=None):
        k = min(2, len(names), max(granted, 1))
        return SpeculationDecision(
            order=list(range(k)), staggers=[i * self.stagger_s for i in range(k)],
        )

    def observe(self, outcome, names=None, launched=None):
        return None


def test_priority_preempts_speculative_world():
    def plodding(ws):
        time.sleep(0.4)
        return "plodding"

    budget = WorldBudget(2)
    policy = TwoPhasePolicy(stagger_s=0.25)
    with SpeculationService(budget, policy=policy, workers=2) as svc:
        low = svc.submit("low", [plodding, plodding], priority=0)
        time.sleep(0.05)  # low holds both slots; its spare is still staggered
        high = svc.submit("high", [fast], priority=5)
        high_result = high.result(timeout=10)
        low_result = low.result(timeout=10)
    assert high_result.committed  # got a slot despite a full pool
    assert low_result.committed  # its firm world still won
    assert low_result.preempted_slots == 1
    preempted_losers = [
        l for l in low_result.outcome.losers if "preempted" in (l.error or "")
    ]
    assert len(preempted_losers) == 1
    assert budget.high_watermark <= 2


def test_a_resolving_request_holds_none_of_its_slots():
    # slots go back at the decision; the admit settle, the ticket and
    # the hook run on nobody's slots, so a resolved ticket means the
    # request's slots are already free (one worker: nobody else holds any)
    budget = WorldBudget(3)
    held_at_resolve = []
    with SpeculationService(
        budget, workers=1, journal=CommitJournal(storage=MemoryJournalStorage()),
        journal_admission=True,
        on_resolve=lambda request, result: held_at_resolve.append(budget.in_use),
    ) as svc:
        tickets = [svc.submit("t", [fast, slow, slow]) for _ in range(3)]
        for ticket in tickets:
            assert ticket.result(timeout=10).k == 3
    assert held_at_resolve == [0, 0, 0]


def test_preemption_during_the_run_is_reported_after_the_early_release():
    def plodding(ws):
        time.sleep(0.4)
        return "plodding"

    budget = WorldBudget(2)
    seen = {}
    with SpeculationService(
        budget, policy=TwoPhasePolicy(stagger_s=0.25), workers=2,
        on_resolve=lambda request, result: seen.setdefault(
            request.tenant, (budget.in_use, result.preempted_slots)
        ),
    ) as svc:
        low = svc.submit("low", [plodding, plodding], priority=0)
        time.sleep(0.05)  # low holds both slots; its spare is still staggered
        svc.submit("high", [fast], priority=5).result(timeout=10)
        assert low.result(timeout=10).preempted_slots == 1
    # the count was read before the reservation was let go, not after
    assert seen["low"] == (0, 1)


def test_service_metrics_and_spans():
    obs = Observability()
    budget = WorldBudget(4, obs=obs)
    with SpeculationService(budget, workers=2, obs=obs) as svc:
        for _ in range(4):
            result = svc.submit("t", [fast, slow]).result(timeout=10)
            assert result.committed and 0 <= result.grant_wait_s < result.latency_s
    reg = obs.registry
    # where a saturated service's waiting shows, and what a commit costs
    # in slot time: grant -> release
    assert reg.get("mw_serve_grant_wait_seconds").count() == 4
    assert reg.get("mw_serve_slot_hold_seconds").count() == 4
    assert 0.002 * 4 <= reg.get("mw_serve_slot_hold_seconds").sum() < 4.0
    assert reg.get("mw_serve_requests_total").value(tenant="t", status="committed") == 4.0
    assert reg.get("mw_serve_request_latency_seconds").count() == 4
    assert reg.get("mw_serve_k_chosen").count() == 4
    assert reg.get("mw_serve_slots_hwm").value() <= 4.0
    obs.finalize()
    serve_spans = [s for s in obs.tracer.spans if s.cat == "serve"]
    assert len(serve_spans) == 4
    assert all(s.disposition == "committed" for s in serve_spans)


def test_naive_policy_holds_more_slots_than_adaptive():
    # the naive spawn-all-N arm grabs N slots per request; the adaptive
    # arm backs off as the pool load rises
    naive_budget = WorldBudget(4)
    with SpeculationService(
        naive_budget, policy=FixedSpeculationPolicy(), workers=4
    ) as svc:
        tickets = [svc.submit(f"t{i}", [fast, slow, slow, slow]) for i in range(8)]
        for t in tickets:
            t.result(timeout=30)
    assert naive_budget.high_watermark == 4  # pegged at the pool limit


def test_shutdown_sheds_backlog_with_retry_hint():
    # one worker busy on slow work; the backlog at stop(drain=False) is
    # shed as cancelled + retry_after_s — a router's cue to re-route —
    # under the distinct shutdown shed label
    obs = Observability()
    queue = AdmissionQueue(depth=16, tenant_depth=None, obs=obs)
    svc = SpeculationService(WorldBudget(1), queue=queue, workers=1, obs=obs)
    svc.start()
    blocker = svc.submit("a", [slow])
    backlog = [svc.submit("b", [fast]) for _ in range(4)]
    time.sleep(0.005)
    svc.stop(drain=False)
    assert blocker.result(timeout=10).status in ("committed", "cancelled")
    shed = [t.result(timeout=10) for t in backlog]
    cancelled = [r for r in shed if r.status == "cancelled"]
    assert cancelled, "stop(drain=False) must shed the backlog"
    for r in cancelled:
        assert r.reason == "service stopped"
        assert r.retry_after_s > 0
    reg = obs.registry
    assert reg.get("mw_serve_shed_total").value(reason="shutdown") == len(cancelled)


def test_graceful_stop_still_drains_by_default():
    svc = SpeculationService(WorldBudget(1), workers=1)
    svc.start()
    tickets = [svc.submit("t", [fast]) for _ in range(4)]
    svc.stop()
    assert all(t.result(timeout=10).committed for t in tickets)


def test_crash_suppresses_resolution_but_journals_survive():
    # the cluster failover primitive: a crashed service reports nothing,
    # but whatever committed before the crash is in the journal
    journal = CommitJournal(storage=MemoryJournalStorage())
    svc = SpeculationService(WorldBudget(2), workers=2, journal=journal)
    svc.start()
    tickets = [svc.submit("t", [fast]) for _ in range(3)]
    for t in tickets:
        t.result(timeout=10)  # fully served: journaled
    svc.crash()
    applied = [
        r for r in journal.records()
        if r.get("t") == "intent" and r.get("kind") == "block"
    ]
    assert len(applied) == 3
    # crash twice is fine; submit after crash is refused
    svc.crash()
    with pytest.raises(ServiceStopped):
        svc.submit("t", [fast])


def test_on_resolve_hook_sees_every_resolution():
    seen = []
    svc = SpeculationService(
        WorldBudget(2), workers=2, on_resolve=lambda req, res: seen.append(
            (req.seq, res.status)
        )
    )
    svc.start()
    tickets = [svc.submit("t", [fast]) for _ in range(3)]
    results = [t.result(timeout=10) for t in tickets]
    svc.stop()
    assert all(r.committed for r in results)
    assert sorted(s for s, _ in seen) == sorted(t.result().seq for t in tickets)
    assert all(status == "committed" for _, status in seen)
