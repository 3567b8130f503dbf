"""The serve fault site: request bursts and slow tenants, deterministically."""

import time

import pytest

from repro.faults.plan import SERVE_SITE, FaultKind, FaultPlan
from repro.journal import CommitJournal
from repro.serve import SpeculationService, WorldBudget


def quick(ws):
    return "ok"


def test_serve_site_decisions_are_deterministic():
    a = FaultPlan(seed=7, rates={FaultKind.REQUEST_BURST: 0.5})
    b = FaultPlan(seed=7, rates={FaultKind.REQUEST_BURST: 0.5})
    decisions = [(a.decide(SERVE_SITE, 1, i), b.decide(SERVE_SITE, 1, i)) for i in range(50)]
    assert all(x == y for x, y in decisions)
    assert any(x.fires for x, _ in decisions)
    assert not all(x.fires for x, _ in decisions)


def test_serve_site_params():
    plan = FaultPlan(
        seed=0,
        rates={FaultKind.REQUEST_BURST: 1.0},
        burst_n=5, slow_tenant_s=0.123,
    )
    d = plan.decide(SERVE_SITE, 3, 4)
    assert d.kind is FaultKind.REQUEST_BURST
    assert d.param == 5.0
    slow_plan = FaultPlan(seed=0, rates={FaultKind.SLOW_TENANT: 1.0}, slow_tenant_s=0.123)
    d2 = slow_plan.decide(SERVE_SITE, 3, 4)
    assert d2.kind is FaultKind.SLOW_TENANT
    assert d2.param == pytest.approx(0.123)


def test_request_burst_floods_the_queue():
    plan = FaultPlan(seed=1, rates={FaultKind.REQUEST_BURST: 1.0}, burst_n=4)
    with SpeculationService(WorldBudget(2), workers=2, fault_plan=plan) as svc:
        ticket = svc.submit("storm", [quick])
        assert ticket.result(timeout=10).committed
        # the burst admitted 3 shadow copies alongside the real request
        deadline = time.monotonic() + 5.0
        while svc.queue.admitted < 4 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert svc.queue.admitted == 4
    burst_notes = [
        rec for rec in plan.injections if rec["kind"] == FaultKind.REQUEST_BURST.value
    ]
    assert len(burst_notes) == 1
    assert burst_notes[0]["tenant"] == "storm"


def test_shadow_requests_do_not_resolve_tickets():
    plan = FaultPlan(seed=1, rates={FaultKind.REQUEST_BURST: 1.0}, burst_n=3)
    with SpeculationService(WorldBudget(2), workers=2, fault_plan=plan) as svc:
        offered, offer = [], svc.queue.offer
        svc.queue.offer = lambda request: (
            offered.append((request.shadow, request.ticket)), offer(request)
        )
        ticket = svc.submit("storm", [quick])
        result = ticket.result(timeout=10)
        assert result.committed
        # only the real request has a ticket; shadows run and vanish
        assert offered == [(False, ticket), (True, None), (True, None)]


def test_a_burst_shadow_journals_no_block_win():
    """A shadow takes queue and budget capacity and nothing else: its seq
    is not one a router drew, so a durable win under it would be replayed
    as some later request's answer."""
    plan = FaultPlan(seed=1, rates={FaultKind.REQUEST_BURST: 1.0})
    journal = CommitJournal()
    with SpeculationService(
        WorldBudget(2), workers=2, fault_plan=plan, journal=journal,
        journal_admission=True,
    ) as svc:
        results = [
            svc.submit("storm", [quick], spec={}).result(timeout=10)
            for _ in range(3)
        ]
    # each submit and its two shadows; stop() drained the shadows too
    assert svc.queue.admitted == 9
    assert all(r.committed and not r.replayed for r in results)
    wins = [i["data"]["block"] for i, _ in journal.applied_intents("block")]
    assert sorted(wins) == sorted(r.seq for r in results)
    admits = [i["data"]["request"] for i, _ in journal.applied_intents("admit")]
    assert sorted(admits) == sorted(r.seq for r in results)


def test_slow_tenant_charges_extra_latency():
    plan = FaultPlan(seed=3, rates={FaultKind.SLOW_TENANT: 1.0}, slow_tenant_s=0.15)
    with SpeculationService(WorldBudget(2), workers=1, fault_plan=plan) as svc:
        result = svc.submit("laggard", [quick]).result(timeout=10)
    assert result.committed
    assert result.latency_s >= 0.15
    slow_notes = [
        rec for rec in plan.injections if rec["kind"] == FaultKind.SLOW_TENANT.value
    ]
    assert len(slow_notes) == 1


def test_at_most_one_serve_fault_per_request():
    # both kinds enabled: SITE_KINDS order tries REQUEST_BURST first,
    # and at most one fires per (tenant, seq) key
    plan = FaultPlan(
        seed=5,
        rates={FaultKind.REQUEST_BURST: 1.0, FaultKind.SLOW_TENANT: 1.0},
    )
    d = plan.decide(SERVE_SITE, 9, 9)
    assert d.kind is FaultKind.REQUEST_BURST


def test_quiet_plan_never_bursts():
    plan = FaultPlan.quiet()
    with SpeculationService(WorldBudget(2), workers=1, fault_plan=plan) as svc:
        svc.submit("t", [quick]).result(timeout=10)
        assert svc.queue.admitted == 1
    assert plan.injections == []
