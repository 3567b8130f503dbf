"""AdmissionQueue: backpressure, deadline shedding, round-robin fairness."""

import time

import pytest

from repro.errors import AdmissionRejected, ServeError
from repro.obs import Observability
from repro.serve import AdmissionQueue, ServeRequest
from repro.serve import admission


def req(tenant, **kw):
    return ServeRequest(tenant=tenant, alternatives=[lambda ws: 1], **kw)


def test_fifo_within_a_tenant():
    q = AdmissionQueue(depth=8)
    a1, a2 = req("a"), req("a")
    q.offer(a1)
    q.offer(a2)
    got1, _ = q.take(timeout=0.1)
    got2, _ = q.take(timeout=0.1)
    assert [got1.seq, got2.seq] == [a1.seq, a2.seq]


def test_global_depth_backpressure():
    q = AdmissionQueue(depth=2)
    q.offer(req("a"))
    q.offer(req("b"))
    with pytest.raises(AdmissionRejected) as exc:
        q.offer(req("c"))
    assert exc.value.retry_after_s > 0
    assert exc.value.tenant == "c"
    assert q.rejected == 1


def test_tenant_depth_backpressure(monkeypatch):
    monkeypatch.setattr(admission, "TENANT_DEPTH", 2)
    q = AdmissionQueue(depth=10)
    q.offer(req("a"))
    q.offer(req("a"))
    with pytest.raises(AdmissionRejected, match="backlog full"):
        q.offer(req("a"))
    q.offer(req("b"))  # other tenants unaffected


def test_take_times_out_empty():
    q = AdmissionQueue()
    request, shed = q.take(timeout=0.02)
    assert request is None and shed == []


def test_round_robin_across_tenants():
    q = AdmissionQueue(depth=16)
    for _ in range(3):
        q.offer(req("a"))
    q.offer(req("b"))
    order = [q.take(timeout=0.1)[0].tenant for _ in range(4)]
    # b does not wait behind a's whole backlog: one request per visit
    assert order == ["a", "b", "a", "a"]


def test_expired_requests_are_shed_at_dispatch():
    q = AdmissionQueue()
    dead = req("a", deadline_s=time.monotonic() - 0.01)
    live = req("a")
    q.offer(dead)
    q.offer(live)
    got, shed = q.take(timeout=0.1)
    assert got.seq == live.seq
    assert [s.seq for s in shed] == [dead.seq]
    assert q.shed == 1


def test_all_expired_returns_shed_without_request():
    q = AdmissionQueue()
    dead = req("a", deadline_s=time.monotonic() - 0.01)
    q.offer(dead)
    got, shed = q.take(timeout=0.1)
    assert got is None
    assert [s.seq for s in shed] == [dead.seq]
    assert len(q) == 0


def test_close_wakes_take_and_rejects_offers():
    q = AdmissionQueue()
    q.close()
    got, _ = q.take(timeout=5.0)
    assert got is None
    with pytest.raises(AdmissionRejected, match="closed"):
        q.offer(req("a"))


def test_drain_empties_everything():
    q = AdmissionQueue()
    q.offer(req("a"))
    q.offer(req("b"))
    q.close()
    drained = q.drain()
    assert len(drained) == 2
    assert len(q) == 0


def test_obs_counters():
    obs = Observability()
    q = AdmissionQueue(depth=1, obs=obs)
    q.offer(req("a"))
    with pytest.raises(AdmissionRejected):
        q.offer(req("a"))
    assert obs.registry.get("mw_serve_admitted_total").value(tenant="a") == 1.0
    assert obs.registry.get("mw_serve_rejected_total").value(tenant="a") == 1.0
    assert obs.registry.get("mw_serve_queue_depth").value() == 1.0


def test_bad_arguments():
    with pytest.raises(ServeError):
        AdmissionQueue(depth=0)
