"""AdmissionQueue: backpressure, deadline shedding, DRR fairness."""

import math
import random
import threading
import time

import pytest

from repro.errors import AdmissionRejected, ServeError
from repro.obs import Observability
from repro.serve import AdmissionQueue, ServeRequest, SpeculationService
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
    # b must not wait behind a's whole backlog
    assert order.index("b") <= 1
    assert sorted(order) == ["a", "a", "a", "b"]


def test_drr_cost_weighting():
    # an expensive request waits for deficit to accrue; cheap tenants
    # keep flowing meanwhile
    q = AdmissionQueue(depth=16)
    q.offer(req("pricey", cost=3.0))
    q.offer(req("cheap", cost=1.0))
    q.offer(req("cheap", cost=1.0))
    served = [q.take(timeout=0.2)[0].tenant for _ in range(3)]
    assert served.count("cheap") == 2
    assert served.count("pricey") == 1
    # the expensive one was not dispatched first
    assert served[0] == "cheap"
    assert served == ["cheap", "cheap", "pricey"]


def test_expensive_head_does_not_deadlock(monkeypatch):
    monkeypatch.setattr(admission, "QUANTUM", 0.25)
    q = AdmissionQueue(depth=4)
    q.offer(req("a", cost=2.0))
    request, _ = q.take(timeout=1.0)
    assert request is not None and request.tenant == "a"


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


def _within(seconds, fn):
    """``fn()`` on a daemon thread: a wedged queue fails the test instead
    of hanging the run."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.mark.parametrize("cost", [math.inf, math.nan, 0.0, -1.0])
def test_a_cost_no_deficit_can_pay_is_rejected_at_submit(cost):
    # an infinite or nan head would be re-scanned forever under the
    # queue's lock, wedging every later submit from any tenant
    def scenario():
        with SpeculationService(2, workers=1) as svc:
            with pytest.raises(ServeError, match="cost"):
                svc.submit("a", [lambda ws: 1], cost=cost)
            return svc.submit("b", [lambda ws: 2]).result(timeout=2).value

    assert _within(5, scenario) == 2


def test_a_lone_costly_request_dispatches_at_once():
    q = AdmissionQueue()
    q.offer(req("a", cost=1e6))
    started = time.monotonic()
    got, _ = _within(5, lambda: q.take(timeout=5))
    assert got is not None
    assert time.monotonic() - started < 0.05


#: the dispatch order below, as the queue took it when each take scanned
#: one quantum at a time
SEEDED_ORDER = [
    3, 1, 0, 2, 7, 8, 10, 4, 16, 5, 18, 9, 26, 21, 32, 29, 33, 12, 39, 43,
    47, 41, 22, 46, 45, 23, 51, 34, 60, 61, 63, 65, 73, 66, 74, 36, 42, 68,
    70, 71, 54, 77, 55, 59, 64, 67, 78,
]


def test_mixed_costs_dispatch_in_the_order_of_one_quantum_per_scan():
    rng = random.Random(43)
    q = AdmissionQueue(depth=64)
    order = []
    for i in range(80):
        if rng.random() < 0.6:
            tenant = rng.choice("abcd")
            cost = rng.uniform(0.05, 12.0)
            q.offer(ServeRequest(tenant, [lambda ws: 1], cost=cost, spec=i))
        else:
            order.append(q.take(timeout=0)[0].spec)
    while len(q):
        order.append(q.take(timeout=0)[0].spec)
    assert order == SEEDED_ORDER
