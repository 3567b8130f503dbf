"""The admission queue, explored by a hypothesis ``RuleBasedStateMachine``
against a model of per-tenant FIFO lanes visited round-robin.

The rules are offer (live, already expired, or a shadow), a queued
request's deadline passing, take, close (with or without drain) and
drain. The model:

- ``offer`` refuses a closed queue, then a full one (``depth``), then a
  full lane (:data:`~repro.serve.admission.TENANT_DEPTH`); otherwise the
  request joins the tail of its tenant's lane, and a new lane joins the
  end of the visit order;
- ``take`` visits the first lane and moves it to the end; it sheds the
  lane's expired heads, hands out the next head if one is left, and
  drops the lane once it is empty; it goes on to the next lane only
  when the visited one had nothing left to hand out;
- ``close`` / ``drain`` hand back every queued request, lane by lane.

After every step the queue's length, its counters and both bounds match
the model, and every request left the queue at most once: taken, shed
or drained. At teardown every accepted request has left or
is still queued.

CI's fuzz smoke runs ``QUEUE_MACHINE_EXAMPLES=1000``.
"""

import os
import time
from collections import OrderedDict

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import AdmissionRejected
from repro.serve import AdmissionQueue, ServeRequest, admission

EXAMPLES = int(os.environ.get("QUEUE_MACHINE_EXAMPLES", "100"))
TENANTS = ("a", "b", "c")
#: a lane bound the machine reaches within its step budget
LANE_DEPTH = 3


@pytest.fixture(autouse=True)
def reachable_lane_bound(monkeypatch):
    monkeypatch.setattr(admission, "TENANT_DEPTH", LANE_DEPTH)


class QueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.q = None
        #: the model: tenant -> queued seqs, in visit order
        self.lanes: "OrderedDict[str, list[int]]" = OrderedDict()
        self.requests: dict[int, ServeRequest] = {}
        self.expired: set[int] = set()
        self.accepted: set[int] = set()
        #: seq -> how it left: taken, shed or drained
        self.left: dict[int, str] = {}
        self.closed = False
        self.rejected = 0
        self.shed = 0

    @initialize(depth=st.integers(1, 8))
    def build(self, depth):
        self.depth = depth
        self.q = AdmissionQueue(depth=depth)

    # -- the model ------------------------------------------------------------
    def _size(self):
        return sum(len(lane) for lane in self.lanes.values())

    def _leave(self, seqs, how):
        for seq in seqs:
            assert seq not in self.left, f"{seq} left twice: {self.left[seq]}, {how}"
            self.left[seq] = how

    def _next(self):
        """What the model's take hands out: ``(seq or None, shed seqs)``."""
        shed = []
        while self.lanes:
            tenant, lane = next(iter(self.lanes.items()))
            self.lanes.move_to_end(tenant)
            while lane and lane[0] in self.expired:
                shed.append(lane.pop(0))
            seq = lane.pop(0) if lane else None
            if not lane:
                del self.lanes[tenant]
            if seq is not None:
                return seq, shed
        return None, shed

    def _everything(self):
        out = [seq for lane in self.lanes.values() for seq in lane]
        self.lanes.clear()
        return out

    # -- rules ----------------------------------------------------------------
    @rule(
        tenant=st.sampled_from(TENANTS),
        kind=st.sampled_from(["live", "expired", "shadow"]),
    )
    def offer(self, tenant, kind):
        request = ServeRequest(
            tenant, [lambda ws: 1], shadow=kind == "shadow",
            deadline_s=time.monotonic() - 1 if kind == "expired" else None,
        )
        lane = self.lanes.get(tenant, [])
        refused = self.closed or self._size() >= self.depth or len(lane) >= LANE_DEPTH
        try:
            self.q.offer(request)
        except AdmissionRejected:
            assert refused
            if not self.closed:
                self.rejected += 1
            return
        assert not refused
        self.lanes[tenant] = lane + [request.seq]
        self.requests[request.seq] = request
        self.accepted.add(request.seq)
        if kind == "expired":
            self.expired.add(request.seq)

    @precondition(lambda self: any(self.lanes.values()))
    @rule(pick=st.integers(0, 99))
    def deadline_passes(self, pick):
        queued = [seq for lane in self.lanes.values() for seq in lane]
        seq = queued[pick % len(queued)]
        self.requests[seq].deadline_s = time.monotonic() - 1
        self.expired.add(seq)

    @rule()
    def take(self):
        want, want_shed = self._next()
        request, shed = self.q.take(timeout=0)
        assert (None if request is None else request.seq) == want
        assert [r.seq for r in shed] == want_shed
        self.shed += len(shed)
        self._leave(want_shed, "shed")
        if want is not None:
            self._leave([want], "taken")

    @rule(drain=st.booleans())
    def close(self, drain):
        self.closed = True
        want = self._everything() if drain else []
        assert [r.seq for r in self.q.close(drain=drain)] == want
        self._leave(want, "drained")

    @precondition(lambda self: self.closed)
    @rule()
    def drain(self):
        want = self._everything()
        assert [r.seq for r in self.q.drain()] == want
        self._leave(want, "drained")

    # -- invariants -------------------------------------------------------------
    @invariant()
    def size_counters_and_bounds_match_the_model(self):
        if self.q is None:
            return
        assert len(self.q) == self._size() <= self.depth
        assert all(len(lane) <= LANE_DEPTH for lane in self.lanes.values())
        assert self.q.admitted == len(self.accepted)
        assert (self.q.rejected, self.q.shed) == (self.rejected, self.shed)

    @invariant()
    def every_request_is_queued_or_left_once(self):
        queued = [seq for lane in self.lanes.values() for seq in lane]
        assert len(queued) == len(set(queued))
        assert set(queued).isdisjoint(self.left)
        assert set(queued) | set(self.left) == self.accepted

    def teardown(self):
        if self.q is None:
            return
        want = self._everything()
        assert [r.seq for r in self.q.close(drain=True)] == want
        self._leave(want, "drained")
        assert set(self.left) == self.accepted


QueueMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None
)
TestQueueMachine = QueueMachine.TestCase
