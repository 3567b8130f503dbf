"""Admission control: bounded queues, backpressure, fair dispatch.

The queue between ``submit()`` and the worker pool is where the service
refuses work it cannot serve well — the alternative is serving all of
it badly. Three mechanisms:

- **backpressure** — per-tenant and global depth bounds. A submit past
  either bound raises :class:`~repro.errors.AdmissionRejected` with a
  ``retry_after_s`` hint instead of growing an unbounded backlog;
- **deadline-aware shedding** — a request carries an optional absolute
  deadline. Dispatch discards requests whose deadline has already
  passed (running them would waste slots on an answer nobody is
  waiting for); the shed is reported through the request's ticket, so
  callers see ``shed`` rather than a silent timeout;
- **deficit round-robin** — dispatch cycles tenants, each accumulating
  ``quantum`` credit per visit and paying a request's ``cost`` to
  dequeue it. Tenants submitting many cheap requests and tenants
  submitting few expensive ones get the same long-run share, and a
  burst from one tenant cannot delay the others by more than one
  quantum per cycle (Shreedhar & Varghese's O(1) fairness, applied to
  speculation requests instead of packets).

The queue is thread-safe and wakeup-driven; :meth:`AdmissionQueue.take`
blocks workers until a request (or shutdown) is available.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.backend import normalize_alternatives
from repro.errors import AdmissionRejected, ServeError


class _SeqCounter:
    """The process-wide request seq source, bumpable past a journal.

    A process must never reuse a seq an earlier one journalled (seq is
    the journal block id — reuse would alias two requests onto one
    exactly-once ledger line), so every start over a journal bumps it
    through :func:`raise_seq_floor` before admitting anything.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._it = itertools.count(1)

    def next(self) -> int:
        with self._lock:
            return next(self._it)

    def ensure_at_least(self, floor: int) -> None:
        """Bump the counter so the next draw is ``>= floor``."""
        with self._lock:
            current = next(self._it)
            self._it = itertools.count(max(current, floor))


_seq = _SeqCounter()


def next_seq() -> int:
    """Draw the next service-unique request sequence number.

    One process-wide counter feeds every :class:`ServeRequest`, so seqs
    are unique *across* services too — which is what lets a cluster
    router pre-assign a request's seq (and hence its journal block id)
    before placing it on any particular shard.
    """
    return _seq.next()


def raise_seq_floor(journals) -> int:
    """Raise the counter past every request any of ``journals`` ever
    named and return that floor, the first seq :func:`next_seq` may now
    draw. Every start over a journal calls it, fresh or restored: a
    reused seq would replay another request's journalled win."""
    seqs = [0]
    for journal in journals:
        seqs += [i["data"]["request"] for i, _ in journal.applied_intents("admit")]
        seqs += [i["data"]["block"] for i, _ in journal.applied_intents("block")]
        seqs += [i["data"]["request"] for i in journal.sealed_unapplied_intents("admit")]
    floor = max(seqs) + 1
    _seq.ensure_at_least(floor)
    return floor


#: Every :class:`ServeRequest` field's life, declared once.
#: ``durable`` fields ride the journalled ``admit`` record
#: (:meth:`ServeRequest.admit_data`, in this order — the record's key
#: order); ``wire`` fields cross the MWRPC01 submit frame with the
#: pickled record but are not journalled; ``local`` fields mean
#: something only in the process holding the record. A field missing
#: here fails ``tests/serve/test_request_record.py``, and DESIGN's
#: "life of a request" table is rendered from it.
FIELD_LIFE = {
    "seq": "durable", "tenant": "durable", "priority": "durable",
    "cost": "durable", "timeout": "durable", "spec": "durable",
    "request_class": "durable",
    "alternatives": "wire", "initial": "wire", "deadline_s": "wire",
    "shadow": "wire",
    "submitted_at": "local", "ticket": "local",
}
_DURABLE = tuple(name for name, life in FIELD_LIFE.items() if life == "durable")


@dataclass
class ServeRequest:
    """One tenant's speculation request: the one record from
    ``submit`` to the journal.

    Built once — by :meth:`build`, behind
    :meth:`SpeculationService.submit <repro.serve.service.SpeculationService.submit>`
    or :meth:`ClusterRouter.submit <repro.cluster.router.ClusterRouter.submit>`
    — and passed as is from there on: through
    :meth:`SpeculationService.admit <repro.serve.service.SpeculationService.admit>`,
    pickled into the shard RPC's submit frame, and (its durable part)
    into the ``admit`` record. An identity-only request (a steal
    hand-back, a result push) is ``ServeRequest(tenant, (), seq=...)``.

    ``alternatives`` are whatever :func:`repro.core.worlds.run_alternatives`
    accepts. ``deadline_s`` is *absolute* (``time.monotonic`` scale,
    which is system-wide on Linux, so it means the same instant in a
    shard-host process); ``cost`` is the request's DRR weight (a request
    expected to hold many slots for a long time should pay more than a
    quick K=1 probe). ``seq`` is the service-unique id — also the
    journal ``block_id``, so exactly-once commit is per-request.
    """

    tenant: str
    alternatives: Sequence[Any]
    initial: dict | None = None
    priority: int = 0
    deadline_s: float | None = None
    timeout: float | None = None
    cost: float = 1.0
    seq: int = field(default_factory=next_seq)
    #: when the request reached the service now holding it (stamped by
    #: ``admit``, so queue wait and latency are that service's own).
    submitted_at: float = field(default_factory=time.monotonic)
    shadow: bool = False
    #: opaque caller payload; must be picklable when journalled admission
    #: is on (it rides the ``admit`` intent so a cold restart can
    #: re-admit the request).
    spec: Any = None
    #: tenant-declared workload class (e.g. ``"io"``, ``"cpu"``);
    #: consulted by class-aware speculation policies
    #: (:attr:`~repro.serve.policy.AdaptiveSpeculationPolicy.class_max_k`)
    #: to widen or tighten K per class. Empty string = unclassified.
    request_class: str = ""
    #: the caller's handle, when the caller is in this process: set by
    #: ``SpeculationService.submit``, None on router-built requests (so
    #: nothing unpicklable reaches the wire) and on stolen ones.
    ticket: Any = None

    @classmethod
    def build(
        cls,
        tenant: str,
        alternatives: Sequence[Any],
        deadline_s: float | None = None,
        seq: int | None = None,
        **fields: Any,
    ) -> "ServeRequest":
        """A validated request: alternatives normalised (raises
        :class:`~repro.errors.WorldsError` on a bad list), the *relative*
        ``deadline_s`` made absolute, a fresh seq unless one is given."""
        return cls(
            tenant, normalize_alternatives(alternatives),
            deadline_s=None if deadline_s is None else time.monotonic() + deadline_s,
            seq=next_seq() if seq is None else seq,
            **fields,
        )

    def admit_data(self) -> dict:
        """What the ``admit`` record keeps of this request.

        ``initial`` and the deadline are deliberately not journalled:
        ``build_alternatives(spec)`` is the rebuild contract, and a
        deadline on a dead process's clock means nothing after restart.
        """
        data = {name: getattr(self, name) for name in _DURABLE}
        return {"request": data.pop("seq"), **data}

    @classmethod
    def from_admit(cls, data: dict, alternatives: Sequence[Any]) -> "ServeRequest":
        """The request an ``admit`` record describes, over rebuilt
        ``alternatives`` (older records may lack later-added keys)."""
        kept = {name: data[name] for name in _DURABLE if name in data}
        return cls.build(
            kept.pop("tenant", "?"), alternatives, seq=data["request"], **kept
        )

    def expired(self, now: float | None = None) -> bool:
        if self.deadline_s is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline_s


class AdmissionQueue:
    """Bounded, deadline-aware, deficit-round-robin admission queue.

    Parameters
    ----------
    depth:
        Global bound on queued requests (backpressure past it).
    tenant_depth:
        Per-tenant bound; ``None`` disables the per-tenant check.
    quantum:
        DRR credit a tenant earns per dispatch cycle. With unit request
        costs, ``quantum=1.0`` dispatches one request per tenant per
        cycle.
    obs:
        Optional :class:`~repro.obs.Observability`; keeps
        ``mw_serve_queue_depth`` (gauge), ``mw_serve_admitted_total`` /
        ``mw_serve_rejected_total{tenant}`` and
        ``mw_serve_shed_total{reason}`` live.
    """

    def __init__(
        self,
        depth: int = 64,
        tenant_depth: int | None = 16,
        quantum: float = 1.0,
        obs=None,
    ) -> None:
        if depth < 1:
            raise ServeError(f"queue depth must be positive, got {depth}")
        if tenant_depth is not None and tenant_depth < 1:
            raise ServeError(f"tenant_depth must be positive, got {tenant_depth}")
        if quantum <= 0:
            raise ServeError(f"quantum must be positive, got {quantum}")
        self.depth = depth
        self.tenant_depth = tenant_depth
        self.quantum = quantum
        self._cond = threading.Condition()
        #: per-tenant FIFO lanes, in round-robin visit order
        self._lanes: "OrderedDict[str, deque[ServeRequest]]" = OrderedDict()
        self._deficit: dict[str, float] = {}
        self._size = 0
        self._closed = False
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self._depth_g = self._admit_c = self._reject_c = self._shed_c = None
        if obs is not None:
            self.bind_obs(obs)

    def bind_obs(self, obs) -> None:
        if self._depth_g is not None:
            return
        self._depth_g = obs.registry.gauge(
            "mw_serve_queue_depth", "Requests waiting for admission dispatch"
        )
        self._admit_c = obs.registry.counter(
            "mw_serve_admitted_total", "Requests admitted to the queue",
            labelnames=("tenant",),
        )
        self._reject_c = obs.registry.counter(
            "mw_serve_rejected_total", "Requests refused at submit (backpressure)",
            labelnames=("tenant",),
        )
        self._shed_c = obs.registry.counter(
            "mw_serve_shed_total", "Requests shed before execution",
            labelnames=("reason",),
        )

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return self._size

    # -- submit side -------------------------------------------------------
    def offer(self, request: ServeRequest) -> None:
        """Admit ``request`` or raise :class:`AdmissionRejected`."""
        with self._cond:
            if self._closed:
                raise AdmissionRejected(
                    "admission queue is closed", tenant=request.tenant
                )
            if self._size >= self.depth:
                self.rejected += 1
                if self._reject_c is not None:
                    self._reject_c.inc(tenant=request.tenant)
                raise AdmissionRejected(
                    f"queue full ({self._size}/{self.depth} requests)",
                    tenant=request.tenant,
                    retry_after_s=self._retry_hint(),
                )
            lane = self._lanes.get(request.tenant)
            if (
                self.tenant_depth is not None
                and lane is not None
                and len(lane) >= self.tenant_depth
            ):
                self.rejected += 1
                if self._reject_c is not None:
                    self._reject_c.inc(tenant=request.tenant)
                raise AdmissionRejected(
                    f"tenant {request.tenant!r} backlog full "
                    f"({len(lane)}/{self.tenant_depth} requests)",
                    tenant=request.tenant,
                    retry_after_s=self._retry_hint(),
                )
            if lane is None:
                lane = deque()
                self._lanes[request.tenant] = lane
                self._deficit.setdefault(request.tenant, 0.0)
            lane.append(request)
            self._size += 1
            self.admitted += 1
            if self._admit_c is not None:
                self._admit_c.inc(tenant=request.tenant)
            if self._depth_g is not None:
                self._depth_g.set(float(self._size))
            self._cond.notify()

    def _retry_hint(self) -> float:
        # crude but honest: a full queue drains one quantum per tenant
        # per cycle; hint one cycle's worth of waiting per queued request
        # ahead, floored so clients do not spin.
        return max(0.005, 0.001 * self._size)

    # -- dispatch side -----------------------------------------------------
    def take(self, timeout: float | None = None) -> tuple[ServeRequest | None, list[ServeRequest]]:
        """Dequeue the next request by deficit round-robin.

        Returns ``(request, shed)`` where ``shed`` lists requests whose
        deadline expired while queued (already counted and removed —
        the caller fails their tickets). ``request`` is ``None`` on
        timeout or when the queue is closed and drained.
        """
        shed: list[ServeRequest] = []
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                request = self._pop_drr(shed)
                if request is not None or self._closed:
                    if self._depth_g is not None:
                        self._depth_g.set(float(self._size))
                    return request, shed
                if self._size > 0 and not shed:
                    # every head costs more than one quantum: keep
                    # scanning — deficits grow each pass, so this
                    # terminates within max(cost)/quantum cycles
                    continue
                if shed:
                    # deadline sheds are progress: report them before
                    # blocking so tickets fail promptly
                    if self._depth_g is not None:
                        self._depth_g.set(float(self._size))
                    return None, shed
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        return None, shed

    def _pop_drr(self, shed: list[ServeRequest]) -> ServeRequest | None:
        """One DRR scan: drop expired heads, pay costs from deficits."""
        if self._size == 0:
            return None
        now = time.monotonic()
        # visit each lane at most once per scan
        for _ in range(len(self._lanes)):
            tenant, lane = next(iter(self._lanes.items()))
            self._lanes.move_to_end(tenant)
            # shed expired requests regardless of deficit — they cost
            # nothing to discard and paying for them would be unfair
            while lane and lane[0].expired(now):
                request = lane.popleft()
                self._size -= 1
                self.shed += 1
                if self._shed_c is not None:
                    self._shed_c.inc(reason="deadline")
                shed.append(request)
            if not lane:
                del self._lanes[tenant]
                self._deficit.pop(tenant, None)
                continue
            self._deficit[tenant] = self._deficit.get(tenant, 0.0) + self.quantum
            if self._deficit[tenant] >= lane[0].cost:
                request = lane.popleft()
                self._deficit[tenant] -= request.cost
                self._size -= 1
                if not lane:
                    del self._lanes[tenant]
                    self._deficit.pop(tenant, None)
                return request
        return None

    def steal(self, max_n: int) -> list[ServeRequest]:
        """Remove up to ``max_n`` queued requests for another dispatcher.

        The cluster router's work-stealing hook: an idle shard relieves
        a backlogged one. Requests are taken from the *tail* of the
        longest lanes (newest first), so the owning shard keeps FIFO
        order for the work it retains, and the victims are the requests
        that would have waited longest anyway. Shadow (fault-injected
        burst) requests are never stolen — a retry storm should keep
        hammering the shard it hit.
        """
        out: list[ServeRequest] = []
        with self._cond:
            while len(out) < max_n and self._size > 0:
                request = None
                for tenant in sorted(
                    self._lanes, key=lambda t: len(self._lanes[t]), reverse=True
                ):
                    lane = self._lanes[tenant]
                    for i in range(len(lane) - 1, -1, -1):
                        if not lane[i].shadow:
                            request = lane[i]
                            del lane[i]
                            break
                    if request is None:
                        continue
                    self._size -= 1
                    if not lane:
                        del self._lanes[tenant]
                        self._deficit.pop(tenant, None)
                    break
                if request is None:
                    break  # nothing stealable (only shadows queued)
                out.append(request)
            if self._depth_g is not None:
                self._depth_g.set(float(self._size))
        return out

    def shed_request(self, request: ServeRequest, reason: str) -> None:
        """Count a shed decided outside the queue (e.g. at dispatch)."""
        with self._cond:
            self.shed += 1
            if self._shed_c is not None:
                self._shed_c.inc(reason=reason)

    def close(self, drain: bool = False) -> list[ServeRequest]:
        """Stop accepting work and wake every blocked ``take``.

        With ``drain``, what is still queued is removed and returned in
        the same critical section: a closed queue keeps handing out what
        it holds, so emptying it any later lets a taker run some of it.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            return self.drain() if drain else []

    def drain(self) -> list[ServeRequest]:
        """Remove and return everything still queued (post-close cleanup)."""
        with self._cond:
            out: list[ServeRequest] = []
            for lane in self._lanes.values():
                out.extend(lane)
            self._lanes.clear()
            self._deficit.clear()
            self._size = 0
            if self._depth_g is not None:
                self._depth_g.set(0.0)
            return out
