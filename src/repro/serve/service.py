"""The multi-tenant speculation service.

:class:`SpeculationService` is the traffic-facing layer the rest of the
library has been building toward: callers :meth:`~SpeculationService.submit`
alternative blocks and get a :class:`ServeTicket` back; a worker pool
drives the blocks through the existing machinery, with every layer of
the stack doing its job:

- the :class:`~repro.serve.admission.AdmissionQueue` bounds the backlog
  (backpressure), sheds expired requests, and round-robins tenants;
- the :class:`~repro.serve.budget.WorldBudget` caps concurrent worlds
  machine-wide and per tenant, preempting speculative worlds when a
  higher-priority request needs its first slot;
- the speculation policy (adaptive by default) picks K ≤ N
  alternatives, a stagger schedule, and possibly a degraded backend;
- a per-request :class:`~repro.faults.supervisor.Supervisor` runs the
  block with retry spares and the fork→thread→sequential fallback
  chain, so a worker surviving its request is the common case even
  under fault injection;
- with a :class:`~repro.journal.CommitJournal`, each request's win is a
  durable ``block`` transaction keyed by the request ``seq`` — a
  service restarted over the same journal *replays* already-applied
  requests instead of re-running them (exactly-once per request);
- with an :class:`~repro.obs.Observability`, every request is a span
  (``cat="serve"``, one track per tenant) and the ``mw_serve_*``
  family tracks slots, queue depth, sheds, latency and K choices.

Fault injection (``serve`` site, keyed ``(crc32(tenant), seq)``):
``REQUEST_BURST`` turns one submit into ``burst_n`` copies — a client
retry storm pressing on admission bounds; ``SLOW_TENANT`` charges the
request ``slow_tenant_s`` extra worker seconds — a pathological tenant
hogging its share.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
import zlib
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.outcome import BlockOutcome
from repro.errors import (
    AdmissionRejected,
    ServeError,
    ServiceStopped,
    WorldsError,
)
from repro.faults.plan import SERVE_SITE, FaultKind
from repro.faults.supervisor import Supervisor
from repro.journal.recovery import RecoveryReport, recover, settle_best_effort
from repro.serve.admission import (
    AdmissionQueue,
    ServeRequest,
    next_seq,
    raise_seq_floor,
)
from repro.serve.budget import WorldBudget
from repro.serve.policy import AdaptiveSpeculationPolicy, SpeculationDecision
from repro.serve.stats import AlternativeStats

#: Latency buckets suited to request serving (5 ms .. 10 s).
LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: The per-request :class:`Supervisor`'s pause before retry wave *n*
#: (``SUPERVISOR_BACKOFF_S * n``).
SUPERVISOR_BACKOFF_S = 0.005


@dataclass(slots=True)
class ServeResult:
    """What became of one submitted request.

    ``status`` is one of ``committed`` (a winner was accepted),
    ``failed`` (the block ran but no alternative won), ``shed`` (the
    service discarded the request before/instead of running it) or
    ``cancelled`` (service shutdown). ``outcome`` is the underlying
    :class:`~repro.core.outcome.BlockOutcome` when the block ran.
    """

    status: str
    tenant: str
    seq: int
    outcome: BlockOutcome | None = None
    reason: str = ""
    k: int = 0
    policy_reason: str = ""
    backend: str = ""
    queue_wait_s: float = 0.0
    grant_wait_s: float = 0.0  #: dispatch-to-grant: the wait on the budget
    latency_s: float = 0.0
    preempted_slots: int = 0
    replayed: bool = False
    #: Backpressure hint on ``cancelled``/``shed`` results: when > 0,
    #: the request was refused for a transient reason (e.g. service
    #: shutdown) and a router may re-route or retry after this many
    #: seconds instead of failing the caller.
    retry_after_s: float = 0.0

    @property
    def committed(self) -> bool:
        return self.status == "committed"

    @property
    def value(self) -> Any:
        return self.outcome.value if self.outcome is not None else None


@dataclass
class RestartReport:
    """What :meth:`SpeculationService.restore` rebuilt from disk."""

    recovery: RecoveryReport
    #: request seqs whose effects were already applied before the crash
    #: (their committed values are replayable via the journal).
    already_applied: list[int] = field(default_factory=list)
    #: sealed-but-unapplied requests re-admitted under their original seq.
    re_admitted: list[int] = field(default_factory=list)
    #: sealed requests that could not be rebuilt (no ``spec`` /
    #: no builder); their admit txns are settled ``unrecoverable``.
    dropped: list[int] = field(default_factory=list)
    #: the restored incarnation's first safe request seq.
    seq_floor: int = 1
    #: tickets for the re-admitted requests, by request seq.
    tickets: dict[int, "ServeTicket"] = field(default_factory=dict)


class ServeTicket:
    """A caller's handle on a submitted request (a small future)."""

    #: what :meth:`result` raises when the wait times out
    _timeout_error = ServeError

    def __init__(self, tenant: str, seq: int) -> None:
        self.tenant = tenant
        self.seq = seq
        self._done = threading.Event()
        self._result: Any = None
        self._callbacks: deque = deque()

    def _resolve(self, result: Any) -> None:
        self._result = result
        self._done.set()
        self._run_callbacks()

    def add_done_callback(self, fn) -> None:
        """Call ``fn(result)`` once, when the ticket resolves: on the
        resolving thread (a worker, or a shard client's reader — so it
        must not block), or here at once if it already has. A raising
        ``fn`` stops neither the other callbacks nor that thread."""
        self._callbacks.append(fn)
        if self._done.is_set():
            self._run_callbacks()

    def _run_callbacks(self) -> None:
        # no lock: whoever drains — the resolver or a late adder — pops
        # each callback atomically, so every one runs exactly once
        while True:
            try:
                fn = self._callbacks.popleft()
            except IndexError:
                return
            try:
                fn(self._result)
            except Exception:  # noqa: BLE001 - a callback never kills its thread
                pass

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> Any:
        """Block until the request is resolved; returns its result (a
        :class:`ServeResult` from a service)."""
        if not self._done.wait(timeout):
            raise self._timeout_error(
                f"request {self.seq} (tenant {self.tenant!r}) not done "
                f"within {timeout}s"
            )
        assert self._result is not None
        return self._result


def note_restore(obs, layer: str, cat: str, track: str, **counts: int) -> None:
    """Count one completed cold restart and mark it on the timeline."""
    if obs is not None:
        obs.registry.counter(
            "mw_restores_total", "Cold restarts completed from a journal",
            labelnames=("layer",),
        ).inc(layer=layer)
        obs.tracer.instant(f"{layer}.restore", cat=cat, track=track, **counts)


def rebuilt_requests(sealed, build_alternatives, dropped: list[int]):
    """Both restores' loop: each ``(journal, intent)`` sealed admit in
    ``sealed`` comes back as ``(journal, intent, request)`` — the request
    rebuilt under its original seq over ``build_alternatives(spec)`` —
    unless it has no ``spec`` (or there is no builder): that one is settled
    ``unrecoverable`` and listed in ``dropped``, not retried forever."""
    for journal, intent in sealed:
        data = intent["data"]
        spec = data.get("spec")
        if build_alternatives is None or spec is None:
            settle_best_effort(journal, intent["seq"], "unrecoverable")
            dropped.append(data["request"])
            continue
        yield journal, intent, ServeRequest.from_admit(
            data, build_alternatives(spec)
        )


class SpeculationService:
    """Serve speculative alternative blocks to many tenants at once.

    Parameters
    ----------
    budget:
        A :class:`WorldBudget`, or an int (total slots) to build one.
    queue:
        An :class:`AdmissionQueue`; defaults to one with bounds scaled
        to the budget (depth ``16×slots``).
    policy:
        Any object with ``decide(names, granted, load=0.0,
        request_class=None)`` and ``observe(outcome, names,
        launched=None)``; defaults to an
        :class:`AdaptiveSpeculationPolicy` over fresh stats.
    workers:
        Dispatch threads. Each drives one request at a time; the worlds
        within a request are the backend's business, not the worker's.
    backend:
        Default backend for admitted blocks (the policy may override,
        and the per-request supervisor may degrade it further).
    grant_timeout_s:
        How long a deadline-less request may wait for budget slots
        before it is shed for capacity (deadlined requests wait until
        their deadline instead).
    supervisor_retries:
        Extra retry waves the per-request :class:`Supervisor` may run.
    fault_plan / journal / obs:
        The robustness planes, threaded through every layer. ``journal``
        also accepts a plain filesystem path (a ``str``), opened as a
        :class:`~repro.journal.FileJournalStorage`-backed journal — the
        form a shard-host child process is configured with.
    journal_admission:
        When True (and a journal is present), every non-shadow submit is
        journalled as a sealed ``admit`` transaction carrying the
        request's ``spec``, and its resolution marks the txn applied
        with the final status. This is what makes a request *durable
        once acked*: a full-process crash leaves the sealed admit on
        disk, and :meth:`restore` re-admits it under its original seq
        (the supervisor then replays any already-applied block win
        instead of re-running). Off by default — a purely in-memory
        service has no restart story to pay for.
    on_resolve:
        ``on_resolve(request, result)``, subscribed to each ticket
        :meth:`admit` returns: it runs on the resolving thread, so it
        must not block.
    """

    def __init__(
        self,
        budget: WorldBudget | int,
        queue: AdmissionQueue | None = None,
        policy=None,
        workers: int = 4,
        backend: str = "thread",
        grant_timeout_s: float = 5.0,
        supervisor_retries: int = 1,
        fault_plan=None,
        journal=None,
        obs=None,
        on_resolve=None,
        journal_admission: bool = False,
    ) -> None:
        if workers < 1:
            raise ServeError(f"need at least one worker, got {workers}")
        self.budget = WorldBudget(budget) if isinstance(budget, int) else budget
        self.queue = queue if queue is not None else AdmissionQueue(
            depth=16 * self.budget.slots
        )
        if policy is None:
            policy = AdaptiveSpeculationPolicy(stats=AlternativeStats(obs=obs))
        self.policy = policy
        self.workers = workers
        self.backend = backend
        self.grant_timeout_s = grant_timeout_s
        self.supervisor_retries = supervisor_retries
        self.fault_plan = fault_plan
        if isinstance(journal, str):
            # a filesystem path: the config form a shard-host child
            # process receives, where the journal must outlive the pid
            from repro.journal import CommitJournal, FileJournalStorage

            journal = CommitJournal(storage=FileJournalStorage(journal))
        self.journal = journal
        self.obs = obs
        self.on_resolve = on_resolve
        self.journal_admission = journal_admission and journal is not None
        self._threads: list[threading.Thread] = []
        #: an admit write and its settle exclude each other
        self._admit_lock = threading.Lock()
        self._running = False
        self._crashed = False
        self._requests_c = self._k_h = None
        self._latency_h = self._wait_h = self._grant_h = self._hold_h = None
        if obs is not None:
            self.budget.bind_obs(obs)
            self.queue.bind_obs(obs)
            if fault_plan is not None:
                obs.watch_fault_plan(fault_plan)
            stats = getattr(policy, "stats", None)
            if stats is not None:
                stats.bind_obs(obs)
            self._requests_c = obs.registry.counter(
                "mw_serve_requests_total", "Requests by final status",
                labelnames=("tenant", "status"),
            )
            self._latency_h, self._wait_h, self._grant_h, self._hold_h = (
                obs.registry.histogram(name, text, buckets=LATENCY_BUCKETS)
                for name, text in (
                    ("mw_serve_request_latency_seconds",
                     "Submit-to-resolution latency of committed requests"),
                    ("mw_serve_queue_wait_seconds", "Admission-to-dispatch wait"),
                    ("mw_serve_grant_wait_seconds", "Dispatch-to-grant wait"),
                    ("mw_serve_slot_hold_seconds", "Grant-to-release slot hold"),
                )
            )
            self._k_h = obs.registry.histogram(
                "mw_serve_k_chosen", "Worlds actually speculated per request",
                buckets=(1, 2, 3, 4, 6, 8, 12, 16),
            )

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "SpeculationService":
        if self._running:
            return self
        self._running = True
        if self.journal is not None:
            raise_seq_floor([self.journal])
        for i in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        return self

    def stop(self, timeout: float | None = 10.0, drain: bool = True) -> None:
        """Stop accepting work, drain the queue, join the workers.

        With ``drain=True`` (the default) workers finish the whole
        backlog before exiting; with ``drain=False`` only in-flight
        requests finish and the backlog is shed immediately — the fast
        decommission a cluster router wants, since shed work re-routes
        to surviving shards rather than waiting out this one's queue.

        Requests still queued at shutdown are shed with the distinct
        ``mw_serve_shed_total{reason="shutdown"}`` label and resolve as
        ``cancelled`` carrying a ``retry_after_s`` hint — shutdown is a
        *transient* refusal (the work was never attempted), so a cluster
        router re-routes these to a surviving shard instead of failing
        the caller.
        """
        if not self._running:
            return
        self._running = False
        drained = self.queue.close(drain=not drain)
        for t in self._threads:
            t.join(timeout)
        self._threads.clear()
        drained += self.queue.drain()
        # one worker-pass worth of waiting per drained request: the same
        # crude-but-honest estimate the admission queue hints under
        # backpressure
        retry_hint = max(0.005, 0.001 * len(drained))
        for request in drained:
            self.queue.shed_request(request, reason="shutdown")
            self._resolve(
                request,
                ServeResult(
                    status="cancelled", tenant=request.tenant, seq=request.seq,
                    reason="service stopped", retry_after_s=retry_hint,
                ),
            )

    def crash(self) -> None:
        """Kill the service the way a dead shard dies: nothing graceful.

        The cluster failover simulation primitive. Ticket resolution is
        suppressed from this point on — a crashed process reports
        nothing — the queue closes without the
        shutdown shed/cancel courtesy and empties as it closes (nothing
        only queued ever runs, as after ``kill -9``; restore re-admits it
        from its sealed admit), and workers are joined so that in-flight
        requests settle their journal transactions (the journal is the
        only thing a crash leaves behind; whatever it recorded as applied
        is durable, everything else is lost). A router then
        replays/re-lands from the journal.
        Also models *fencing*: a shard whose lease expired must stop
        committing, which is exactly what suppressing resolution after
        the flag achieves.
        """
        if self._crashed:
            return
        self._crashed = True
        self._running = False
        self.queue.close(drain=True)
        for t in self._threads:
            t.join(10.0)
        self._threads.clear()

    def steal_requests(self, max_n: int) -> list[ServeRequest]:
        """Give up to ``max_n`` queued requests to another dispatcher.

        The cluster work-stealing hook: this service will never resolve
        the stolen requests' tickets — the stealing router re-places
        them under the same ``seq``, which keeps the journal block id
        and hence exactly-once intact.

        The admit ledger line stays **sealed** here: the hand-off is
        not durable until the thief journals its own admit, and marking
        it now would leave the request with no durable record anywhere
        if the thief's admit write tears. The router calls
        :meth:`confirm_stolen` once the thief's admit is sealed; until
        then a crash leaves (at worst) two sealed admits, which restore
        deduplicates as superseded.
        """
        return self.queue.steal(max_n)

    def confirm_stolen(self, request: ServeRequest) -> None:
        """Close the admit ledger line of a durably stolen request.

        Called by the router *after* the thief sealed its own admit: a
        restart here must not re-run the stolen request.
        """
        self._settle_admit(request, "stolen")

    @classmethod
    def restore(
        cls,
        journal,
        budget: WorldBudget | int,
        build_alternatives=None,
        gates=(),
        **kwargs: Any,
    ) -> tuple["SpeculationService", RestartReport]:
        """Cold-restart a service from its journal after a process death.

        The journal is the only survivor of a full-process crash; this
        rebuilds everything else around it:

        1. run :func:`~repro.journal.recovery.recover` with ``admit``
           and ``block`` txns *deferred* (their apply phase is serving,
           which only this path can redo);
        2. build a fresh service (budget/queue/policy from ``kwargs``,
           ``journal_admission`` forced on) over the same journal;
        3. bump the process-wide seq counter past every journalled
           request seq, so the new incarnation never reuses one;
        4. re-admit every sealed-but-unapplied ``admit`` under its
           original seq, rebuilding alternatives via
           ``build_alternatives(spec)``. A re-admitted request whose
           block win already applied is *replayed* by the per-request
           supervisor (same winner, byte-identical value), not re-run —
           idempotent replay of applied commits falls out of the
           existing block dedup.

        Requests whose ``spec`` is missing (or with no builder) cannot
        be rebuilt; their admit txns are settled ``unrecoverable`` and
        listed in ``report.dropped`` rather than retried forever.

        Returns ``(service, report)``; the service is already started
        and the report carries tickets for the re-admitted requests.
        """
        recovery = recover(
            journal, gates=gates,
            fault_plan=kwargs.get("fault_plan"),
            defer_kinds=("admit", "block"),
        )
        kwargs.setdefault("journal_admission", True)
        svc = cls(budget, journal=journal, **kwargs)

        floor = raise_seq_floor([journal])
        sealed = journal.sealed_unapplied_intents("admit")

        report = RestartReport(
            recovery=recovery,
            already_applied=sorted(
                intent["data"]["request"]
                for intent, _ in journal.applied_intents("admit")
            ),
            seq_floor=floor,
        )
        svc.start()
        for _, _, request in rebuilt_requests(
            ((journal, intent) for intent in sealed),
            build_alternatives, report.dropped,
        ):
            # admit() finds the sealed admit and reuses it
            report.tickets[request.seq] = svc.admit(request)
            report.re_admitted.append(request.seq)
        note_restore(
            kwargs.get("obs"), "service", cat="serve", track="journal",
            re_admitted=len(report.re_admitted),
            already_applied=len(report.already_applied),
            dropped=len(report.dropped), seq_floor=floor,
        )
        return svc, report

    def __enter__(self) -> "SpeculationService":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- submit ------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        alternatives: Sequence[Any],
        initial: dict | None = None,
        priority: int = 0,
        deadline_s: float | None = None,
        timeout: float | None = None,
        cost: float = 1.0,
        seq: int | None = None,
        spec: Any = None,
        request_class: str = "",
    ) -> ServeTicket:
        """Queue one alternative block for ``tenant``; returns a ticket.

        Builds the :class:`ServeRequest` (see its fields) and hands it
        to :meth:`admit`. ``deadline_s`` is *relative* (seconds from
        now): a request still queued — or still waiting for budget —
        past it is shed, and its ticket resolves with ``status="shed"``.
        ``timeout`` bounds the block's execution once started. ``seq``
        re-admits a request under its original sequence number (also the
        journal block id, so a duplicate placement dedupes against an
        already-applied commit). Raises
        :class:`~repro.errors.AdmissionRejected` under backpressure and
        :class:`~repro.errors.ServiceStopped` when not running.
        """
        return self.admit(ServeRequest.build(
            tenant, alternatives, initial=initial, priority=priority,
            deadline_s=deadline_s, timeout=timeout, cost=cost, seq=seq,
            spec=spec, request_class=request_class,
        ))

    def admit(self, request: ServeRequest) -> ServeTicket:
        """Take ``request`` as built and return its fresh ticket, the one
        way its result travels: the shard surface.

        What a cluster router (directly, or through the shard host's
        ``admit`` RPC) calls on the shard it picked, and what
        :meth:`submit` ends in.
        """
        if not self._running:
            raise ServiceStopped("service is not running (call start())")
        request.ticket = ticket = ServeTicket(request.tenant, request.seq)
        if self.on_resolve is not None:
            ticket.add_done_callback(functools.partial(self.on_resolve, request))
        request.submitted_at = time.monotonic()
        try:
            self.queue.offer(request)
        except AdmissionRejected:
            self._count_status(request.tenant, "rejected")
            raise
        self._journal_admit(request)
        self._maybe_burst(request)
        return ticket

    def _journal_admit(self, request: ServeRequest) -> None:
        """Seal an ``admit`` txn for ``request`` (journalled admission).

        The sealed intent is the durable ack: from this point a crash
        cannot lose the request — :meth:`restore` re-admits it. A
        re-landed request may already own a sealed admit here (from a
        dead incarnation): reuse it, never duplicate. May raise
        :class:`~repro.errors.JournalCrash` (injected journal faults),
        exactly like any other journal write.
        """
        if not self.journal_admission or request.shadow:
            return
        with self._admit_lock:
            rec = self.journal.find_sealed("admit", request=request.seq)
            # a *settled* admit (stolen, superseded, ...) is a closed
            # ledger line, not an ack: a request coming back needs its own
            if rec is None or self.journal.status(rec["seq"]) != "sealed":
                with self.journal.group():  # intent + seal: one append
                    self.journal.seal(
                        self.journal.begin("admit", **request.admit_data())
                    )

    def _settle_admit(self, request: ServeRequest, status: str) -> None:
        """Mark the request's admit txn applied with its final status."""
        if not self.journal_admission or request.shadow:
            return
        with self._admit_lock:
            rec = self.journal.find_sealed("admit", request=request.seq)
            if rec is not None and self.journal.status(rec["seq"]) == "sealed":
                settle_best_effort(self.journal, rec["seq"], status)

    def _maybe_burst(self, request: ServeRequest) -> None:
        """REQUEST_BURST: re-submit the request as a storm of shadows."""
        plan = self.fault_plan
        if plan is None:
            return
        key = (zlib.crc32(request.tenant.encode()), request.seq)
        fault = plan.decide(SERVE_SITE, *key)
        if fault.kind is not FaultKind.REQUEST_BURST:
            return
        copies = max(0, int(fault.param) - 1)
        plan.note_injection(
            SERVE_SITE, fault.kind,
            detail=f"{copies} shadow resubmits of request {request.seq}",
            tenant=request.tenant, seq=request.seq,
        )
        for _ in range(copies):
            shadow = dataclasses.replace(
                request, seq=next_seq(), shadow=True, ticket=None
            )
            try:
                self.queue.offer(shadow)
            except AdmissionRejected:
                break  # the storm hit the backpressure wall — working as intended

    # -- workers -----------------------------------------------------------
    def _resolve(self, request: ServeRequest, result: ServeResult) -> None:
        if request.shadow:
            return
        if self._crashed:
            return  # a crashed shard reports nothing; the journal speaks
        # settle the admit ledger before acking: an acked result is
        # always at least as durable as what the journal says
        self._settle_admit(request, result.status)
        ticket, request.ticket = request.ticket, None
        ticket._resolve(result)

    def _count_status(self, tenant: str, status: str) -> None:
        if self._requests_c is not None:
            self._requests_c.inc(tenant=tenant, status=status)

    def _worker_loop(self) -> None:
        while True:
            # blocks without a poll: offer() notifies a taker, and
            # stop() / crash() clear _running before queue.close()
            # wakes them all
            request, shed = self.queue.take()
            for expired in shed:
                self._resolve(
                    expired,
                    ServeResult(
                        status="shed", tenant=expired.tenant, seq=expired.seq,
                        reason="deadline expired in queue",
                    ),
                )
                self._count_status(expired.tenant, "shed")
            if request is None:
                if not self._running:
                    return
                continue
            try:
                self._serve_one(request)
            except Exception as exc:  # noqa: BLE001 - a worker never dies
                self._resolve(
                    request,
                    ServeResult(
                        status="failed", tenant=request.tenant, seq=request.seq,
                        reason=f"internal error: {exc!r}",
                    ),
                )
                self._count_status(request.tenant, "error")

    def _serve_one(self, request: ServeRequest) -> None:
        dispatched = time.monotonic()
        queue_wait = dispatched - request.submitted_at
        if self._wait_h is not None:
            self._wait_h.observe(queue_wait)
        tenant = request.tenant
        alts = list(request.alternatives)
        names = [a.name for a in alts]

        # ---- budget grant (bounded by the deadline) ----------------------
        if request.deadline_s is not None:
            grant_timeout = request.deadline_s - time.monotonic()
        else:
            grant_timeout = self.grant_timeout_s
        reservation = None
        if grant_timeout > 0:
            reservation = self.budget.reserve_blocking(
                tenant, want=len(alts),
                priority=request.priority,
                timeout=grant_timeout,
            )
        if reservation is None:
            shed_label, reason = (
                ("deadline", "deadline expired waiting for budget")
                if request.deadline_s is not None
                else ("capacity", "no budget capacity")
            )
            self.queue.shed_request(request, reason=shed_label)
            self._resolve(
                request,
                ServeResult(
                    status="shed", tenant=tenant, seq=request.seq,
                    reason=reason, queue_wait_s=queue_wait,
                ),
            )
            self._count_status(tenant, "shed")
            return
        granted_at = time.monotonic()
        if self._grant_h is not None:
            self._grant_h.observe(granted_at - dispatched)

        span_id = -1
        if self.obs is not None:
            span_id = self.obs.tracer.begin(
                f"request:{request.seq}", cat="serve", track=f"tenant:{tenant}",
                tenant=tenant, seq=request.seq, priority=request.priority,
                shadow=request.shadow,
            )
        try:
            # ---- SLOW_TENANT fault: charge extra worker time --------------
            self._maybe_slow_tenant(request)

            # ---- policy: K, order, staggers, backend ----------------------
            # load as the policy sees it: the pool pressure from
            # *everyone else* — a request alone on an idle machine is
            # the paper's free-speculation regime even though its own
            # grant may fill the pool
            others_load = max(0, self.budget.in_use - reservation.granted) / self.budget.slots
            decision = self.policy.decide(
                names, granted=reservation.granted, load=others_load,
                request_class=request.request_class,
            )
            if decision.k > reservation.granted and not decision.wide:
                # a policy may not outvote the budget: clamp to the grant
                # (a wide decision is the sanctioned exception — its
                # extra worlds are unbudgeted cheap tasks by contract)
                decision = dataclasses.replace(
                    decision, order=decision.order[: reservation.granted],
                    staggers=decision.staggers[: reservation.granted],
                )
            if self._k_h is not None:
                self._k_h.observe(float(decision.k))
            wave = self._build_wave(alts, decision, reservation)
            backend = decision.backend or self.backend

            # release slots the policy decided not to use (a wide K
            # exceeds the grant; nothing is unused then)
            unused = max(0, reservation.granted - decision.k)
            if unused > 0:
                reservation.release(unused)

            # ---- run under a per-request supervisor -----------------------
            supervisor = Supervisor(
                max_retries=self.supervisor_retries,
                backoff_s=SUPERVISOR_BACKOFF_S,
                fault_plan=self.fault_plan,
                block_id=request.seq,
                journal=self.journal,
                obs=self.obs,
            )
            remaining = None
            if request.deadline_s is not None:
                remaining = max(0.001, request.deadline_s - time.monotonic())
            if request.timeout is not None:
                remaining = (
                    request.timeout if remaining is None
                    else min(remaining, request.timeout)
                )
            # slots are held from grant to decision, and the win's durable
            # append waits for the release: the block's frames are queued
            # in this group and flush as it closes, before any ack. Nothing
            # can act on a queued record meanwhile — the service hands the
            # backend no SourceGates, so no device effect depends on one
            with self.journal.group() if self.journal is not None else nullcontext():
                outcome = supervisor.run(
                    wave, initial=request.initial, timeout=remaining, backend=backend,
                )
                preempted = reservation.preempted
                reservation.release()
                if self._hold_h is not None:
                    self._hold_h.observe(time.monotonic() - granted_at)
            # wave positions back to the caller's alternative list
            outcome.remap_indexes(decision.order)
            replayed = bool(outcome.extras.get("journal_recovered"))
            if not replayed:
                launched = [names[i] for i in decision.order]
                self.policy.observe(outcome, names, launched=launched)

            latency = time.monotonic() - request.submitted_at
            status = "committed" if outcome.winner is not None else "failed"
            result = ServeResult(
                status=status, tenant=tenant, seq=request.seq, outcome=outcome,
                reason="" if status == "committed" else "no alternative won",
                k=decision.k, policy_reason=decision.reason,
                backend=outcome.extras.get("backend", backend),
                queue_wait_s=queue_wait, grant_wait_s=granted_at - dispatched,
                latency_s=latency, preempted_slots=preempted, replayed=replayed,
            )
            if span_id >= 0:
                self.obs.tracer.end(
                    span_id,
                    disposition="committed" if status == "committed" else "aborted",
                    k=decision.k, policy=decision.reason, backend=result.backend,
                    status=status,
                )
                span_id = -1
            if self._latency_h is not None and status == "committed":
                self._latency_h.observe(latency)
            self._count_status(tenant, status)
            self._resolve(request, result)
        finally:
            if span_id >= 0:  # an exception escaped: settle as aborted
                self.obs.tracer.end(span_id, disposition="aborted", error="internal")
            reservation.release()  # idempotent: the net under an exception

    def _maybe_slow_tenant(self, request: ServeRequest) -> None:
        plan = self.fault_plan
        if plan is None:
            return
        key = (zlib.crc32(request.tenant.encode()), request.seq)
        fault = plan.decide(SERVE_SITE, *key)
        if fault.kind is not FaultKind.SLOW_TENANT:
            return
        plan.note_injection(
            SERVE_SITE, fault.kind,
            detail=f"request {request.seq} charged {fault.param:.3f}s",
            tenant=request.tenant, seq=request.seq,
        )
        time.sleep(fault.param)

    def _build_wave(
        self,
        alts: list,
        decision: SpeculationDecision,
        reservation,
    ) -> list:
        """The K chosen alternatives, staggered and preemption-gated.

        Rank 0 (the firm slot) runs unconditionally; ranks ≥ 1 check the
        reservation at start time and fail fast if their slot was
        preempted away while they waited out their stagger — the
        cheapest faithful reading of "stop launching the worlds you
        lost" that works inside an already-running block. Wide-K ranks
        beyond the original grant never held a slot, so there is nothing
        to preempt — they skip the gate.
        """
        wave = []
        for rank, idx in enumerate(decision.order):
            alt = alts[idx]
            stagger = decision.staggers[rank] if rank < len(decision.staggers) else 0.0
            fn = alt.fn
            if rank > 0 and not (decision.wide and rank >= reservation.granted):
                fn = _preemption_gate(fn, rank, reservation)
            wave.append(
                dataclasses.replace(
                    alt, fn=fn, start_delay=alt.start_delay + stagger
                )
            )
        return wave


def _preemption_gate(fn, rank: int, reservation):
    """Wrap an alternative body to honour slot preemption at start time."""

    def gated(workspace):
        if rank >= reservation.granted:
            raise WorldsError(
                f"world rank {rank} preempted before start "
                f"({reservation.preempted} slots reclaimed)"
            )
        return fn(workspace)

    gated.__name__ = getattr(fn, "__name__", "alternative")
    return gated
