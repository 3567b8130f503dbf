"""The cluster router: consistent-hash placement, spill/steal, failover.

:class:`ClusterRouter` is the traffic director over N shards, reached
only through the flat shard surface — ``admit`` (it returns the
request's ticket) / ``steal_requests`` / ``confirm_stolen`` plus
lifecycle and load, the same names on :class:`~repro.cluster.shard.ClusterShard`
and :class:`~repro.cluster.remote.RemoteShardClient`. Placement walks the
:class:`~repro.cluster.ring.HashRing` preference order; load policy adds
two or-parallel-style work-distribution moves on top:

- **spill** — when a tenant's home shard has no free world slots and a
  later preference has idle capacity, the request lands there instead
  (counted ``mw_cluster_spills_total{src,dst}``);
- **steal** — each detector round, an idle shard relieves the most
  backlogged one of queued requests (``mw_cluster_steals_total``).

**One landing path, one rule.** A request commits iff its ``block``
transaction applies in exactly one shard journal, and what keeps it so
is that *a request leaves a shard it may have reached only through that
shard's ledger*. Every way a request comes to rest — fresh submit,
spill, steal, shutdown-shed re-route, takeover re-land, restore
re-admit — is :meth:`ClusterRouter._land`: one walk of the tenant's
preference order (from the thief or spill target, if any), with the
in-process spare as its last rung, once. What a target says is either

- *no* (``AdmissionRejected``, ``ServiceStopped``) or *never reached*
  (``ShardUnreachable`` with ``sent=False``: dead state, open breaker,
  connects refused) — it cannot run the request: walk on; or
- *outcome unknown* (``JournalCrash``, or ``ShardUnreachable`` once a
  frame may have left) — it may yet run it, so it is taken over first:
  fenced, its workers joined or its process killed (nothing it had only
  queued ever runs), its journal final. A win found there is replayed,
  never re-run; only a final ledger without one lets the walk go on.

The walk ends ``landed``, ``replayed``, or in its last
``AdmissionRejected`` / ``NoSurvivingShard``.

The failure detector heartbeats every shard through the same
:class:`RemoteWorldLease` state machine remote worlds use, fed by the
``heartbeat``/``partition`` fault sites plus the ``cluster`` site
(shard-crash-mid-burst, partitioned router, stale takeover).
``miss_threshold`` consecutive missed beats — or a full lease term
without renewal — declare the shard dead and start a **takeover**:

1. the shard is fenced (if the process is actually alive — the
   false-positive case — it must stop committing; the lease-term
   argument makes that safe to assume, and the simulation enforces it)
   and its worker threads are joined, so its journal is final;
2. the dead shard's lease is declared dead and reclaimed;
3. every admitted-but-unresolved request assigned to it follows the same
   rule: *replayed* from the journal if its ``block`` already applied,
   otherwise *re-landed* — same path, **same request seq**, so the
   journal block id dedupes any duplicate — on a surviving shard.

Duplicate takeovers are suppressed because membership removal under the
router lock is the single point of entry. :meth:`audit_applied`
recomputes the per-seq applied count across every journal the cluster
ever owned so benches and fuzz tests can assert it.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.outcome import BlockOutcome
from repro.distrib.lease import LeaseState, RemoteWorldLease, heartbeat_lost
from repro.errors import (
    AdmissionRejected,
    ClusterError,
    JournalCrash,
    NoSurvivingShard,
    ServiceStopped,
    ShardUnreachable,
)
from repro.faults.plan import CLUSTER_SITE, FaultKind
from repro.journal import replay_block_win, request_fate
from repro.journal.recovery import RecoveryReport, recover, settle_best_effort
from repro.cluster.ring import HashRing
from repro.cluster.shard import ClusterShard, ShardState
from repro.serve.admission import ServeRequest, raise_seq_floor
from repro.serve.service import (
    ServeResult,
    ServeTicket,
    note_restore,
    rebuilt_requests,
)

#: Beats per ROUTER_PARTITION decision window (the fault plan decides
#: once per window whether the router loses sight of a shard, and the
#: outage then covers the first ``partition_beats`` beats of it).
PARTITION_WINDOW_BEATS = 8

#: Work stealing: the queue depth at which a shard becomes a victim, and
#: the most requests one detector round moves off it.
STEAL_MIN_BACKLOG = 2
STEAL_BATCH = 2


@dataclass(slots=True)
class ClusterResult:
    """What became of one cluster request.

    ``failover`` records how the result was obtained: ``""`` (served in
    place), ``"replayed"`` (recovered from a dead shard's journal),
    ``"relanded"`` (re-run on a survivor) or ``"rerouted"`` (moved off a
    draining shard). ``result`` is the underlying shard-level
    :class:`~repro.serve.service.ServeResult` when one exists.
    """

    status: str
    tenant: str
    seq: int
    shard_id: int | None = None
    failover: str = ""
    attempts: int = 1
    reason: str = ""
    result: ServeResult | None = None

    @property
    def committed(self) -> bool:
        return self.status == "committed"

    @property
    def replayed(self) -> bool:
        return self.failover == "replayed" or (
            self.result is not None and self.result.replayed
        )

    @property
    def value(self) -> Any:
        return None if self.result is None else self.result.value


def _replayed_result(
    tenant: str, seq: int, shard_id: int, outcome: BlockOutcome, attempts: int = 1
) -> ClusterResult:
    """The result of a request settled from the win ``shard_id``'s journal
    holds (``outcome`` is :func:`~repro.journal.replay_block_win`'s)."""
    return ClusterResult(
        status="committed", tenant=tenant, seq=seq, shard_id=shard_id,
        failover="replayed", attempts=attempts,
        result=ServeResult(
            status="committed", tenant=tenant, seq=seq,
            outcome=outcome, replayed=True,
        ),
    )


class ClusterTicket(ServeTicket):
    """A caller's handle on a cluster request (resolves exactly once,
    with a :class:`ClusterResult`)."""

    _timeout_error = ClusterError


@dataclass
class _Inflight:
    """The router's record of one admitted, unresolved request."""

    request: ServeRequest
    ticket: ClusterTicket
    #: the shard it is at rest on; -1 while a thread is landing it
    shard_id: int = -1
    attempts: int = 1
    failover: str = ""


@dataclass
class ClusterRestartReport:
    """What :meth:`ClusterRouter.restore` rebuilt from the shard journals."""

    #: per-shard recovery reports (quarantines ride inside each).
    recoveries: dict[int, RecoveryReport] = field(default_factory=dict)
    #: request seqs whose committed effects were found applied in *some*
    #: journal and replayed (never re-run) — including requests applied
    #: on a takeover survivor rather than their home shard.
    replayed: list[int] = field(default_factory=list)
    #: sealed-but-unapplied requests re-admitted once, under original seq.
    re_admitted: list[int] = field(default_factory=list)
    #: duplicate sealed admits (steal/re-land races) settled without a run.
    superseded: list[int] = field(default_factory=list)
    #: sealed requests with no rebuildable spec, settled ``unrecoverable``.
    dropped: list[int] = field(default_factory=list)
    #: the restored incarnation's first safe request seq.
    seq_floor: int = 1
    #: already-settled results for the replayed requests, by seq.
    results: dict[int, "ClusterResult"] = field(default_factory=dict)
    #: tickets for the re-admitted requests, by seq.
    tickets: dict[int, "ClusterTicket"] = field(default_factory=dict)


class ClusterRouter:
    """Route tenants onto shards; survive the shards dying.

    Parameters
    ----------
    shards:
        The :class:`ClusterShard` members (ids must be unique).
    vnodes:
        Ring smoothing (see :class:`HashRing`).
    heartbeat_s / miss_threshold / lease_term_s:
        Failure-detector cadence, in the router's *virtual* clock: each
        detector round advances the clock one ``heartbeat_s``.
    detect_interval_s:
        Real seconds between detector rounds when the background
        detector is running. Tests may instead drive
        :meth:`heartbeat_round` by hand.
    spill / steal:
        Enable the two load-balancing moves (stealing is paced by
        :data:`STEAL_MIN_BACKLOG` and :data:`STEAL_BATCH`).
    fault_plan / obs:
        Shared robustness planes. The plan's ``cluster`` site drives
        shard-crash/partition/stale-takeover injection; ``obs`` gains
        the ``mw_cluster_*`` family and ``cat="cluster"`` failover
        spans.
    """

    def __init__(
        self,
        shards: Sequence[ClusterShard],
        vnodes: int = 64,
        heartbeat_s: float = 0.1,
        miss_threshold: int = 3,
        lease_term_s: float = 0.5,
        detect_interval_s: float = 0.01,
        spill: bool = True,
        steal: bool = True,
        fault_plan=None,
        obs=None,
        spare_factory=None,
    ) -> None:
        if not shards:
            raise ClusterError("a cluster needs at least one shard")
        ids = [s.shard_id for s in shards]
        if len(set(ids)) != len(ids):
            raise ClusterError(f"duplicate shard ids: {sorted(ids)}")
        self.heartbeat_s = heartbeat_s
        self.miss_threshold = miss_threshold
        self.lease_term_s = lease_term_s
        self.detect_interval_s = detect_interval_s
        self.spill = spill
        self.steal = steal
        self.fault_plan = fault_plan
        self.obs = obs
        #: zero-arg callable returning a fresh (unstarted) in-process
        #: shard: when a landing finds *no* surviving candidate (e.g.
        #: every remote shard unreachable), the router adopts one local
        #: spare as the walk's last rung — the ``remote`` row of
        #: :data:`repro.faults.supervisor.DEGRADES_TO`, one level up
        self.spare_factory = spare_factory
        self._spare: ClusterShard | None = None
        self.ring = HashRing(vnodes=vnodes)
        self._shards: dict[int, ClusterShard] = {}
        self._retired: list[ClusterShard] = []
        #: the one per-request table: whoever pops a record resolves it
        self._inflight: dict[int, _Inflight] = {}
        self._lock = threading.RLock()
        self._running = False
        self._beat = 0
        self._vclock = 0.0
        self._detector: threading.Thread | None = None
        self._metrics_init(obs)
        for shard in shards:
            self._adopt(shard)

    # -- telemetry ---------------------------------------------------------
    def _metrics_init(self, obs) -> None:
        self._req_c = self._spill_c = self._steal_c = None
        self._takeover_c = self._failover_c = self._miss_c = self._up_g = None
        if obs is None:
            return
        reg = obs.registry
        self._req_c = reg.counter(
            "mw_cluster_requests_total", "Requests placed, by shard",
            labelnames=("shard",),
        )
        self._spill_c = reg.counter(
            "mw_cluster_spills_total",
            "Requests spilled off a saturated home shard",
            labelnames=("src", "dst"),
        )
        self._steal_c = reg.counter(
            "mw_cluster_steals_total",
            "Requests stolen from a backlogged shard by an idle one",
            labelnames=("src", "dst"),
        )
        self._takeover_c = reg.counter(
            "mw_cluster_takeovers_total", "Shard takeovers, by kind",
            labelnames=("kind",),
        )
        self._failover_c = reg.counter(
            "mw_cluster_failover_requests_total",
            "Requests settled by failover, by mode",
            labelnames=("mode",),
        )
        self._miss_c = reg.counter(
            "mw_cluster_heartbeat_misses_total",
            "Shard heartbeats the router did not see",
            labelnames=("shard",),
        )
        self._up_g = reg.gauge(
            "mw_cluster_shards_up", "Ring members currently believed up"
        )
        if self.fault_plan is not None:
            obs.watch_fault_plan(self.fault_plan)

    def _count(self, counter, **labels) -> None:
        if counter is not None:
            counter.inc(**{k: str(v) for k, v in labels.items()})

    def _set_up_gauge(self) -> None:
        if self._up_g is not None:
            self._up_g.set(float(sum(1 for s in self._shards.values() if s.up)))

    # -- membership --------------------------------------------------------
    def _adopt(self, shard: ClusterShard) -> None:
        shard.lease = RemoteWorldLease(
            lease_id=shard.shard_id, node_id=shard.shard_id,
            term_s=self.lease_term_s, heartbeat_s=self.heartbeat_s,
            miss_threshold=self.miss_threshold,
            granted_at_s=self._vclock, obs=self.obs,
        )
        with self._lock:
            self._shards[shard.shard_id] = shard
            self.ring.add(shard.shard_id)
        if self._running:
            shard.start()
        self._set_up_gauge()

    def add_shard(self, shard: ClusterShard) -> None:
        """Scale out (or rejoin after fencing, as a fresh incarnation)."""
        if shard.shard_id in self._shards:
            raise ClusterError(f"shard {shard.shard_id} is already a member")
        self._adopt(shard)

    def _ensure_spare(self) -> ClusterShard | None:
        """Adopt the in-process spare shard, once (see ``spare_factory``)."""
        if self.spare_factory is None:
            return None
        with self._lock:
            spare = self._spare
        if spare is not None:
            return spare if spare.alive else None
        spare = self.spare_factory()
        if spare is None:
            return None
        with self._lock:
            if spare.shard_id in self._shards:
                return self._shards[spare.shard_id]
            self._spare = spare
        spare.start()
        self._adopt(spare)
        self._count(self._takeover_c, kind="spare-adopted")
        return spare

    @property
    def shards_up(self) -> int:
        return sum(1 for s in self._shards.values() if s.up)

    def shard(self, shard_id: int) -> ClusterShard:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ClusterError(f"no member shard {shard_id}") from None

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "beat": self._beat,
                "inflight": len(self._inflight),
                "members": [s.snapshot() for s in self._shards.values()],
                "retired": [s.shard_id for s in self._retired],
            }

    # -- lifecycle ---------------------------------------------------------
    def start(self, detect: bool = True) -> "ClusterRouter":
        if self._running:
            return self
        self._running = True
        for shard in list(self._shards.values()):
            shard.start()
        raise_seq_floor(self.journals())  # seqs are drawn here, not in a host
        if detect:
            self._detector = threading.Thread(
                target=self._detector_loop, name="cluster-detector", daemon=True
            )
            self._detector.start()
        return self

    def _join_detector(self, timeout: float = 5.0) -> None:
        """Reap the detector thread; raise if it refuses to die.

        ``stop()``/``close()`` must never leak a dangling detector: a
        thread still pinging shards after shutdown keeps sockets (and
        whole shard-host processes) alive. The loop re-checks
        ``_running`` every ``detect_interval_s``, so a healthy detector
        always exits well inside the timeout.
        """
        detector, self._detector = self._detector, None
        if detector is None:
            return
        detector.join(timeout)
        if detector.is_alive():  # pragma: no cover - requires a hung beat
            self._detector = detector
            raise ClusterError(
                f"detector thread failed to stop within {timeout}s"
            )

    def stop(self) -> None:
        """Stop the detector and gracefully stop every member shard."""
        if not self._running:
            self._join_detector()
            return
        self._running = False
        self._join_detector()
        for shard in list(self._shards.values()):
            if shard.alive:
                shard.stop()
        # anything still unresolved (e.g. re-route raced shutdown) fails
        with self._lock:
            leftovers = list(self._inflight.values())
        for rec in leftovers:
            self._settle(rec, "cancelled", "cluster stopped")

    def close(self) -> None:
        """Alias for :meth:`stop` — the resource-style spelling.

        Guaranteed (like ``stop``) to leave no dangling detector
        thread: both paths funnel through :meth:`_join_detector`.
        """
        self.stop()

    def crash(self) -> None:
        """Kill the whole cluster's process-state: the full-process death.

        Every shard crashes (journals survive, nothing else), the
        detector stops, and no ticket resolves — a dead process reports
        nothing. This is the chaos harness's whole-cluster kill switch;
        :meth:`restore` is its inverse, rebuilding the cluster from the
        shard journals alone.
        """
        self._running = False
        self._join_detector()
        for shard in list(self._shards.values()) + list(self._retired):
            if shard.alive:
                shard.crash()
        with self._lock:
            self._inflight.clear()

    @classmethod
    def restore(
        cls,
        journals: dict[int, Any],
        build_alternatives=None,
        gates=(),
        shard_kwargs: dict | None = None,
        detect: bool = True,
        **kwargs: Any,
    ) -> tuple["ClusterRouter", ClusterRestartReport]:
        """Cold-restart a whole cluster from its shard journals.

        ``journals`` maps shard id -> freshly reopened
        :class:`~repro.journal.CommitJournal` (one per shard the dead
        cluster owned). The restart protocol:

        1. recover each journal (``admit``/``block`` txns deferred to
           this path);
        2. bump the process-wide seq counter past every journalled
           request seq;
        3. build fresh shards over the same journals (journalled
           admission forced on) and a fresh router over them;
        4. **cross-journal audit**: a request whose ``block`` txn
           applied in *any* journal — including a takeover survivor's,
           not just its home shard's — is *replayed* from the durable
           value and its sealed admit settled, so a restarted home
           shard never re-runs it;
        5. duplicate sealed admits for one seq (steal/re-land races cut
           down mid-flight) are deduplicated: one re-admission, the
           rest settled ``superseded``;
        6. the surviving sealed admits are re-admitted once, under
           their original seqs, via normal placement.

        Returns ``(router, report)``; the router is started and the
        report carries the replayed results and re-admission tickets.
        """
        shard_kwargs = dict(shard_kwargs or {})
        fault_plan = kwargs.get("fault_plan")
        obs = kwargs.get("obs")
        shard_kwargs.setdefault("fault_plan", fault_plan)
        shard_kwargs.setdefault("obs", obs)
        items = sorted(journals.items())

        report = ClusterRestartReport()
        for sid, journal in items:
            report.recoveries[sid] = recover(
                journal, gates=gates, fault_plan=fault_plan,
                defer_kinds=("admit", "block"),
            )
        report.seq_floor = raise_seq_floor(journals.values())

        shards = [
            ClusterShard(sid, journal=journal, journal_admission=True,
                         **shard_kwargs)
            for sid, journal in items
        ]
        router = cls(shards, **kwargs)
        router.start(detect=detect)

        # dedupe sealed admits across journals: exactly one incarnation
        # of each request survives restore
        pending: dict[int, tuple[Any, dict]] = {}
        for sid, journal in items:
            for intent in journal.sealed_unapplied_intents("admit"):
                rseq = intent["data"]["request"]
                if rseq in pending:
                    settle_best_effort(journal, intent["seq"], "superseded")
                    report.superseded.append(rseq)
                else:
                    pending[rseq] = (journal, intent)

        unwon = []
        for rseq, (journal, intent) in sorted(pending.items()):
            won = request_fate(journals, rseq).won
            if won is None:
                unwon.append((journal, intent))
                continue
            # applied somewhere (possibly a takeover survivor): replay
            # the durable value, never re-run
            wsid, outcome = won
            settle_best_effort(
                journal, intent["seq"],
                "recovered" if journals[wsid] is journal else "recovered-remote",
            )
            report.replayed.append(rseq)
            report.results[rseq] = _replayed_result(
                intent["data"].get("tenant", "?"), rseq, wsid, outcome
            )
            router._count(router._failover_c, mode="replayed")
        for journal, intent, request in rebuilt_requests(
            unwon, build_alternatives, report.dropped
        ):
            try:
                rec = router._accept(request)
            except (AdmissionRejected, NoSurvivingShard):
                continue  # the admit stays sealed: a later restore retries it
            report.re_admitted.append(request.seq)
            report.tickets[request.seq] = rec.ticket
            # if it landed away from home, the new shard sealed its own
            # admit; settle the old one so only one copy of the request
            # survives the *next* restart too
            if (
                journals.get(rec.shard_id) is not journal
                and journal.status(intent["seq"]) == "sealed"
            ):
                settle_best_effort(journal, intent["seq"], "superseded")
        note_restore(
            obs, "cluster", cat="cluster", track="cluster",
            shards=len(items), replayed=len(report.replayed),
            re_admitted=len(report.re_admitted),
            superseded=len(report.superseded),
            dropped=len(report.dropped), seq_floor=report.seq_floor,
        )
        return router, report

    def __enter__(self) -> "ClusterRouter":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- placement ---------------------------------------------------------
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
    ) -> ClusterTicket:
        """Place one request on the tenant's (preferred live) shard.

        Builds the :class:`~repro.serve.admission.ServeRequest` (see its
        fields) that every layer below passes on as is. Raises
        :class:`~repro.errors.WorldsError` on a bad alternative list,
        :class:`~repro.errors.AdmissionRejected` when every candidate
        shard refuses it (cluster-level backpressure, with the largest
        ``retry_after_s`` hint seen) and
        :class:`~repro.errors.NoSurvivingShard` when no shard is up —
        with nothing left registered in every case.

        ``seq`` re-admits a request under its original cluster-unique
        seq (and hence journal block id). ``spec`` is the picklable
        request description journalled by shards running with
        ``journal_admission`` (what makes the request rebuildable after
        a whole-cluster crash).
        """
        if not self._running:
            raise ServiceStopped("cluster is not running (call start())")
        return self._accept(ServeRequest.build(
            tenant, alternatives, initial=initial, priority=priority,
            deadline_s=deadline_s, timeout=timeout, cost=cost, seq=seq,
            spec=spec, request_class=request_class,
        )).ticket

    def _accept(self, request: ServeRequest) -> _Inflight:
        """Register ``request`` and land it; unregister if landing raises."""
        rec = _Inflight(request, ClusterTicket(request.tenant, request.seq))
        with self._lock:
            self._inflight[request.seq] = rec
        try:
            self._land(rec)
        except BaseException:
            with self._lock:
                self._inflight.pop(request.seq, None)
            raise
        return rec

    def _land(
        self, rec: _Inflight, prefer: ClusterShard | None = None, exclude=()
    ) -> str:
        """Bring ``rec`` to rest: the one landing path (module docstring).

        One walk of the live members in the tenant's ring order, minus
        ``exclude``, with ``prefer`` — or the spill target, when the home
        shard is saturated and a later preference sits idle — tried
        first. Returns ``"landed"`` or ``"replayed"``; raises the last
        :class:`AdmissionRejected` seen, or :class:`NoSurvivingShard`,
        when nobody, the spare included, took it.
        """
        request = rec.request
        with self._lock:
            order = [
                self._shards[sid]
                for sid in (
                    self.ring.preference(request.tenant) if len(self.ring) else ()
                )
                if sid not in exclude
                and sid in self._shards
                and self._shards[sid].up
            ]
        spilled_from = None
        if prefer is None and self.spill and order:
            home = order[0]
            if home.idle_slots() == 0 and home.backlog() > 0:
                prefer = next(
                    (o for o in order[1:]
                     if o.idle_slots() > 0 and o.backlog() == 0),
                    None,
                )
                if prefer is not None:
                    spilled_from = home
        if prefer is not None:
            order.sort(key=lambda shard: shard is not prefer)  # stable

        def last_rung():
            # remote → local degradation, the cluster-level rung of fork →
            # thread → sequential: adopt the in-process spare, once,
            # rather than fail the request
            spare = self._ensure_spare()
            if (
                spare is not None and spare not in order
                and spare.shard_id not in exclude
            ):
                yield spare

        rejection: AdmissionRejected | None = None
        for target in itertools.chain(order, last_rung()):
            if not target.up:
                continue  # taken over since the walk
            try:
                ticket = target.admit(request)
            except (
                AdmissionRejected, ServiceStopped, ShardUnreachable, JournalCrash,
            ) as exc:
                if isinstance(exc, AdmissionRejected):
                    rejection = exc
                if isinstance(exc, JournalCrash) or getattr(exc, "sent", False):
                    # outcome unknown (the journal tore with the request
                    # already queued, or the frame left unanswered): it
                    # leaves only through the target's ledger. fence()
                    # also waits out a takeover another thread began
                    self.takeover(target.shard_id, kind="admit-unknown")
                    target.fence()
                    if self._replay_from(rec, target):
                        return "replayed"
                continue
            with self._lock:
                rec.shard_id = target.shard_id
            self._count(self._req_c, shard=target.shard_id)
            if spilled_from is not None and target is prefer:
                self._count(
                    self._spill_c, src=spilled_from.shard_id, dst=target.shard_id
                )
            # at rest first: a ticket already resolved settles right here
            ticket.add_done_callback(self._on_shard_resolve)
            return "landed"
        raise rejection or NoSurvivingShard(
            f"request {request.seq} (tenant {request.tenant!r}): every "
            f"candidate shard is down ({len(self._shards)} members)"
        )

    def _reland(
        self, rec: _Inflight, what: str, failover: str,
        prefer: ClusterShard | None = None, exclude=(),
    ) -> str:
        """:meth:`_land` for a request the cluster already accepted (a
        steal, a shed re-route, a takeover re-land): ``landed`` /
        ``replayed``, or ``failed`` — settled as such — when the walk
        ends with nobody taking it."""
        rec.attempts += 1
        rec.failover = failover
        # in transit: it is this thread's to land, not an orphan for a
        # takeover (one this very walk starts, or a concurrent one)
        rec.shard_id = -1
        try:
            return self._land(rec, prefer, exclude)
        except (AdmissionRejected, NoSurvivingShard) as exc:
            self._settle(rec, "failed", f"{what} failed: {exc}")
            return "failed"

    def _replay_from(self, rec: _Inflight, shard: ClusterShard) -> bool:
        """The ledger question, asked of a shard whose journal is final:
        did ``rec``'s block apply there? If so ``rec`` is settled from
        the durable win — replayed, never re-run — and this is True
        (:meth:`restore`, with no ticket to settle, asks
        :func:`~repro.journal.request_fate` and builds the same result).
        """
        outcome = replay_block_win(shard.journal, rec.request.seq)
        if outcome is None:
            return False
        rec.shard_id = shard.shard_id
        rec.failover = "replayed"
        self._count(self._failover_c, mode="replayed")
        self._resolve(rec, _replayed_result(
            rec.request.tenant, rec.request.seq, shard.shard_id, outcome,
            rec.attempts,
        ))
        return True

    # -- resolution --------------------------------------------------------
    def _settle(
        self, rec: _Inflight, status: str, reason: str,
        result: ServeResult | None = None,
    ) -> None:
        """Resolve ``rec`` as ``status`` where it stands."""
        self._resolve(rec, ClusterResult(
            status=status, tenant=rec.request.tenant, seq=rec.request.seq,
            shard_id=rec.shard_id, failover=rec.failover,
            attempts=rec.attempts, reason=reason, result=result,
        ))

    def _resolve(self, rec: _Inflight, result: ClusterResult) -> None:
        """Take ``rec`` out of the table and resolve its ticket — once:
        only the caller that finds it still registered resolves."""
        with self._lock:
            if self._inflight.pop(result.seq, None) is rec:
                rec.ticket._resolve(result)

    def _on_shard_resolve(self, result: ServeResult) -> None:
        """A shard ticket's callback (on the shard's resolving thread)."""
        with self._lock:
            rec = self._inflight.get(result.seq)
            if rec is None:
                return  # already settled (takeover won the race) or foreign
            reroutable = (
                result.status == "cancelled"
                and result.retry_after_s > 0
                and self._running
                and rec.attempts <= len(self._shards) + 1
            )
            if not reroutable:
                # inside the lock, so no takeover sees it as an orphan
                self._settle(rec, result.status, result.reason, result)
                return
        # a draining shard shed it with a retry hint: re-route rather
        # than failing the caller (the shutdown-shed satellite payoff)
        self._count(self._failover_c, mode="rerouted")
        self._reland(
            rec, "re-route", rec.failover or "rerouted", exclude={rec.shard_id}
        )

    # -- failure detection -------------------------------------------------
    def _detector_loop(self) -> None:
        while self._running:
            try:
                self.heartbeat_round()
                if self.steal:
                    self.steal_round()
            except Exception:  # noqa: BLE001 - the detector never dies
                pass
            time.sleep(self.detect_interval_s)

    def _router_partitioned(self, shard_id: int, beat: int) -> bool:
        """ROUTER_PARTITION: beats the router loses to a partition window."""
        plan = self.fault_plan
        if plan is None:
            return False
        window, offset = divmod(beat, PARTITION_WINDOW_BEATS)
        decision = plan.decide(CLUSTER_SITE, shard_id, window)
        if decision.kind is not FaultKind.ROUTER_PARTITION:
            return False
        if offset >= int(decision.param):
            return False
        if offset == 0:
            plan.note_injection(
                CLUSTER_SITE, decision.kind,
                detail=f"router blind to shard {shard_id} for "
                f"{int(decision.param)} beats",
                t=self._vclock, track="cluster", shard=shard_id,
            )
        return True

    def heartbeat_round(self) -> None:
        """One failure-detector beat over every member shard.

        Advances the virtual clock by ``heartbeat_s``. A beat is missed
        when the shard process is dead, the router is partitioned from
        it (``ROUTER_PARTITION`` window or a ``partition``-site link
        flap), or the beat itself is lost in flight (``heartbeat``
        site). Misses escalate through the lease state machine exactly
        as remote worlds do; a declaration triggers takeover.
        """
        self._beat += 1
        now = self._vclock = self._beat * self.heartbeat_s
        plan = self.fault_plan
        for shard in list(self._shards.values()):
            # a DEAD member is exactly what this loop exists to notice (the
            # process died without telling anyone); only a shard mid-drain
            # is exempt — decommission owns its lifecycle
            if shard.state is ShardState.DRAINING:
                continue
            lease = shard.lease
            # one real beat: local shards answer by state, remote shards
            # by an actual ping RPC (whose failure also feeds their
            # circuit breaker, so a silent host fails fast next beat)
            answering = shard.answers_heartbeat()
            partitioned = self._router_partitioned(shard.shard_id, self._beat) or (
                plan is not None and plan.link_down(shard.shard_id, now)
            )
            missed = lease.beats_missed
            verdict = lease.beat(
                now, alive=answering, reachable=not partitioned,
                lost=heartbeat_lost(plan, lease.lease_id, self._beat, t=now),
                reason=(
                    "shard dead" if not answering
                    else "router partitioned" if partitioned
                    else "beat lost in flight"
                ),
            )
            if lease.beats_missed == missed:  # the beat arrived
                if shard.state is ShardState.SUSPECT:
                    shard.state = ShardState.UP
                    self._set_up_gauge()
                self._maybe_stale_takeover(shard)
                continue
            self._count(self._miss_c, shard=shard.shard_id)
            # the lease probed (a synchronous liveness check straight at
            # the shard): that rescues a live shard behind a lost beat,
            # but not one behind a partition — the probe takes the same
            # dead path
            if verdict is LeaseState.ACTIVE:
                shard.state = ShardState.UP
            elif shard.state is ShardState.UP:
                shard.state = ShardState.SUSPECT
            if verdict is LeaseState.DEAD:
                self.takeover(
                    shard.shard_id,
                    kind="crash" if not shard.alive else "stale",
                )

    def _maybe_stale_takeover(self, shard: ClusterShard) -> None:
        """STALE_TAKEOVER: start a takeover for a demonstrably live shard."""
        plan = self.fault_plan
        if plan is None:
            return
        decision = plan.decide(CLUSTER_SITE, shard.shard_id, self._beat)
        if decision.kind is not FaultKind.STALE_TAKEOVER:
            return
        plan.note_injection(
            CLUSTER_SITE, decision.kind,
            detail=f"takeover of live shard {shard.shard_id} at beat {self._beat}",
            t=self._vclock, track="cluster", shard=shard.shard_id,
        )
        shard.lease.declare_dead(self._vclock, "stale takeover (injected)")
        self.takeover(shard.shard_id, kind="stale")

    # -- load balancing ----------------------------------------------------
    def steal_round(self) -> int:
        """Move up to :data:`STEAL_BATCH` requests from the most
        backlogged shard to an idle one; returns how many moved."""
        with self._lock:
            ups = [s for s in self._shards.values() if s.state is ShardState.UP]
        if len(ups) < 2:
            return 0
        busy = max(ups, key=lambda s: s.backlog())
        if busy.backlog() < STEAL_MIN_BACKLOG:
            return 0
        idle = [
            s for s in ups
            if s is not busy and s.backlog() == 0 and s.idle_slots() > 0
        ]
        if not idle:
            return 0
        target = idle[0]
        moved = 0
        try:
            stolen = busy.steal_requests(STEAL_BATCH)
        except ShardUnreachable:
            return 0  # busy shard went silent; the detector handles it
        for request in stolen:
            with self._lock:
                rec = self._inflight.get(request.seq)
            if rec is None:
                continue  # resolved while being stolen; drop the copy
            verdict = self._reland(
                rec, "steal re-place", rec.failover, prefer=target
            )
            if verdict == "failed" or rec.shard_id == busy.shard_id:
                continue  # nobody else took it: the source's admit stands
            # at rest on another shard — its admit sealed there, or its
            # win durable in that shard's journal: only now is the
            # hand-off durable, so only now may the source close its
            # ledger line (the reverse order would lose the request if
            # the thief's admit write tore — no durable admit anywhere)
            try:
                busy.confirm_stolen(request)
            except ShardUnreachable:
                # the source went silent *after* the hand-off became
                # durable: exactly-once still holds (only the new shard
                # runs the block) and the source's unresolved admit is
                # settled by its eventual takeover
                pass
            self._count(self._steal_c, src=busy.shard_id, dst=rec.shard_id)
            moved += 1
        return moved

    # -- failover ----------------------------------------------------------
    def kill_shard(self, shard_id: int) -> None:
        """Crash a member shard (bench/test injection entry point)."""
        shard = self.shard(shard_id)
        if self.fault_plan is not None:
            self.fault_plan.note_injection(
                CLUSTER_SITE, FaultKind.SHARD_CRASH,
                detail=f"shard {shard_id} killed",
                t=self._vclock, track="cluster", shard=shard_id,
            )
        shard.crash()

    def crash_decision(self, shard_id: int, epoch: int = 0) -> float | None:
        """The plan's verdict: kill ``shard_id`` this epoch? At what point?

        Returns the fraction of the phase at which the crash lands, or
        None. Benches query this per seed to schedule the mid-burst
        kill deterministically.
        """
        if self.fault_plan is None:
            return None
        decision = self.fault_plan.decide(CLUSTER_SITE, shard_id, epoch)
        if decision.kind is FaultKind.SHARD_CRASH:
            return decision.param
        return None

    def decommission(self, shard_id: int) -> None:
        """Gracefully remove a shard; its queued work re-routes.

        The shard finishes in-flight requests but sheds its backlog:
        shed requests resolve ``cancelled`` with a ``retry_after_s``
        hint, which :meth:`_on_shard_resolve` turns into re-placement on
        the surviving members — nobody's request fails just because its
        shard left the cluster politely.
        """
        shard = self.shard(shard_id)
        with self._lock:
            if shard_id in self.ring:
                self.ring.remove(shard_id)
            self._shards.pop(shard_id, None)
            self._retired.append(shard)
        self._set_up_gauge()
        shard.stop(drain=False)
        if shard.lease is not None and shard.lease.alive:
            shard.lease.complete(self._vclock)

    def takeover(self, shard_id: int, kind: str = "crash") -> dict:
        """Take over a (declared-)dead shard; idempotent per incarnation.

        Returns a report: ``{"shard", "kind", "replayed", "relanded",
        "failed", "stale"}``. A second call for the same shard — the
        STALE_TAKEOVER double-fire, or two detector paths racing — finds
        the shard already out of the membership table and returns a
        ``stale`` no-op report without touching anything.
        """
        report = {
            "shard": shard_id, "kind": kind, "stale": True,
            "replayed": 0, "relanded": 0, "failed": 0,
        }
        with self._lock:
            # membership removal under the lock is the idempotence gate:
            # exactly one caller gets to run the takeover body
            shard = self._shards.pop(shard_id, None)
            if shard is None:
                return report
            self.ring.remove(shard_id)
            self._retired.append(shard)
        report["stale"] = False
        self._set_up_gauge()
        self._count(self._takeover_c, kind=kind)
        span_id = -1
        if self.obs is not None:
            span_id = self.obs.tracer.begin(
                f"takeover:shard:{shard_id}", cat="cluster", track="cluster",
                shard=shard_id, kind=kind,
            )
        # 1. fence/crash and join the shard's workers: the journal is
        #    final after this, which is what makes step 3 race-free
        if shard.alive:
            shard.fence()
        else:
            shard.crash()
        # 2. settle the shard's own lease
        if shard.lease is not None:
            shard.lease.declare_dead(self._vclock, f"takeover ({kind})")
            shard.lease.reclaim(self._vclock)
        # 3. settle every admitted-but-unresolved request it held: the
        #    ledger first, and only what never applied lands again
        with self._lock:
            orphans = [
                rec for rec in self._inflight.values()
                if rec.shard_id == shard_id
            ]
        for rec in orphans:
            if self._replay_from(rec, shard):
                report["replayed"] += 1
                continue
            verdict = self._reland(rec, "re-land", "relanded", exclude={shard_id})
            report["relanded" if verdict == "landed" else verdict] += 1
            if verdict != "replayed":
                spare = self._spare
                on_spare = spare is not None and rec.shard_id == spare.shard_id
                self._count(
                    self._failover_c,
                    mode="lost" if verdict == "failed"
                    else "spare" if on_spare else "relanded",
                )
        if span_id >= 0:
            self.obs.tracer.end(
                span_id, disposition="committed", replayed=report["replayed"],
                relanded=report["relanded"], failed=report["failed"],
            )
        return report

    # -- auditing ----------------------------------------------------------
    def journals(self) -> list:
        """Every journal the cluster ever owned (members + retired)."""
        with self._lock:
            shards = list(self._shards.values()) + list(self._retired)
        out: list = []
        for shard in shards:
            # a live remote shard hands back a fresh snapshot per read:
            # compare objects kept alive here, never the id() of freed ones
            journal = shard.journal
            if not any(journal is kept for kept in out):
                out.append(journal)
        return out

    def audit_applied(self) -> dict[int, int]:
        """Per request-seq count of *applied* ``block`` transactions
        across every shard journal — the exactly-once ledger.

        For a committed request the count must be exactly 1 (0 means a
        lost commit, ≥2 a double commit); for a failed/shed request 0.
        """
        counts: dict[int, int] = {}
        for journal in self.journals():
            # applied_intents (not records()) so the audit survives
            # compaction: applied intents ride the snapshot
            for intent, _ in journal.applied_intents("block"):
                block = intent["data"]["block"]
                counts[block] = counts.get(block, 0) + 1
        return counts
