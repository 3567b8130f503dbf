"""The cluster router: consistent-hash placement, spill/steal, failover.

:class:`ClusterRouter` is the traffic director over N
:class:`~repro.cluster.shard.ClusterShard` instances. Placement walks
the :class:`~repro.cluster.ring.HashRing` preference order; load policy
adds two or-parallel-style work-distribution moves on top:

- **spill** — when a tenant's home shard has no free world slots and a
  later preference has idle capacity, the request lands there instead
  (counted ``mw_cluster_spills_total{src,dst}``);
- **steal** — each detector round, an idle shard relieves the most
  backlogged one by pulling queued requests through
  :meth:`~repro.serve.service.SpeculationService.steal_requests`
  (counted ``mw_cluster_steals_total``).

The robustness headline is the failure path. The router heartbeats every
shard through the same :class:`RemoteWorldLease` state machine remote
worlds use, fed by the existing ``heartbeat``/``partition`` fault sites
plus the new ``cluster`` site (shard-crash-mid-burst, partitioned
router, stale takeover). ``miss_threshold`` consecutive missed beats —
or a full lease term without renewal — declare the shard dead and start
a **takeover**:

1. the shard is fenced (if the process is actually alive — the
   false-positive case — it must stop committing; the lease-term
   argument makes that safe to assume, and the simulation enforces it)
   and its worker threads are joined, so its journal is final;
2. the dead shard's lease is declared dead and reclaimed;
3. every admitted-but-unresolved request assigned to it is settled from
   the journal: a request whose ``block`` transaction already
   **applied** is *replayed* (its result is durable — re-running would
   double-commit; the resolved result is marked ``replayed``), and
   everything else is *re-landed* on the next surviving shard in the
   tenant's preference order, under the **same request seq**, so the
   journal block id dedupes any duplicate placement.

Exactly-once argument: a request commits iff its ``block`` transaction
applies in exactly one shard journal. Before takeover reads a journal
the shard's threads are joined (no concurrent appends); replay never
re-runs; re-land only happens when no journal applied; and duplicate
takeovers are suppressed because membership removal under the router
lock is the single point of entry. :meth:`audit_applied` recomputes the
per-seq applied count across every journal the cluster ever owned so
benches and fuzz tests can assert it.
"""

from __future__ import annotations

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
from repro.journal import replay_block_win
from repro.journal.recovery import RecoveryReport, recover
from repro.cluster.ring import HashRing
from repro.cluster.shard import ClusterShard, ShardState
from repro.serve.admission import ServeRequest, ensure_seq_at_least
from repro.serve.service import ServeResult, ServeTicket, restart_seq_floor

#: Beats per ROUTER_PARTITION decision window (the fault plan decides
#: once per window whether the router loses sight of a shard, and the
#: outage then covers the first ``partition_beats`` beats of it).
PARTITION_WINDOW_BEATS = 8

#: Work stealing: the queue depth at which a shard becomes a victim, and
#: the most requests one detector round moves off it.
STEAL_MIN_BACKLOG = 2
STEAL_BATCH = 2


@dataclass
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


def _settle_admit_best_effort(journal: Any, seq: int, status: str) -> None:
    """Mark an admit applied, tolerating a journal that died mid-restore.

    Restore itself re-admits requests, and a re-admission's admit write
    can tear the *home* journal (poisoning it). Settling the old admit
    on that journal is pure bookkeeping: if the write is refused, the
    admit simply stays sealed and the next restore deduplicates it the
    same way — so losing the settle loses nothing.
    """
    try:
        journal.mark_applied(seq, status=status)
    except JournalCrash:
        pass


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
        #: shard: when a takeover re-land finds *no* surviving candidate
        #: (e.g. every remote shard unreachable), the router adopts one
        #: local spare and retries — the ``remote`` row of
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
        shard.service.on_resolve = self._on_shard_resolve
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
                shard.service.stop()
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
        floor = 1
        for sid, journal in items:
            report.recoveries[sid] = recover(
                journal, gates=gates, fault_plan=fault_plan,
                defer_kinds=("admit", "block"),
            )
            floor = max(floor, restart_seq_floor(journal))
        ensure_seq_at_least(floor)
        report.seq_floor = floor

        shards = [
            ClusterShard(sid, journal=journal, journal_admission=True,
                         **shard_kwargs)
            for sid, journal in items
        ]
        router = cls(shards, **kwargs)
        router.start(detect=detect)

        # dedupe sealed admits across journals: exactly one incarnation
        # of each request survives restore
        pending: dict[int, tuple[int, Any, dict]] = {}
        for sid, journal in items:
            for intent in journal.sealed_unapplied_intents("admit"):
                rseq = intent["data"]["request"]
                if rseq in pending:
                    _settle_admit_best_effort(
                        journal, intent["seq"], "superseded")
                    report.superseded.append(rseq)
                    continue
                pending[rseq] = (sid, journal, intent)

        for rseq, (sid, journal, intent) in sorted(pending.items()):
            data = intent["data"]
            tenant = data.get("tenant", "?")
            won = next(
                ((wsid, outcome) for wsid, wjournal in items
                 if (outcome := replay_block_win(wjournal, rseq)) is not None),
                None,
            )
            if won is not None:
                # applied somewhere (possibly a takeover survivor):
                # replay the durable value, never re-run
                wsid, outcome = won
                _settle_admit_best_effort(
                    journal, intent["seq"],
                    "recovered" if wsid == sid else "recovered-remote",
                )
                report.replayed.append(rseq)
                report.results[rseq] = _replayed_result(
                    tenant, rseq, wsid, outcome
                )
                router._count(router._failover_c, mode="replayed")
                continue
            spec = data.get("spec")
            if build_alternatives is None or spec is None:
                _settle_admit_best_effort(
                    journal, intent["seq"], "unrecoverable")
                report.dropped.append(rseq)
                continue
            try:
                rec = router._accept(
                    ServeRequest.from_admit(data, build_alternatives(spec))
                )
            except (AdmissionRejected, NoSurvivingShard, JournalCrash):
                # leave the admit sealed: a later restore retries it (a
                # JournalCrash here is an injected crash on the *new*
                # admit write — the durable old admit still covers it)
                continue
            report.re_admitted.append(rseq)
            report.tickets[rseq] = rec.ticket
            # if placement landed away from home, the new shard sealed
            # its own admit; settle the old one so only one copy of the
            # request survives the *next* restart too
            if rec.shard_id != sid and journal.status(intent["seq"]) == "sealed":
                _settle_admit_best_effort(
                    journal, intent["seq"], "superseded")
        if obs is not None:
            obs.registry.counter(
                "mw_restores_total", "Cold restarts completed from a journal",
                labelnames=("layer",),
            ).inc(layer="cluster")
            obs.tracer.instant(
                "cluster.restore", cat="cluster", track="cluster",
                shards=len(items), replayed=len(report.replayed),
                re_admitted=len(report.re_admitted),
                superseded=len(report.superseded),
                dropped=len(report.dropped), seq_floor=floor,
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
        """Register ``request`` and place it; unregister if placement raises."""
        rec = _Inflight(request, ClusterTicket(request.tenant, request.seq))
        with self._lock:
            self._inflight[request.seq] = rec
        try:
            self._place(rec)
        except BaseException:
            with self._lock:
                self._inflight.pop(request.seq, None)
            raise
        return rec

    def _candidates(self, tenant: str, exclude: set[int]) -> list[ClusterShard]:
        with self._lock:
            order = self.ring.preference(tenant) if len(self.ring) else []
            return [
                self._shards[sid]
                for sid in order
                if sid not in exclude
                and sid in self._shards
                and self._shards[sid].up
            ]

    def _pick(self, tenant: str, exclude: set[int]) -> tuple[ClusterShard, ClusterShard | None]:
        """(target, spill_source): preference walk plus the spill move."""
        candidates = self._candidates(tenant, exclude)
        if not candidates:
            raise NoSurvivingShard(
                f"no live shard for tenant {tenant!r} "
                f"({len(self._shards)} members)"
            )
        home = candidates[0]
        if self.spill and home.idle_slots() == 0 and home.backlog() > 0:
            for other in candidates[1:]:
                if other.idle_slots() > 0 and other.backlog() == 0:
                    return other, home
        return home, None

    def _place(self, rec: _Inflight, exclude: set[int] | None = None) -> None:
        """Land ``rec`` on a live shard; walk candidates on refusal."""
        exclude = set() if exclude is None else set(exclude)
        last_rejection: AdmissionRejected | None = None
        seq, tenant = rec.request.seq, rec.request.tenant
        while True:
            target, spilled_from = self._pick(tenant, exclude)
            try:
                target.service.admit(rec.request)
            except (AdmissionRejected, ServiceStopped, ShardUnreachable) as exc:
                # ShardUnreachable — a remote shard's transport gave up
                # (retries exhausted or breaker open) — walks on exactly
                # like a stopped service; the detector independently
                # escalates the silent shard toward takeover
                if isinstance(exc, AdmissionRejected):
                    last_rejection = exc
                exclude.add(target.shard_id)
                if not self._candidates(tenant, exclude):
                    if last_rejection is not None:
                        raise last_rejection
                    raise NoSurvivingShard(
                        f"request {seq}: every candidate shard is down"
                    )
                continue
            except JournalCrash:
                # the admit write crashed the target shard's journal:
                # that shard's process is dead (a torn write poisons its
                # WAL). But the request was already queued there and may
                # have raced through a worker — crash() joins the
                # workers, making the journal final, and the durable win
                # (if any) decides between replay and re-land. Without
                # the check, a re-land would run the block twice.
                target.crash()
                self._count(self._takeover_c, kind="journal-crash")
                outcome = replay_block_win(target.journal, seq)
                if outcome is not None:
                    self._settle_replayed(rec, target.shard_id, outcome)
                    return
                exclude.add(target.shard_id)
                if not self._candidates(tenant, exclude):
                    raise NoSurvivingShard(
                        f"request {seq}: every candidate shard is down"
                    )
                continue
            with self._lock:
                rec.shard_id = target.shard_id
            self._count(self._req_c, shard=target.shard_id)
            if spilled_from is not None:
                self._count(
                    self._spill_c,
                    src=spilled_from.shard_id, dst=target.shard_id,
                )
            return

    def _place_or_spare(
        self, rec: _Inflight, exclude: set[int] | None = None
    ) -> bool:
        """:meth:`_place`, degrading remote → local when nothing is left.

        Every failover-side re-placement (takeover re-land, steal
        re-place, shutdown-shed re-route) shares the same last rung: if
        every candidate shard is down — e.g. the whole remote fleet died
        between picking a target and landing on it — adopt the
        in-process spare and retry once instead of failing a request the
        cluster already accepted. Returns True iff the spare rung fired.
        """
        try:
            self._place(rec, exclude=exclude)
            return False
        except NoSurvivingShard:
            if self._ensure_spare() is None:
                raise
            self._place(rec, exclude=exclude)
            return True

    def _settle_replayed(
        self, rec: _Inflight, shard_id: int, outcome: BlockOutcome
    ) -> None:
        """Settle ``rec`` from a durable journalled win (exactly-once).

        Used when a shard died with the request's ``block`` transaction
        already applied in its journal: the value is replayed, never
        re-run — by :meth:`takeover` and by the placement-walk crash
        paths alike (:meth:`restore`, which has no ticket to settle,
        builds the same result).
        """
        rec.shard_id = shard_id
        rec.failover = "replayed"
        self._count(self._failover_c, mode="replayed")
        self._resolve(rec, _replayed_result(
            rec.request.tenant, rec.request.seq, shard_id, outcome, rec.attempts
        ))

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

    def _on_shard_resolve(self, request, result: ServeResult) -> None:
        """Shard-level resolution hook (runs on shard worker threads)."""
        with self._lock:
            rec = self._inflight.get(request.seq)
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
        rec.attempts += 1
        rec.failover = rec.failover or "rerouted"
        self._count(self._failover_c, mode="rerouted")
        try:
            self._place_or_spare(rec, exclude={rec.shard_id})
        except (AdmissionRejected, NoSurvivingShard) as exc:
            self._settle(rec, "failed", f"re-route failed: {exc}")

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
            stolen = busy.service.steal_requests(STEAL_BATCH)
        except ShardUnreachable:
            return 0  # busy shard went silent; the detector handles it
        for request in stolen:
            with self._lock:
                rec = self._inflight.get(request.seq)
            if rec is None:
                continue  # resolved while being stolen; drop the copy
            rec.attempts += 1
            try:
                target.service.admit(rec.request)
            except (
                AdmissionRejected, ServiceStopped, ShardUnreachable,
                JournalCrash,
            ) as refusal:
                if isinstance(refusal, JournalCrash):
                    # the thief's journal died taking the admit: the
                    # thief is a dead process, and the stolen request
                    # may already have raced through it (see _place)
                    target.crash()
                    outcome = replay_block_win(target.journal, request.seq)
                    if outcome is not None:
                        # the value is durable on the thief's journal:
                        # the source's sealed admit can close now
                        try:
                            busy.service.confirm_stolen(request)
                        except ShardUnreachable:
                            pass  # source silent; takeover settles its admit
                        self._settle_replayed(rec, target.shard_id, outcome)
                        moved += 1
                        continue
                # target refused after all: put it back through the
                # generic placement walk (home first)
                try:
                    self._place_or_spare(rec)
                except (AdmissionRejected, NoSurvivingShard) as exc:
                    self._settle(rec, "failed", f"steal re-place failed: {exc}")
                continue
            # the thief's admit is sealed: only now is the hand-off
            # durable, so only now may the source close its ledger line
            # (the reverse order would lose the request if the thief's
            # admit write tore — no durable admit anywhere)
            try:
                busy.service.confirm_stolen(request)
            except ShardUnreachable:
                # the source went silent *after* the hand-off became
                # durable on the thief: exactly-once still holds (only
                # the thief runs the block) and the source's unresolved
                # admit is settled by its eventual takeover
                pass
            with self._lock:
                rec.shard_id = target.shard_id
            self._count(
                self._steal_c, src=busy.shard_id, dst=target.shard_id
            )
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
        with self._lock:
            shard = self._shards.get(shard_id)
            if shard is None:
                return {
                    "shard": shard_id, "kind": kind, "stale": True,
                    "replayed": 0, "relanded": 0, "failed": 0,
                }
            # membership removal under the lock is the idempotence gate:
            # exactly one caller gets to run the takeover body
            self.ring.remove(shard_id)
            self._shards.pop(shard_id)
            self._retired.append(shard)
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
        # 3. settle every admitted-but-unresolved request it held
        with self._lock:
            orphans = [
                (seq, rec) for seq, rec in self._inflight.items()
                if rec.shard_id == shard_id
            ]
        replayed = relanded = failed = 0
        for seq, rec in orphans:
            outcome = replay_block_win(shard.journal, seq)
            if outcome is not None:
                replayed += 1
                self._settle_replayed(rec, shard_id, outcome)
                continue
            # never applied anywhere: re-land on the next preference
            rec.attempts += 1
            rec.failover = "relanded"
            mode = "relanded"
            try:
                # remote → local degradation: when every candidate is
                # gone (e.g. the whole remote fleet is unreachable), the
                # helper adopts an in-process spare and retries once —
                # the cluster-level rung of fork → thread → sequential
                if self._place_or_spare(rec, exclude={shard_id}):
                    mode = "spare"
            except (AdmissionRejected, NoSurvivingShard) as exc:
                failed += 1
                self._count(self._failover_c, mode="lost")
                self._settle(rec, "failed", f"re-land failed: {exc}")
                continue
            relanded += 1
            self._count(self._failover_c, mode=mode)
        if span_id >= 0:
            self.obs.tracer.end(
                span_id, disposition="committed",
                replayed=replayed, relanded=relanded, failed=failed,
            )
        return {
            "shard": shard_id, "kind": kind, "stale": False,
            "replayed": replayed, "relanded": relanded, "failed": failed,
        }

    # -- auditing ----------------------------------------------------------
    def journals(self) -> list:
        """Every journal the cluster ever owned (members + retired)."""
        with self._lock:
            shards = list(self._shards.values()) + list(self._retired)
        seen: set[int] = set()
        out = []
        for shard in shards:
            if id(shard.journal) not in seen:
                seen.add(id(shard.journal))
                out.append(shard.journal)
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
