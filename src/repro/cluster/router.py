"""The cluster router: consistent-hash placement, spill, failover.

:class:`ClusterRouter` is the traffic director over N shards, reached
only through the flat shard surface — ``admit`` (it returns the
request's ticket) plus lifecycle, the same names on
:class:`~repro.cluster.shard.ClusterShard` and
:class:`~repro.cluster.remote.RemoteShardClient`. Placement walks the
live members in order of how many of this router's requests stand on
each, fewest first: **spill**. The count is the router's own, kept
beside its request table, so it is current at every landing and costs
no RPC. The sort is stable over the
:class:`~repro.cluster.ring.HashRing` preference order, so ties go to
the ring and an idle cluster lands every tenant on its home. A landing
off the home is counted ``mw_cluster_spills_total{src,dst}``. Once
landed, a request moves only through a takeover.

**One landing path, one rule.** A request commits iff its ``block``
transaction applies in exactly one shard journal, and what keeps it so
is that *a request leaves a shard it may have reached only through that
shard's ledger*. Every way a request comes to rest — fresh submit,
takeover re-land, restore re-admit — is :meth:`ClusterRouter._land`:
one walk of the live members in that order. What a target says is
either

- *no* (``AdmissionRejected``, ``ServiceStopped``) or *never reached*
  (``ShardUnreachable`` with ``sent=False``: dead state, connects
  refused) — it cannot run the request: walk on; or
- *outcome unknown* (``JournalCrash``, or ``ShardUnreachable`` once a
  frame may have left) — it may yet run it, so it is taken over first:
  crashed, its workers joined or its process killed (nothing it had only
  queued ever runs), its journal final. A win found there is replayed,
  never re-run; only a final ledger without one lets the walk go on.

The walk ends ``landed``, ``replayed``, or in its last
``AdmissionRejected`` / ``NoSurvivingShard``.

The failure detector beats every shard once per round and keeps one
number per shard: its consecutive misses, counted in beats. A shard is
suspected exactly while that count is above zero; the detector never
writes a shard's state. Faults come from the ``heartbeat`` site (a
beat lost in flight, which the probe that follows rescues) and the
``cluster`` site (shard-crash-mid-burst, partitioned router, stale
takeover). :data:`MISS_THRESHOLD` misses in a row start a **takeover**:

1. the shard is crashed — if the process is actually alive (the
   false-positive case) it must stop committing, and the crash enforces
   it: SIGKILL for a host, a crash of the service for a local shard —
   and its worker threads are joined, so its journal is final;
2. every admitted-but-unresolved request assigned to it follows the same
   rule: *replayed* from the journal if its ``block`` already applied,
   otherwise *re-landed* — same path, **same request seq**, so the
   journal block id dedupes any duplicate — on a surviving shard.

A takeover is also the one way out of the membership: a decommissioned
shard first serves what it accepted, then leaves through it, so a host
that dies mid-drain is settled from its journal like any other.
Duplicate takeovers are suppressed because membership removal under the
router lock is the single point of entry. :meth:`audit_applied`
recomputes the per-seq applied count across every journal the cluster
ever owned so benches and fuzz tests can assert it.
"""

from __future__ import annotations

import collections
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.outcome import BlockOutcome
from repro.errors import (
    AdmissionRejected,
    ClusterError,
    JournalCrash,
    NoSurvivingShard,
    ServiceStopped,
    ShardUnreachable,
)
from repro.faults.plan import CLUSTER_SITE, FaultKind, heartbeat_lost
from repro.journal import replay_block_win, request_fate, settle
from repro.journal.recovery import RecoveryReport, recover
from repro.obs import or_null
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

#: The failure detector: consecutive missed beats that declare a shard
#: dead, and the real seconds between the background detector's rounds.
MISS_THRESHOLD = 3
DETECT_INTERVAL_S = 0.01


@dataclass(slots=True)
class ClusterResult:
    """What became of one cluster request.

    ``failover`` records how the result was obtained: ``""`` (served in
    place), ``"replayed"`` (recovered from a dead shard's journal) or
    ``"relanded"`` (re-run on a survivor). ``result`` is the underlying
    shard-level :class:`~repro.serve.service.ServeResult` when one exists.
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
    #: duplicate sealed admits (re-land races) settled without a run.
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
    spill:
        Land each request on the live member with the fewest of this
        router's requests outstanding (ties in ring order). Tests set
        False to pin every request to its ring order.
    fault_plan / obs:
        Shared robustness planes. The plan's ``cluster`` site drives
        shard-crash/partition/stale-takeover injection; ``obs`` gains
        the ``mw_cluster_*`` family and ``cat="cluster"`` failover
        spans.
    """

    def __init__(
        self,
        shards: Sequence[ClusterShard],
        spill: bool = True,
        fault_plan=None,
        obs=None,
    ) -> None:
        if not shards:
            raise ClusterError("a cluster needs at least one shard")
        ids = [s.shard_id for s in shards]
        if len(set(ids)) != len(ids):
            raise ClusterError(f"duplicate shard ids: {sorted(ids)}")
        self.spill = spill
        self.fault_plan = fault_plan
        self.obs = obs = or_null(obs)
        self.ring = HashRing()
        self._shards: dict[int, ClusterShard] = {}
        self._retired: list[ClusterShard] = []
        #: the one per-request table: whoever pops a record resolves it
        self._inflight: dict[int, _Inflight] = {}
        #: the table's records by the shard they stand on (-1: in transit)
        self._outstanding: collections.Counter[int] = collections.Counter()
        self._lock = threading.Lock()
        self._running = False
        self._beat = 0
        #: the failure detector: each member's consecutive missed beats
        self._misses: dict[int, int] = {}
        self._detector: threading.Thread | None = None
        reg = obs.registry
        self._req_c = reg.counter(
            "mw_cluster_requests_total", "Requests placed, by shard",
            labelnames=("shard",),
        )
        self._spill_c = reg.counter(
            "mw_cluster_spills_total",
            "Requests landed off their tenant's ring home",
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
        if fault_plan is not None:
            obs.watch_fault_plan(fault_plan)
        for shard in shards:
            self._adopt(shard)

    def _set_up_gauge(self) -> None:
        self._up_g.set(float(sum(1 for s in self._shards.values() if s.up)))

    # -- membership --------------------------------------------------------
    def _adopt(self, shard: ClusterShard) -> None:
        with self._lock:
            self._shards[shard.shard_id] = shard
            self._misses[shard.shard_id] = 0
            self.ring.add(shard.shard_id)
        if self._running:
            shard.start()
        self._set_up_gauge()

    def add_shard(self, shard: ClusterShard) -> None:
        """Scale out (or rejoin after a takeover, as a fresh incarnation)."""
        if shard.shard_id in self._shards:
            raise ClusterError(f"shard {shard.shard_id} is already a member")
        self._adopt(shard)

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
                "members": [
                    {
                        **s.snapshot(), "misses": self._misses[s.shard_id],
                        "outstanding": self._outstanding[s.shard_id],
                    }
                    for s in self._shards.values()
                ],
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

        ``stop()`` must never leak a dangling detector: a
        thread still pinging shards after shutdown keeps sockets (and
        whole shard-host processes) alive. The loop re-checks
        ``_running`` every :data:`DETECT_INTERVAL_S`, so a healthy detector
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
        # what a timed-out drain or a host dead mid-drain left fails
        with self._lock:
            leftovers = list(self._inflight.values())
        for rec in leftovers:
            self._settle(rec, "cancelled", "cluster stopped")

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
            self._outstanding.clear()

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
        5. duplicate sealed admits for one seq (re-land races cut down
           mid-flight) are deduplicated: one re-admission, the rest
           settled ``superseded``;
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
                    settle(journal, intent["seq"], "superseded")
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
            settle(
                journal, intent["seq"],
                "recovered" if journals[wsid] is journal else "recovered-remote",
            )
            report.replayed.append(rseq)
            report.results[rseq] = _replayed_result(
                intent["data"].get("tenant", "?"), rseq, wsid, outcome
            )
            router._failover_c.inc(mode="replayed")
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
            if journals.get(rec.shard_id) is not journal:
                settle(journal, intent["seq"], "superseded")
        note_restore(
            router.obs, "cluster", cat="cluster", track="cluster",
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
        deadline_s: float | None = None,
        timeout: float | None = None,
        seq: int | None = None,
        spec: Any = None,
    ) -> ClusterTicket:
        """Place one request on the live shard holding the fewest of this
        router's requests (ties in the tenant's ring order).

        Builds the :class:`~repro.serve.admission.ServeRequest` (see its
        fields) that every layer below passes on as is. Raises
        :class:`~repro.errors.WorldsError` on a bad alternative list,
        :class:`~repro.errors.AdmissionRejected` when every candidate
        shard refuses it (cluster-level backpressure, with the largest
        ``retry_after_s`` hint seen),
        :class:`~repro.errors.NoSurvivingShard` when no shard is up and
        :class:`~repro.errors.ClusterError` when ``seq`` is already in
        flight — with nothing left registered in every case.

        ``seq`` re-admits a request under its original cluster-unique
        seq (and hence journal block id). ``spec`` is the picklable
        request description journalled by shards running with
        ``journal_admission`` (what makes the request rebuildable after
        a whole-cluster crash).
        """
        if not self._running:
            raise ServiceStopped("cluster is not running (call start())")
        return self._accept(ServeRequest.build(
            tenant, alternatives, initial=initial, deadline_s=deadline_s,
            timeout=timeout, seq=seq, spec=spec,
        )).ticket

    def _accept(self, request: ServeRequest) -> _Inflight:
        """Register ``request`` and land it; unregister if landing raises."""
        rec = _Inflight(request, ClusterTicket(request.tenant, request.seq))
        with self._lock:
            if request.seq in self._inflight:
                raise ClusterError(f"request seq {request.seq} is already in flight")
            self._inflight[request.seq] = rec
            self._outstanding[rec.shard_id] += 1
        try:
            self._land(rec)
        except BaseException:
            with self._lock:
                self._unregister(rec)
            raise
        return rec

    def _stand(self, rec: _Inflight, shard_id: int) -> None:
        """Stand ``rec`` on ``shard_id`` (-1: in transit), keeping
        ``_outstanding`` a count of the table by shard. The caller holds
        the lock; a record no longer in the table counts nowhere."""
        if self._inflight.get(rec.request.seq) is rec:
            self._outstanding[rec.shard_id] -= 1
            self._outstanding[shard_id] += 1
        rec.shard_id = shard_id

    def _unregister(self, rec: _Inflight) -> bool:
        """Take ``rec`` out of the table, if it is still there (the caller
        holds the lock); True when this call took it."""
        if self._inflight.get(rec.request.seq) is not rec:
            return False
        del self._inflight[rec.request.seq]
        self._outstanding[rec.shard_id] -= 1
        return True

    def _land(self, rec: _Inflight, exclude=()) -> str:
        """Bring ``rec`` to rest: the one landing path (module docstring).

        One walk of the live members minus ``exclude``: with spill on,
        fewest outstanding requests first, ties in the tenant's ring
        order; with it off, ring order alone. A concurrent submit that
        read the counts before this one lands costs balance, never
        correctness. Returns ``"landed"`` or ``"replayed"``; raises the
        last :class:`AdmissionRejected` seen, or
        :class:`NoSurvivingShard`, when nobody took it.
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
            home = order[0].shard_id if order else -1
            if self.spill:
                order.sort(key=lambda s: self._outstanding[s.shard_id])

        rejection: AdmissionRejected | None = None
        for target in order:
            if not target.up:
                continue  # taken over since the walk
            ticket = None
            try:
                ticket = target.admit(request)
            except (
                AdmissionRejected, ServiceStopped, ShardUnreachable, JournalCrash,
            ) as exc:
                if isinstance(exc, AdmissionRejected):
                    rejection = exc
                if not (isinstance(exc, JournalCrash) or getattr(exc, "sent", False)):
                    continue
                self.takeover(target.shard_id, kind="admit-unknown")
            with self._lock:
                # a takeover pops the target before it claims its orphans,
                # so one that popped it since the admit returned missed
                # this request
                stood = (
                    ticket is not None
                    and self._shards.get(target.shard_id) is target
                )
                if stood:
                    self._stand(rec, target.shard_id)
            if not stood:
                # outcome unknown (the target's journal died under its
                # admit, the frame left unanswered, or a takeover popped
                # the target under it): it leaves only through the
                # target's ledger. crash() also waits out a takeover
                # another thread began
                target.crash()
                if self._replay_from(rec, target):
                    return "replayed"
                rec.attempts += 1
                rec.failover = "relanded"
                continue
            self._req_c.inc(shard=target.shard_id)
            if target.shard_id != home:
                self._spill_c.inc(src=home, dst=target.shard_id)
            # at rest first: a ticket already resolved settles right here
            ticket.add_done_callback(
                functools.partial(self._on_shard_resolve, target.shard_id)
            )
            return "landed"
        raise rejection or NoSurvivingShard(
            f"request {request.seq} (tenant {request.tenant!r}): every "
            f"candidate shard is down ({len(self._shards)} members)"
        )

    def _reland(self, rec: _Inflight, exclude=()) -> str:
        """:meth:`_land` for a request a takeover claimed: ``landed`` /
        ``replayed``, or ``failed`` — settled as such — when the walk
        ends with nobody taking it."""
        rec.attempts += 1
        rec.failover = "relanded"
        try:
            return self._land(rec, exclude)
        except (AdmissionRejected, NoSurvivingShard) as exc:
            self._settle(rec, "failed", f"re-land failed: {exc}")
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
        with self._lock:
            self._stand(rec, shard.shard_id)
        rec.failover = "replayed"
        self._failover_c.inc(mode="replayed")
        self._resolve(rec, _replayed_result(
            rec.request.tenant, rec.request.seq, shard.shard_id, outcome,
            rec.attempts,
        ))
        return True

    # -- resolution --------------------------------------------------------
    def _settle(
        self, rec: _Inflight, status: str, reason: str,
        result: ServeResult | None = None, at=None,
    ) -> None:
        """Resolve ``rec`` as ``status`` where it stands — if ``at`` is
        given, only while it still stands on shard ``at``."""
        self._resolve(rec, ClusterResult(
            status=status, tenant=rec.request.tenant, seq=rec.request.seq,
            shard_id=rec.shard_id, failover=rec.failover,
            attempts=rec.attempts, reason=reason, result=result,
        ), at)

    def _resolve(self, rec: _Inflight, result: ClusterResult, at=None) -> None:
        """Take ``rec`` out of the table and resolve its ticket — once:
        only the caller that finds it still registered (on shard ``at``,
        if given) resolves, and only after releasing the lock, so a
        ticket callback never holds up another thread's submit."""
        with self._lock:
            if (at is not None and rec.shard_id != at) or not self._unregister(rec):
                return
        rec.ticket._resolve(result)

    def _on_shard_resolve(self, shard_id: int, result: ServeResult) -> None:
        """A shard ticket's callback (on the shard's resolving thread):
        it settles the request only while it still stands on that shard."""
        with self._lock:
            rec = self._inflight.get(result.seq)
        if rec is not None:  # None: a takeover settled it first, or foreign
            self._settle(rec, result.status, result.reason, result, at=shard_id)

    # -- failure detection -------------------------------------------------
    def _detector_loop(self) -> None:
        while self._running:
            try:
                self.heartbeat_round()
            except Exception:  # noqa: BLE001 - the detector never dies
                pass
            time.sleep(DETECT_INTERVAL_S)

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
        if offset == 0 or beat == 1:  # the first beat it hides (beats count from 1)
            plan.note_injection(
                CLUSTER_SITE, decision.kind,
                detail=f"router blind to shard {shard_id} for "
                f"{int(decision.param)} beats",
                track="cluster", shard=shard_id, beat=beat,
            )
        return True

    def heartbeat_round(self) -> None:
        """One failure-detector beat over every member shard.

        A beat arrives when the shard answers and no ``ROUTER_PARTITION``
        window hides it. One lost in flight (``heartbeat`` site) still
        counts in ``mw_cluster_heartbeat_misses_total``, but the probe
        that follows finds the shard, so it arrives. An arriving beat
        resets the shard's miss count, clearing suspicion; a missing one
        adds a miss, and :data:`MISS_THRESHOLD` misses in a row start a
        takeover.
        """
        self._beat += 1
        beat = self._beat
        for shard in list(self._shards.values()):
            sid = shard.shard_id
            # a DEAD member is exactly what this loop exists to notice (the
            # process died without telling anyone); only a shard mid-drain
            # is exempt — decommission owns its lifecycle — and one another
            # thread took over since the list was read
            if (
                shard.state is ShardState.DRAINING
                or self._shards.get(sid) is not shard
            ):
                continue
            # one real beat: local shards answer by state, remote shards
            # by an actual ping RPC; this miss count is a shard's only
            # failure state
            answering = shard.answers_heartbeat()
            partitioned = self._router_partitioned(sid, beat)
            if answering and not partitioned:
                lost = heartbeat_lost(
                    self.fault_plan, sid, beat, track="cluster", shard=sid
                )
                if lost:
                    self._miss_c.inc(shard=sid)
                if self._misses[sid]:
                    self._misses[sid] = 0
                    self.obs.tracer.instant(
                        "shard:recovered", cat="cluster", track="cluster",
                        beat=beat, shard=sid,
                    )
                if not lost:
                    self._maybe_stale_takeover(shard)
                continue
            self._miss_c.inc(shard=sid)
            misses = self._misses[sid] = self._misses[sid] + 1
            reason = "shard dead" if not answering else "router partitioned"
            if misses == 1:
                self.obs.tracer.instant(
                    "shard:suspect", cat="cluster", track="cluster",
                    beat=beat, shard=sid, reason=reason,
                )
            if misses >= MISS_THRESHOLD:
                self.takeover(
                    sid, kind="crash" if not shard.alive else "stale",
                    reason=f"{misses} consecutive misses ({reason})",
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
            track="cluster", shard=shard.shard_id, beat=self._beat,
        )
        self.takeover(shard.shard_id, kind="stale", reason="stale takeover (injected)")

    # -- failover ----------------------------------------------------------
    def kill_shard(self, shard_id: int) -> None:
        """Crash a member shard (bench/test injection entry point)."""
        shard = self.shard(shard_id)
        if self.fault_plan is not None:
            self.fault_plan.note_injection(
                CLUSTER_SITE, FaultKind.SHARD_CRASH,
                detail=f"shard {shard_id} killed",
                track="cluster", shard=shard_id,
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
        """Gracefully remove a shard: it keeps what it accepted.

        The shard drains — no walk lands on it and the detector skips
        it while it serves its backlog — and then leaves through
        :meth:`takeover`, the one exit from membership. Normally that
        only retires it; if the host died mid-drain, the takeover
        replays what already won and re-lands the rest.
        """
        self.shard(shard_id).stop()
        self.takeover(shard_id, kind="decommission")

    def takeover(self, shard_id: int, kind: str = "crash", reason: str = "") -> dict:
        """Take over a (declared-)dead or decommissioned shard; idempotent
        per incarnation.

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
        self._takeover_c.inc(kind=kind)
        span_id = self.obs.tracer.begin(
            f"takeover:shard:{shard_id}", cat="cluster", track="cluster",
            shard=shard_id, kind=kind, beat=self._beat, reason=reason,
        )
        # 1. crash the shard and join its workers: the journal is final
        #    after this, which is what makes step 2 race-free
        shard.crash()
        # 2. settle every admitted-but-unresolved request it held: the
        #    ledger first, and only what never applied lands again —
        #    claimed here (in transit, this thread's to land), so the
        #    shard's late reports and a concurrent takeover pass them by
        with self._lock:
            orphans = [
                rec for rec in self._inflight.values()
                if rec.shard_id == shard_id
            ]
            for rec in orphans:
                self._stand(rec, -1)
        for rec in orphans:
            if self._replay_from(rec, shard):
                report["replayed"] += 1
                continue
            verdict = self._reland(rec, exclude={shard_id})
            report["relanded" if verdict == "landed" else verdict] += 1
            if verdict != "replayed":
                self._failover_c.inc(
                    mode="lost" if verdict == "failed" else "relanded"
                )
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
