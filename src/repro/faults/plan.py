"""The deterministic fault-injection plan.

A :class:`FaultPlan` answers one question — "does a fault fire at this
*site* for this *key*, and which one?" — as a pure function of the plan's
seed. Each (site, key) pair gets its own derived RNG stream
(``numpy`` ``default_rng`` seeded with ``[seed, crc32(site), *key]``;
numpy is imported at a plan's first decision), so

- the schedule is identical across runs and across processes (a forked
  child computes the same decision its parent would);
- decisions are independent of the *order* sites are queried in — a race
  between real children cannot perturb which of them is doomed;
- distinct attempts of the same alternative re-roll (the attempt number
  is part of the key), which is what lets a supervisor's retry spares
  make progress under a constant fault rate.

Sites and their injectable kinds:

========== ==================================================================
site       fault kinds
========== ==================================================================
child      CRASH, HANG, SLOW_START, TRUNCATE_REPORT, CORRUPT_REPORT,
           GUARD_EXCEPTION — keyed ``(block_id, index, attempt)``
spawn      SPAWN_FAIL (simulated ``EAGAIN``) — keyed ``(block_id, index,
           attempt)``
kill       KILL_FAIL (first signal to the child is lost; the backend must
           verify death and resend) — keyed ``(block_id, index, attempt)``
message    MSG_DROP, MSG_DELAY — keyed ``(msg_id,)`` (simulation kernel)
compute    STALL (extra virtual seconds) — keyed ``(wid, op_number)``
           (simulation kernel)
heartbeat  HEARTBEAT_MISS (one heartbeat is lost in flight even though
           the holder is alive) — keyed ``(holder_id, beat_index)``: a
           shard id under the cluster router
journal    TORN_RECORD, CRASH_BEFORE_SEAL, CRASH_AFTER_SEAL,
           PARTIAL_RELEASE — keyed ``(txn_seq,)`` (the commit journal);
           DOUBLE_RECOVERY — keyed ``(RECOVERY_KEY,)`` (the recovery
           pass itself runs twice, proving idempotence)
serve      REQUEST_BURST (the submit arrives as ``burst_n`` copies — a
           client retry storm), SLOW_TENANT (the request costs
           ``slow_tenant_s`` extra worker seconds) — keyed
           ``(crc32(tenant), request_seq)`` (the speculation service)
cluster    SHARD_CRASH (one service shard dies partway through a burst,
           at ``shard_crash_fraction`` of the phase) — keyed
           ``(shard_id, epoch)``; ROUTER_PARTITION (the router cannot
           see a live shard's heartbeats for ``partition_beats`` beats)
           — keyed ``(shard_id, window)``; STALE_TAKEOVER (a takeover
           is initiated for a shard that is not actually dead — the
           idempotence probe) — keyed ``(shard_id, beat)``
snapshot   TORN_SNAPSHOT (the snapshot record is half-written, then the
           process dies), COMPACTION_CRASH (the process dies after the
           compaction snapshot is durable but before the WAL rewrite)
           — keyed ``(snapshot_index,)`` (the journal lifecycle)
chaos      COLD_RESTART (the whole service/cluster process-state dies
           and must restart from its journals) — keyed
           ``(episode, step)`` (the chaos soak harness)
asyncio    SLOW_TASK (the task awaits ``slow_task_s`` extra before
           running), CANCEL_IGNORED (the task swallows cancellation and
           lingers ``cancel_ignore_s`` before dying — a misbehaved
           coroutine), LOOP_STALL (the task blocks the event loop
           synchronously for ``loop_stall_s`` — a GIL-style stall every
           sibling feels) — keyed ``(block_id, index, attempt)`` (the
           asyncio backend)
========== ==================================================================

A subclass may add sites of its own: it extends :attr:`FaultPlan.site_kinds`
with them and :attr:`FaultPlan.magnitudes` with their kinds' knobs, and
its plans accept those kinds as ``rates`` keys. The 1989 network model
(``benchmarks/netmodel``) adds its link, partition and remote sites so.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class FaultKind(str, enum.Enum):
    """One injectable failure mode."""

    #: child dies before writing any report (fork: ``_exit``; thread: raise)
    CRASH = "crash-before-report"
    #: child stalls indefinitely (until a watchdog or timeout kills it)
    HANG = "hang"
    #: child starts late by ``slow_start_s`` (models a loaded machine)
    SLOW_START = "slow-start"
    #: fork backend: report header promises more bytes than arrive
    TRUNCATE_REPORT = "truncated-report"
    #: fork backend: report body is garbage of the advertised length
    CORRUPT_REPORT = "corrupt-report"
    #: the guard raises instead of returning a verdict
    GUARD_EXCEPTION = "guard-exception"
    #: spawning the world fails (simulated ``EAGAIN``/``BlockingIOError``)
    SPAWN_FAIL = "spawn-fail"
    #: the first kill signal to a child is lost (lingering would-be zombie)
    KILL_FAIL = "kill-fail"
    #: simulation kernel: the message never arrives
    MSG_DROP = "msg-drop"
    #: simulation kernel: delivery is delayed by ``msg_delay_s``
    MSG_DELAY = "msg-delay"
    #: simulation kernel: a costed op takes ``stall_s`` extra virtual time
    STALL = "stall"
    #: failure detector: a heartbeat is lost even though the holder is alive
    HEARTBEAT_MISS = "heartbeat-miss"
    #: journal: the intent record is half-written, then the process dies
    TORN_RECORD = "torn-record"
    #: journal: intent durable, crash before the seal record lands
    CRASH_BEFORE_SEAL = "crash-before-seal"
    #: journal: seal durable, crash before the apply phase runs
    CRASH_AFTER_SEAL = "crash-after-seal"
    #: journal: the device-release loop dies after releasing only some
    #: of a sealed transaction's effects
    PARTIAL_RELEASE = "partial-release"
    #: journal: the recovery pass runs twice (it must be idempotent)
    DOUBLE_RECOVERY = "double-recovery"
    #: serve: a misbehaving client resubmits the same request as a burst
    #: of ``burst_n`` copies (a retry storm hammering the admission queue)
    REQUEST_BURST = "request-burst"
    #: serve: the tenant's request takes ``slow_tenant_s`` extra seconds
    #: of worker time (a pathological workload hogging its slots)
    SLOW_TENANT = "slow-tenant"
    #: cluster: one service shard dies mid-burst (its journal survives)
    SHARD_CRASH = "shard-crash"
    #: cluster: the router is partitioned from a live shard — every
    #: heartbeat in the decided window is lost even though the shard
    #: keeps working (the false-death / fencing scenario)
    ROUTER_PARTITION = "router-partition"
    #: cluster: a takeover is started for a shard that is not dead (or
    #: already taken over) — the takeover path must be idempotent
    STALE_TAKEOVER = "stale-takeover"
    #: snapshot: the snapshot record is half-written, then the process
    #: dies (recovery must quarantine the torn snapshot and fall back to
    #: replaying the full record stream)
    TORN_SNAPSHOT = "torn-snapshot"
    #: snapshot: the process dies after the compaction snapshot is
    #: durable but before the WAL is rewritten (the old file, snapshot
    #: appended, must recover identically)
    COMPACTION_CRASH = "compaction-crash"
    #: chaos: the whole service/cluster process-state dies at this step
    #: and must be rebuilt from the journals alone (cold restart)
    COLD_RESTART = "cold-restart"
    #: transport: the RPC request frame is corrupted in flight; the
    #: receiver's CRC check fails and it resets the connection
    TORN_FRAME = "torn-frame"
    #: transport: the shard host stalls before answering this call for
    #: ``socket_stall_s`` seconds (longer than any sane per-call
    #: timeout, so the caller times out and resends)
    SOCKET_STALL = "socket-stall"
    #: transport: the shard-host process is SIGSTOPped (alive but
    #: frozen — heartbeats time out, the breaker opens) for
    #: ``sigstop_s`` seconds, then SIGCONTed
    HOST_SIGSTOP = "host-sigstop"
    #: transport: the shard-host process is killed with SIGKILL at
    #: ``host_kill_fraction`` of the way through the epoch's burst —
    #: the kernel-grade shard death only a real process can model
    HOST_SIGKILL = "host-sigkill"
    #: transport: the connect() to the shard host is refused for this
    #: attempt (host restarting, backlog full, socket path raced)
    CONNECT_REFUSED = "connect-refused"
    #: asyncio backend: the task awaits ``slow_task_s`` extra before its
    #: alternative runs (a congested event loop / slow downstream)
    SLOW_TASK = "slow-task"
    #: asyncio backend: the task swallows its first cancellation and
    #: keeps running for ``cancel_ignore_s`` (a coroutine that catches
    #: CancelledError — elimination must still converge)
    CANCEL_IGNORED = "cancellation-ignored"
    #: asyncio backend: the task blocks the loop synchronously for
    #: ``loop_stall_s`` (CPU-bound work on the loop thread; every
    #: sibling world stalls with it)
    LOOP_STALL = "loop-stall"


CHILD_SITE = "child"
SPAWN_SITE = "spawn"
KILL_SITE = "kill"
MESSAGE_SITE = "message"
COMPUTE_SITE = "compute"
HEARTBEAT_SITE = "heartbeat"
JOURNAL_SITE = "journal"
SERVE_SITE = "serve"
CLUSTER_SITE = "cluster"
SNAPSHOT_SITE = "snapshot"
CHAOS_SITE = "chaos"
TRANSPORT_SITE = "transport"
ASYNCIO_SITE = "asyncio"

#: The reserved journal-site key the recovery pass queries for
#: DOUBLE_RECOVERY (transaction seqs start at 1, so 0 never collides).
RECOVERY_KEY = 0

#: Cap on the per-plan injection log (a long soak must not grow without
#: bound; the metrics counters keep exact totals past this point).
_MAX_INJECTION_LOG = 10_000

#: Which kinds may fire at each site, in trial order (first hit wins).
SITE_KINDS: dict[str, tuple[FaultKind, ...]] = {
    CHILD_SITE: (
        FaultKind.CRASH,
        FaultKind.HANG,
        FaultKind.SLOW_START,
        FaultKind.TRUNCATE_REPORT,
        FaultKind.CORRUPT_REPORT,
        FaultKind.GUARD_EXCEPTION,
    ),
    SPAWN_SITE: (FaultKind.SPAWN_FAIL,),
    KILL_SITE: (FaultKind.KILL_FAIL,),
    MESSAGE_SITE: (FaultKind.MSG_DROP, FaultKind.MSG_DELAY),
    COMPUTE_SITE: (FaultKind.STALL,),
    HEARTBEAT_SITE: (FaultKind.HEARTBEAT_MISS,),
    JOURNAL_SITE: (
        FaultKind.TORN_RECORD,
        FaultKind.CRASH_BEFORE_SEAL,
        FaultKind.CRASH_AFTER_SEAL,
        FaultKind.PARTIAL_RELEASE,
        FaultKind.DOUBLE_RECOVERY,
    ),
    SERVE_SITE: (FaultKind.REQUEST_BURST, FaultKind.SLOW_TENANT),
    CLUSTER_SITE: (
        FaultKind.SHARD_CRASH,
        FaultKind.ROUTER_PARTITION,
        FaultKind.STALE_TAKEOVER,
    ),
    SNAPSHOT_SITE: (
        FaultKind.TORN_SNAPSHOT,
        FaultKind.COMPACTION_CRASH,
    ),
    CHAOS_SITE: (FaultKind.COLD_RESTART,),
    TRANSPORT_SITE: (
        FaultKind.TORN_FRAME,
        FaultKind.SOCKET_STALL,
        FaultKind.HOST_SIGSTOP,
        FaultKind.HOST_SIGKILL,
        FaultKind.CONNECT_REFUSED,
    ),
    ASYNCIO_SITE: (
        FaultKind.SLOW_TASK,
        FaultKind.CANCEL_IGNORED,
        FaultKind.LOOP_STALL,
    ),
}

@dataclass(frozen=True)
class FaultDecision:
    """The verdict for one (site, key): a kind (or None) plus a magnitude.

    ``param`` is the fault's duration parameter where one applies
    (HANG/SLOW_START/MSG_DELAY/STALL seconds); 0.0 otherwise.
    """

    kind: FaultKind | None = None
    param: float = 0.0

    @property
    def fires(self) -> bool:
        return self.kind is not None

    def __bool__(self) -> bool:
        return self.fires


@dataclass
class FaultPlan:
    """A seeded, reproducible fault schedule.

    ``rates`` maps a kind of :attr:`site_kinds` to an independent firing
    probability in ``[0, 1]``; kinds absent from the map never fire. At a
    site where several kinds are enabled, each is trialled in
    :attr:`site_kinds` order and the first that fires wins (at most one
    fault per site/key).

    The magnitude knobs (``hang_s`` etc.) are plain attributes so benches
    can sweep them; they do not affect *which* faults fire.
    """

    seed: int = 0
    rates: dict[FaultKind, float] = field(default_factory=dict)
    hang_s: float = 30.0
    slow_start_s: float = 0.1
    msg_delay_s: float = 0.05
    stall_s: float = 0.01
    burst_n: float = 3.0
    slow_tenant_s: float = 0.02
    shard_crash_fraction: float = 0.5
    partition_beats: float = 4.0
    socket_stall_s: float = 1.0
    sigstop_s: float = 0.2
    host_kill_fraction: float = 0.5
    slow_task_s: float = 0.05
    cancel_ignore_s: float = 0.1
    loop_stall_s: float = 0.02
    #: Optional telemetry sink (see :meth:`note_injection`); wired by
    #: :meth:`repro.obs.Observability.watch_fault_plan`. Excluded from
    #: equality so plans still compare by schedule.
    observer: object = field(default=None, repr=False, compare=False)
    #: Every fault actually injected through this plan (decisions that
    #: *fired at a live injection site*, not mere queries). Bounded by
    #: :data:`_MAX_INJECTION_LOG`.
    injections: list = field(default_factory=list, repr=False, compare=False)

    #: The sites this plan decides, and the kinds trialled at each
    site_kinds = SITE_KINDS
    #: kind -> the attribute holding its magnitude; a kind absent here
    #: carries none (0.0)
    magnitudes = {
        FaultKind.HANG: "hang_s",
        FaultKind.SLOW_START: "slow_start_s",
        FaultKind.MSG_DELAY: "msg_delay_s",
        FaultKind.STALL: "stall_s",
        FaultKind.REQUEST_BURST: "burst_n",
        FaultKind.SLOW_TENANT: "slow_tenant_s",
        FaultKind.SHARD_CRASH: "shard_crash_fraction",
        FaultKind.ROUTER_PARTITION: "partition_beats",
        FaultKind.SOCKET_STALL: "socket_stall_s",
        FaultKind.HOST_SIGSTOP: "sigstop_s",
        FaultKind.HOST_SIGKILL: "host_kill_fraction",
        FaultKind.SLOW_TASK: "slow_task_s",
        FaultKind.CANCEL_IGNORED: "cancel_ignore_s",
        FaultKind.LOOP_STALL: "loop_stall_s",
    }

    def __post_init__(self) -> None:
        kinds = {kind for site in self.site_kinds.values() for kind in site}
        for kind, rate in self.rates.items():
            if not isinstance(kind, enum.Enum) or kind not in kinds:
                names = " or ".join(sorted({type(k).__name__ for k in kinds}))
                raise TypeError(f"rates key must be a {names}, got {kind!r}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind.value} must be in [0, 1], got {rate}")

    # -- derived streams --------------------------------------------------
    def _stream(self, site: str, key: tuple[int, ...]) -> np.random.Generator:
        # here, not at module level: the serving and fork stack loads no
        # numpy, since each fork copies what its parent imported (DESIGN §5)
        import numpy as np

        entropy = [self.seed & 0xFFFFFFFF, zlib.crc32(site.encode("ascii"))]
        entropy.extend(int(k) & 0xFFFFFFFF for k in key)
        return np.random.default_rng(entropy)

    # -- the decision procedure -------------------------------------------
    def decide(self, site: str, *key: int) -> FaultDecision:
        """The fault (if any) firing at ``site`` for ``key``.

        Pure in ``(seed, site, key)``: calling twice, in any order, from
        any process, yields the same decision.
        """
        try:
            kinds = self.site_kinds[site]
        except KeyError:
            raise ValueError(f"unknown fault site {site!r}") from None
        if not any(self.rates.get(kind, 0.0) > 0.0 for kind in kinds):
            return FaultDecision()
        rng = self._stream(site, key)
        for kind in kinds:
            draw = float(rng.uniform())  # one draw per kind, always, so
            # enabling an extra kind never reshuffles the draws of later ones
            if draw < self.rates.get(kind, 0.0):
                name = self.magnitudes.get(kind)
                return FaultDecision(kind, getattr(self, name) if name else 0.0)
        return FaultDecision()

    # -- telemetry ---------------------------------------------------------
    def note_injection(
        self,
        site: str,
        kind,
        detail: str = "",
        t: float | None = None,
        track=None,
        **data,
    ) -> None:
        """Record that a decided fault was actually injected.

        :meth:`decide` is a pure query — callers probe it freely — so the
        correlation record is written here, by the code that *acted* on a
        firing decision. With an ``observer`` wired (an
        :class:`~repro.obs.Observability`), the injection also lands as a
        ``cat="fault"`` annotation instant at time ``t`` on ``track``,
        visibly linking cause to the retry/degradation effect around it.
        """
        kind_label = kind.value if isinstance(kind, enum.Enum) else str(kind)
        if len(self.injections) < _MAX_INJECTION_LOG:
            rec = {"site": site, "kind": kind_label, **data}
            if detail:
                rec["detail"] = detail
            self.injections.append(rec)
        if self.observer is not None:
            self.observer(site, kind_label, t=t, detail=detail, track=track, **data)

    # -- convenience -------------------------------------------------------
    def schedule(
        self, block_id: int, n_alternatives: int, attempts: int = 1
    ) -> list[tuple[int, int, FaultDecision]]:
        """Materialize the child-site schedule for one block.

        Returns ``(index, attempt, decision)`` triples — handy for tests
        asserting two plans with equal seeds produce equal schedules, and
        for benches reporting how many faults a sweep actually injected.
        """
        out = []
        for attempt in range(attempts):
            for index in range(n_alternatives):
                out.append((index, attempt, self.decide(CHILD_SITE, block_id, index, attempt)))
        return out

    @classmethod
    def crashes(cls, seed: int = 0, rate: float = 0.3, **knobs) -> "FaultPlan":
        """A plan that only injects child crashes (the common bench case)."""
        return cls(seed=seed, rates={FaultKind.CRASH: rate}, **knobs)

    @classmethod
    def quiet(cls) -> "FaultPlan":
        """A plan that never fires (useful as a control arm)."""
        return cls(seed=0, rates={})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        on = {k.value: v for k, v in self.rates.items() if v > 0}
        return f"FaultPlan(seed={self.seed}, rates={on})"


def heartbeat_lost(plan, holder: int, beat: int, t=None, track=None, **data) -> bool:
    """Whether heartbeat ``beat`` of ``holder`` is lost in flight.

    The ``heartbeat`` site, keyed ``(holder, beat)``. A lost beat is
    noted on the plan's injection log, at ``t`` on ``track``, with
    ``beat`` and ``data``.
    """
    if plan is None:
        return False
    lost = plan.decide(HEARTBEAT_SITE, holder, beat).kind is FaultKind.HEARTBEAT_MISS
    if lost:
        plan.note_injection(
            HEARTBEAT_SITE, FaultKind.HEARTBEAT_MISS, detail=f"beat {beat}",
            t=t, track=track, beat=beat, **data,
        )
    return lost
