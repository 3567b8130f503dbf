"""Leased remote worlds: heartbeats, failure detection, crash recovery.

A world shipped to a remote node (via rfork) is invisible once it leaves:
the 1989 LAN gave no notification when the peer machine rebooted. The
classic answer is a *lease*: the remote world must renew its claim by
heartbeat; a holder that goes quiet is first suspected (probe), then
declared dead, its orphaned state reclaimed, and its work re-landed
locally — the distributed rung of PR 1's fork → thread → sequential
degradation ladder.

Everything here runs in *virtual* link time and is deterministic per
fault-plan seed:

- whether the remote node crashes, and when, is the plan's ``remote``
  site (``REMOTE_CRASH`` at ``(node_id, attempt)``; the crash lands at
  ``remote_crash_fraction`` of the shipped work);
- whether an individual heartbeat is lost in flight even though the node
  is alive is the ``heartbeat`` site (``(lease_id, beat_index)``);
- link flap windows silence heartbeats too (``partition`` site), which is
  exactly how a live node gets wrongly suspected — the probe on the
  healed link then rescues it.

:class:`RemoteWorldLease` is the pure state machine + event log;
:meth:`repro.faults.Supervisor.run_remote` and the cluster router drive it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import NetworkError
from repro.faults.plan import HEARTBEAT_SITE, REMOTE_SITE, FaultKind


class LeaseState(str, enum.Enum):
    """Where a remote world's lease is in its lifecycle."""

    ACTIVE = "active"
    SUSPECT = "suspect"          # a heartbeat was missed; probing
    DEAD = "dead"                # declared dead (misses or expiry)
    RECLAIMED = "reclaimed"      # orphaned state torn down
    COMPLETED = "completed"      # the remote world finished and committed


@dataclass(frozen=True)
class LeaseEvent:
    """One transition or observation in a lease's life, in virtual time."""

    at_s: float
    event: str
    detail: str = ""


@dataclass
class RemoteWorldLease:
    """The supervisor-side record of one leased remote world.

    ``term_s`` is the lease length: with no successful renewal (heartbeat)
    for a full term the holder is dead regardless of the miss counter.
    ``miss_threshold`` consecutive missed heartbeats declare death sooner
    (probes rescue false suspicions in between).
    """

    lease_id: int
    node_id: int
    term_s: float = 0.5
    heartbeat_s: float = 0.1
    miss_threshold: int = 3
    state: LeaseState = LeaseState.ACTIVE
    granted_at_s: float = 0.0
    last_renewal_s: float = 0.0
    beats_ok: int = 0
    beats_missed: int = 0
    consecutive_misses: int = 0
    events: list[LeaseEvent] = field(default_factory=list)
    obs: "object | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.term_s <= 0 or self.heartbeat_s <= 0:
            raise NetworkError("lease term and heartbeat interval must be positive")
        if self.miss_threshold < 1:
            raise NetworkError("miss_threshold must be at least 1")
        self.last_renewal_s = self.granted_at_s
        self._span_id = -1
        if self.obs is not None:
            track = f"lease:{self.lease_id}"
            self.obs.tracer.set_track_name(
                track, f"lease {self.lease_id} · node {self.node_id}"
            )
            self._span_id = self.obs.tracer.begin(
                f"lease:{self.lease_id}", cat="distrib", track=track,
                t=self.granted_at_s, node=self.node_id, term_s=self.term_s,
            )
        self._log(self.granted_at_s, "granted", f"term={self.term_s:g}s")

    # -- bookkeeping -------------------------------------------------------
    #: terminal lease events and the span disposition each one settles
    _TERMINAL = {
        "completed": "committed",
        "declare-dead": "eliminated",
    }

    def _log(self, at_s: float, event: str, detail: str = "") -> None:
        self.events.append(LeaseEvent(at_s=at_s, event=event, detail=detail))
        if self.obs is not None:
            disposition = self._TERMINAL.get(event)
            if disposition is not None:
                self.obs.tracer.end(
                    self._span_id, t=at_s, disposition=disposition,
                    reason=detail, beats_ok=self.beats_ok,
                    beats_missed=self.beats_missed,
                )
                self._span_id = -1
            elif event != "granted":
                self.obs.tracer.instant(
                    f"lease:{event}", cat="distrib",
                    track=f"lease:{self.lease_id}", t=at_s, detail=detail,
                )

    @property
    def event_names(self) -> list[str]:
        return [e.event for e in self.events]

    @property
    def alive(self) -> bool:
        return self.state in (LeaseState.ACTIVE, LeaseState.SUSPECT)

    # -- transitions -------------------------------------------------------
    def renew(self, at_s: float) -> None:
        """A heartbeat arrived: the holder is alive, suspicion clears."""
        self.beats_ok += 1
        self.consecutive_misses = 0
        self.last_renewal_s = at_s
        if self.state is LeaseState.SUSPECT:
            self.state = LeaseState.ACTIVE
            self._log(at_s, "recovered")

    def miss(self, at_s: float, reason: str = "") -> None:
        """A heartbeat did not arrive; escalate toward declaration."""
        self.beats_missed += 1
        self.consecutive_misses += 1
        if self.state is LeaseState.ACTIVE:
            self.state = LeaseState.SUSPECT
            self._log(at_s, "suspect", reason)

    def check_expiry(self, now_s: float) -> bool:
        return (now_s - self.last_renewal_s) >= self.term_s

    def beat(
        self, at_s: float, *, alive: bool, reachable: bool, lost: bool, reason: str
    ) -> LeaseState:
        """One failure-detector beat; returns the state it leaves.

        An arriving beat renews; a miss is probed. The probe, a synchronous
        liveness check, rescues an ``alive``, ``reachable`` holder whose
        beat was only ``lost`` in flight; failing it for a whole term, or
        ``miss_threshold`` times running, declares the holder dead. A
        settled lease (one no longer :attr:`alive`) is left untouched.
        """
        if not self.alive:
            return self.state
        missed = lost or not (alive and reachable)
        if missed:
            self.miss(at_s, reason)
        if alive and reachable:
            self.renew(at_s)
            if missed:
                self._log(at_s, "probe-ok")
            return self.state
        self._log(at_s, "probe-fail", reason)
        if self.check_expiry(at_s):
            self.declare_dead(at_s, f"lease expired ({reason})")
        elif self.consecutive_misses >= self.miss_threshold:
            self.declare_dead(at_s, f"{self.consecutive_misses} consecutive misses ({reason})")
        return self.state

    def declare_dead(self, at_s: float, reason: str) -> None:
        """Declare the holder dead. Idempotent on settled leases.

        A lease that already ``COMPLETED`` (the result committed), was
        ``RECLAIMED`` (the orphan torn down) or is already ``DEAD`` must
        not be revived into ``DEAD`` — a late failure detector repeating
        the declaration changes no state and re-logs nothing.
        """
        if self.alive:
            self.state = LeaseState.DEAD
            self._log(at_s, "declare-dead", reason)

    def reclaim(self, at_s: float) -> None:
        """Tear down the orphan's record; its results can no longer commit.

        Reclaiming twice is a no-op (the second pass must not re-log);
        reclaiming a live or completed lease is still a protocol error.
        """
        if self.state is LeaseState.RECLAIMED:
            return
        if self.state is not LeaseState.DEAD:
            raise NetworkError(f"cannot reclaim a lease in state {self.state.value}")
        self.state = LeaseState.RECLAIMED
        self._log(at_s, "reclaim-orphan")

    def takeover(self, at_s: float, new_node_id: int) -> "RemoteWorldLease":
        """Hand a dead holder's work to ``new_node_id``; returns the new lease.

        The takeover path of the cluster failover protocol: only a lease
        already declared ``DEAD`` (reclaiming it first is fine) may be
        taken over — taking over a live or completed lease would fork
        the work. The successor starts ``ACTIVE`` at ``at_s`` with the
        same ``lease_id`` and timing knobs; the predecessor logs the
        handoff so the lineage is auditable from either record.
        """
        if self.state not in (LeaseState.DEAD, LeaseState.RECLAIMED):
            raise NetworkError(
                f"cannot take over a lease in state {self.state.value}; "
                "declare the holder dead first"
            )
        self._log(at_s, "takeover", f"node {self.node_id} -> {new_node_id}")
        return RemoteWorldLease(
            lease_id=self.lease_id,
            node_id=new_node_id,
            term_s=self.term_s,
            heartbeat_s=self.heartbeat_s,
            miss_threshold=self.miss_threshold,
            granted_at_s=at_s,
            obs=self.obs,
        )

    def complete(self, at_s: float) -> None:
        if not self.alive:
            raise NetworkError(
                f"lease {self.lease_id} is {self.state.value}; a late result "
                "from a reclaimed world must not commit"
            )
        self.state = LeaseState.COMPLETED
        self._log(at_s, "completed")


@dataclass
class RemoteNode:
    """The fault plan's view of one remote machine.

    Answers, deterministically per seed, whether the node survives a
    shipped piece of work or crashes partway through it.
    """

    node_id: int
    plan: "object | None" = None

    def crash_time(self, work_s: float, attempt: int = 0) -> float | None:
        """Seconds into the work at which the node dies, or None."""
        if self.plan is None:
            return None
        decision = self.plan.decide(REMOTE_SITE, self.node_id, attempt)
        if decision.kind is FaultKind.REMOTE_CRASH:
            return work_s * decision.param
        return None


def heartbeat_lost(plan, lease_id: int, beat_index: int, t: float | None = None) -> bool:
    """Whether heartbeat ``beat_index`` of ``lease_id`` is lost in flight.

    A lost beat is recorded on the plan's injection log (``t`` is the
    virtual time the caller will charge the miss to).
    """
    if plan is None:
        return False
    lost = plan.decide(HEARTBEAT_SITE, lease_id, beat_index).kind is FaultKind.HEARTBEAT_MISS
    if lost:
        plan.note_injection(
            HEARTBEAT_SITE, FaultKind.HEARTBEAT_MISS,
            detail=f"beat {beat_index}", t=t, track=f"lease:{lease_id}",
            lease=lease_id, beat=beat_index,
        )
    return lost
