"""One cluster shard: a speculation service with its own budget + journal.

A :class:`ClusterShard` owns exactly the state a real node would own —
a :class:`~repro.serve.budget.WorldBudget` (its slots), an
:class:`~repro.serve.admission.AdmissionQueue` (its backlog) and a
:class:`~repro.journal.CommitJournal` (its durable commit record) —
wrapped around a :class:`~repro.serve.service.SpeculationService`. The
router talks to shards only through this wrapper, which is what makes
shard death meaningful: :meth:`ClusterShard.crash` kills everything
*except* the journal, and :meth:`ClusterShard.fence` excommunicates a
live shard the router wrongly declared dead (the lease-expiry
self-fencing argument: by the time a takeover begins, the shard's lease
term has lapsed, so a correct shard has already stopped committing).

Each shard also carries a :class:`~repro.distrib.lease.RemoteWorldLease`
granted by the router — the failure detector state — so shard death
walks the same suspect → probe → declare-dead → reclaim machine remote
worlds already use, fed by the same ``heartbeat``/``partition`` fault
sites.
"""

from __future__ import annotations

import enum
import threading

from repro.errors import ClusterError
from repro.journal import CommitJournal, FileJournalStorage, MemoryJournalStorage
from repro.serve.admission import AdmissionQueue
from repro.serve.budget import WorldBudget
from repro.serve.policy import AdaptiveSpeculationPolicy
from repro.serve.service import ServeTicket, SpeculationService
from repro.serve.stats import AlternativeStats


class ShardState(str, enum.Enum):
    """Where a shard is in its lifecycle, as the router sees it."""

    UP = "up"
    SUSPECT = "suspect"      # missed heartbeats; probing
    DRAINING = "draining"    # graceful decommission in progress
    DEAD = "dead"            # crashed (or declared dead); taken over
    FENCED = "fenced"        # live but excommunicated (false positive)


class ClusterShard:
    """One shard of the speculation cluster.

    Parameters
    ----------
    shard_id:
        Small int id; also the heartbeat/partition fault key, so a
        plan's verdicts about this shard are stable across runs.
    slots / workers / backend / policy:
        The underlying :class:`SpeculationService` sizing. ``policy``
        defaults to a fresh :class:`AdaptiveSpeculationPolicy` per
        shard (stats are shard-local state and die with the shard).
    journal:
        The shard's own :class:`CommitJournal` (default: in-memory
        storage). The one thing that survives :meth:`crash`. A plain
        ``str`` is taken as a filesystem path and opened as
        :class:`~repro.journal.FileJournalStorage` — the form a
        shard-host child process uses, where the journal must survive
        ``kill -9`` of the whole process.
    fault_plan / obs:
        The shared robustness planes. Note metrics are cluster-shared:
        shard-distinct series carry a ``shard`` label.
    journal_admission:
        Passed through to the service: journal every admitted request
        as a sealed ``admit`` txn so a cold restart
        (:meth:`ClusterRouter.restore`) can rebuild this shard's
        backlog from its journal.
    """

    def __init__(
        self,
        shard_id: int,
        slots: int = 2,
        workers: int = 4,
        backend: str = "thread",
        policy=None,
        journal: CommitJournal | str | None = None,
        queue_depth: int | None = None,
        fault_plan=None,
        obs=None,
        journal_admission: bool = False,
    ) -> None:
        if shard_id < 0:
            raise ClusterError(f"shard_id must be non-negative, got {shard_id}")
        self.shard_id = shard_id
        if isinstance(journal, str):
            journal = CommitJournal(storage=FileJournalStorage(journal))
        self.journal = journal if journal is not None else CommitJournal(
            storage=MemoryJournalStorage()
        )
        self.budget = WorldBudget(slots)
        self.queue = AdmissionQueue(
            depth=queue_depth if queue_depth is not None else 16 * slots
        )
        if policy is None:
            policy = AdaptiveSpeculationPolicy(stats=AlternativeStats())
        self.service = SpeculationService(
            self.budget,
            queue=self.queue,
            policy=policy,
            workers=workers,
            backend=backend,
            fault_plan=fault_plan,
            journal=self.journal,
            obs=obs,
            journal_admission=journal_admission,
        )
        self.state = ShardState.UP
        self.incarnation = 0
        #: router-granted failure-detector lease; set by the router
        self.lease = None
        self._lock = threading.Lock()

    # -- introspection -----------------------------------------------------
    @property
    def up(self) -> bool:
        return self.state in (ShardState.UP, ShardState.SUSPECT)

    @property
    def alive(self) -> bool:
        """Whether the *process* is alive (a FENCED shard still is)."""
        return self.state not in (ShardState.DEAD,)

    def answers_heartbeat(self) -> bool:
        """One failure-detector beat: would this shard answer right now?

        In-process shards answer by construction whenever the process
        abstraction says they are alive and not fenced; the remote
        transport (:class:`~repro.cluster.remote.RemoteShardClient`)
        overrides this with a real ping over its socket. The router's
        detector calls only this, which is what lets the two transports
        share one suspect → probe → declare-dead machine.
        """
        return self.alive and self.state is not ShardState.FENCED

    def backlog(self) -> int:
        return len(self.queue)

    def idle_slots(self) -> int:
        return self.budget.free

    def snapshot(self) -> dict:
        return {
            "shard": self.shard_id,
            "state": self.state.value,
            "incarnation": self.incarnation,
            "backlog": self.backlog(),
            "slots_free": self.idle_slots(),
        }

    # -- the request surface (the router's; same names on a remote shard),
    # forwarded at call time so patching ``shard.service`` patches it ----
    def admit(self, request) -> ServeTicket:
        return self.service.admit(request)

    def steal_requests(self, max_n: int) -> list:
        return self.service.steal_requests(max_n)

    def confirm_stolen(self, request) -> None:
        self.service.confirm_stolen(request)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ClusterShard":
        self.service.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Graceful decommission: finish in-flight work, then die.

        ``drain=True`` serves the whole backlog first; ``drain=False``
        sheds it immediately (as ``cancelled`` + ``retry_after_s``) so a
        router can re-land it on surviving shards without waiting.
        """
        with self._lock:
            if self.state in (ShardState.DEAD, ShardState.FENCED):
                return
            self.state = ShardState.DRAINING
        self.service.stop(drain=drain)
        self.state = ShardState.DEAD

    def crash(self) -> None:
        """The shard process dies. Only the journal survives.

        Idempotent. In-flight requests settle their journal transactions
        (see :meth:`SpeculationService.crash`) but report nothing; the
        router recovers admitted work by replaying this shard's journal
        and re-landing whatever never applied.
        """
        with self._lock:
            if self.state is not ShardState.DEAD:
                self.state = ShardState.DEAD
                self.service.crash()

    def fence(self) -> None:
        """Excommunicate a live shard (false-positive death declaration).

        Same mechanics as :meth:`crash` — the shard stops processing and
        reporting — but the label records that the process was alive:
        the router partitioned from it, its lease expired, and correct
        self-fencing means it must not commit past that point even
        though it never died.

        Like :meth:`crash` it joins the workers under the shard's lock,
        so every caller, first or not, returns to a final journal.
        """
        with self._lock:
            if self.state not in (ShardState.DEAD, ShardState.FENCED):
                self.state = ShardState.FENCED
                self.service.crash()
