"""One cluster shard: a speculation service with its own budget + journal.

A :class:`ClusterShard` owns exactly the state a real node would own —
a :class:`~repro.serve.budget.WorldBudget` (its slots), an
:class:`~repro.serve.admission.AdmissionQueue` (its backlog) and a
:class:`~repro.journal.CommitJournal` (its durable commit record) —
wrapped around a :class:`~repro.serve.service.SpeculationService`. The
router talks to shards only through this wrapper, which is what makes
shard death meaningful: :meth:`ClusterShard.crash` kills everything
*except* the journal, and it is the one way a shard ends — a death, or a
takeover's kill of a live shard the router lost sight of, which must
stop committing before the router reads its journal.

:class:`ShardState` is the shard's own lifecycle, and only the shard
writes it: UP; DRAINING while a decommission's :meth:`ClusterShard.stop`
serves its backlog; DEAD once it drained, or crashed. The router's
failure detector keeps its suspicion to itself, as a miss count.
"""

from __future__ import annotations

import enum
import threading

from repro.errors import ClusterError
from repro.journal import CommitJournal, FileJournalStorage, MemoryJournalStorage
from repro.serve.admission import AdmissionQueue
from repro.serve.budget import WorldBudget
from repro.serve.service import ServeTicket, SpeculationService


class ShardState(str, enum.Enum):
    """Where a shard is in its own lifecycle."""

    UP = "up"
    DRAINING = "draining"    # graceful decommission in progress
    DEAD = "dead"            # drained, crashed, or killed by a takeover


class ClusterShard:
    """One shard of the speculation cluster.

    Parameters
    ----------
    shard_id:
        Small int id; also the heartbeat/cluster fault key, so a
        plan's verdicts about this shard are stable across runs.
    slots / workers:
        The underlying :class:`SpeculationService` sizing.
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
        self.service = SpeculationService(
            self.budget,
            queue=self.queue,
            workers=workers,
            fault_plan=fault_plan,
            journal=self.journal,
            obs=obs,
            journal_admission=journal_admission,
        )
        self.state = ShardState.UP
        self._lock = threading.Lock()

    # -- introspection -----------------------------------------------------
    @property
    def up(self) -> bool:
        return self.state is ShardState.UP

    @property
    def alive(self) -> bool:
        """Whether the *process* is alive."""
        return self.state is not ShardState.DEAD

    def answers_heartbeat(self) -> bool:
        """One failure-detector beat: would this shard answer right now?

        In-process shards answer by construction whenever the process
        abstraction says they are alive; the remote
        transport (:class:`~repro.cluster.remote.RemoteShardClient`)
        overrides this with a real ping over its socket. The router's
        detector calls only this, which is what lets the two transports
        share one miss counter.
        """
        return self.alive

    def snapshot(self) -> dict:
        return {"shard": self.shard_id, "state": self.state.value}

    # -- the request surface (the router's; same names on a remote shard),
    # forwarded at call time so patching ``shard.service`` patches it ----
    def admit(self, request) -> ServeTicket:
        return self.service.admit(request)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ClusterShard":
        self.service.start()
        return self

    def stop(self) -> None:
        """Graceful decommission: serve the whole backlog, then die. A
        drain that outlasts its join ends in a :meth:`crash`, not a shed:
        the journal is final, and the rest stays sealed for the takeover."""
        with self._lock:
            if self.state is ShardState.DEAD:
                return
            self.state = ShardState.DRAINING
        if self.service.drain():
            self.state = ShardState.DEAD
        else:
            self.crash()

    def crash(self) -> None:
        """The shard process dies, or a takeover kills it. Only the
        journal survives.

        Idempotent. In-flight requests settle their journal transactions
        (see :meth:`SpeculationService.crash`) but report nothing; the
        router recovers admitted work by replaying this shard's journal
        and re-landing whatever never applied. The workers are joined
        under the shard's lock, so every caller, first or not, returns
        to a final journal.
        """
        with self._lock:
            if self.state is not ShardState.DEAD:
                self.state = ShardState.DEAD
                self.service.crash()
