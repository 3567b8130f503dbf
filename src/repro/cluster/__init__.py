"""The sharded speculation cluster: scale-out that survives shard death.

``repro.cluster`` stacks a distribution layer over :mod:`repro.serve`:

- :class:`HashRing` — consistent-hash placement of tenants onto shards,
  deterministic across processes and minimally disturbed by membership
  churn;
- :class:`ClusterShard` — one shard: a
  :class:`~repro.serve.service.SpeculationService` with its own
  :class:`~repro.serve.budget.WorldBudget` and
  :class:`~repro.journal.CommitJournal`, wrapped so that crashing it
  kills everything *except* the journal;
- :class:`ClusterRouter` — placement (with spill to idle shards and
  work stealing off backlogged ones), lease-based failure detection,
  and journal-replay failover: a dead shard's admitted requests are
  replayed from its journal when their commit already applied and
  re-landed on survivors — under the same request seq, hence the same
  journal block id — when it did not. Every admitted request commits
  exactly once; :meth:`ClusterRouter.audit_applied` proves it.

Shards need not share the router's process:
:class:`~repro.cluster.remote.RemoteShardClient` runs one behind a
framed RPC socket (:mod:`repro.cluster.wire`) in its own OS process —
the router is transport-polymorphic, so local and remote shards mix in
one ring, and "shard death" can be a literal ``kill -9``.

Fault injection rides the existing planes: the plan's ``heartbeat`` /
``partition`` sites plus the ``cluster`` site
(:data:`~repro.faults.plan.CLUSTER_SITE`: shard-crash-mid-burst,
partitioned router, stale takeover) and the ``transport`` site
(:data:`~repro.faults.plan.TRANSPORT_SITE`: torn frames, socket stalls,
SIGSTOP'd and SIGKILL'd hosts, refused connects).
"""

from repro.cluster.remote import (
    CircuitBreaker,
    RemoteShardClient,
    host_fault_decision,
    shard_host_main,
)
from repro.cluster.ring import HashRing
from repro.cluster.router import (
    ClusterResult,
    ClusterRestartReport,
    ClusterRouter,
    ClusterTicket,
    PARTITION_WINDOW_BEATS,
)
from repro.cluster.shard import ClusterShard, ShardState
from repro.cluster.wire import pack_frame, recv_frame, send_frame, unpack_frame

__all__ = [
    "CircuitBreaker",
    "ClusterResult",
    "ClusterRestartReport",
    "ClusterRouter",
    "ClusterShard",
    "ClusterTicket",
    "HashRing",
    "PARTITION_WINDOW_BEATS",
    "RemoteShardClient",
    "ShardState",
    "host_fault_decision",
    "pack_frame",
    "recv_frame",
    "send_frame",
    "shard_host_main",
    "unpack_frame",
]
