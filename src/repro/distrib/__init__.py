"""What the cluster borrows from the distributed case: leases and retries.

- :mod:`repro.distrib.lease` — leases + heartbeats, the failure detector
  behind the cluster router's takeover.
- :mod:`repro.distrib.retry` — bounded retries with exponential backoff
  and deterministic jitter, the remote shard client's RPC retry policy.

The paper's section 3.4 remote fork (checkpoint, ship over a 1989 link,
restart), its network store and process migration are a cost model,
not a transport; they live beside the two benches that regenerate their
figures, in ``benchmarks/netmodel``.
"""

from repro.distrib.lease import LeaseEvent, LeaseState, RemoteWorldLease, heartbeat_lost
from repro.distrib.retry import RetryPolicy, RetryStats, call_with_retries

__all__ = [
    "RetryPolicy",
    "RetryStats",
    "call_with_retries",
    "LeaseEvent",
    "LeaseState",
    "RemoteWorldLease",
    "heartbeat_lost",
]
