"""What the cluster borrows from the distributed case: retries.

- :mod:`repro.distrib.retry` — bounded retries with exponential backoff
  and deterministic jitter, the remote shard client's RPC retry policy.

The paper's section 3.4 remote fork (checkpoint, ship over a 1989 link,
restart), its network store, process migration and the lease a shipped
world holds are a cost model, not a transport; they live beside the two
benches that regenerate their figures, in ``benchmarks/netmodel``.
"""

from repro.distrib.retry import RetryPolicy, RetryStats, call_with_retries

__all__ = ["RetryPolicy", "RetryStats", "call_with_retries"]
