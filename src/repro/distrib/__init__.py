"""The distributed case: simulated links, remote fork, migration.

The paper's section 3.1 notes the distributed penalty — "in the
distributed case we must actually copy state for a remote child" — and
section 3.4 measures it: an rfork() of a 70K process takes just under a
second of checkpoint work, with network delays pushing the observed
average to ~1.3 s.

- :mod:`repro.distrib.netsim` — latency/bandwidth link models with
  transfer accounting and deterministic fault injection (drops,
  duplicates, reordering, corruption, flap/partition windows).
- :mod:`repro.distrib.retry` — bounded retries with exponential backoff
  and deterministic jitter, shared by every link consumer.
- :mod:`repro.distrib.rfork` — remote fork: checkpoint + ship + restart,
  in both a calibrated-1989 cost model and a real local measurement
  mode, hardened into an at-least-once protocol with idempotent apply
  and local fallback.
- :mod:`repro.distrib.netstore` — network-attached single-level store
  and demand paging, with CRC-verified, idempotent transfers.
- :mod:`repro.distrib.migration` — migrating a simulated process between
  two simulation kernels; the source keeps the process until the target
  acks.
- :mod:`repro.distrib.lease` — leases + heartbeats for remote worlds,
  the failure detector behind the remote→local degradation chain.

The names below are imported from their submodules on first access, so
the cluster router (:mod:`~repro.distrib.lease`) and the remote shard
client (:mod:`~repro.distrib.retry`) load none of the network
simulation.
"""

import importlib

#: name -> the submodule it is imported from on first access (PEP 562)
_LAZY = {
    "Delivery": "repro.distrib.netsim",
    "LinkFaultEvent": "repro.distrib.netsim",
    "SimulatedLink": "repro.distrib.netsim",
    "TransferRecord": "repro.distrib.netsim",
    "corrupt_payload": "repro.distrib.netsim",
    "RetryPolicy": "repro.distrib.retry",
    "RetryStats": "repro.distrib.retry",
    "call_with_retries": "repro.distrib.retry",
    "RemoteFork": "repro.distrib.rfork",
    "RforkCost": "repro.distrib.rfork",
    "MigrationRecord": "repro.distrib.migration",
    "migrate_process": "repro.distrib.migration",
    "LeaseEvent": "repro.distrib.lease",
    "LeaseState": "repro.distrib.lease",
    "RemoteNode": "repro.distrib.lease",
    "RemoteWorldLease": "repro.distrib.lease",
    "heartbeat_lost": "repro.distrib.lease",
    "NetworkStore": "repro.distrib.netstore",
    "DemandPagedImage": "repro.distrib.netstore",
    "DemandPagedReader": "repro.distrib.netstore",
    "breakeven_fraction": "repro.distrib.netstore",
}

__all__ = [
    "Delivery",
    "LinkFaultEvent",
    "SimulatedLink",
    "TransferRecord",
    "corrupt_payload",
    "RetryPolicy",
    "RetryStats",
    "call_with_retries",
    "RemoteFork",
    "RforkCost",
    "MigrationRecord",
    "migrate_process",
    "LeaseEvent",
    "LeaseState",
    "RemoteNode",
    "RemoteWorldLease",
    "heartbeat_lost",
    "NetworkStore",
    "DemandPagedImage",
    "DemandPagedReader",
    "breakeven_fraction",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_LAZY[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
