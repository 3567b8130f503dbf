"""The 1989 network model behind the paper's section 3.4 remote fork.

"An rfork() of a 70K process requires slightly less than a second, and
network delays gave us an observed average execution time of about 1.3
seconds." The serving stack's transport is a real one (shard hosts
behind :class:`repro.cluster.ClusterRouter`); this package is the cost
model that regenerates the paper's figure, and the fault-injected link
the network-robustness bench drives:

- :mod:`netmodel.faults` — :class:`~netmodel.faults.NetFaultPlan`, the
  fault plan with the model's ``link``, ``partition`` and ``remote``
  sites, their kinds, and the errors the model raises;
- :mod:`netmodel.netsim` — latency/bandwidth link models with transfer
  accounting and deterministic fault injection (drops, duplicates,
  reordering, corruption, flap/partition windows);
- :mod:`netmodel.checkpoint` — self-contained restartable task images
  (the paper's rfork-by-checkpoint, Smith & Ioannidis [19]);
- :mod:`netmodel.rfork` — remote fork: checkpoint + ship + restart, in
  a calibrated-1989 cost model and a real local measurement mode,
  hardened into an at-least-once protocol with idempotent apply and
  local fallback; and :class:`~netmodel.rfork.RemoteNode`, the fault
  plan's view of the far machine;
- :mod:`netmodel.netstore` — a network-attached single-level store and
  demand paging, with CRC-verified, idempotent transfers;
- :mod:`netmodel.migration` — migrating a simulated process between two
  simulation kernels; the source keeps the process until the target
  acks;
- :mod:`netmodel.lease` — the lease a shipped world holds: heartbeats,
  suspect → probe → declare-dead → reclaim, and takeover by a
  successor, in virtual link time.

``bench_sec34_rfork`` and ``bench_robustness_network`` import it with
``benchmarks/`` on the path; the test suite puts it there too.
"""
