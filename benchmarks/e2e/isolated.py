"""Isolated layer timings: single-threaded direct calls of public functions
on the workload's own generated inputs, outside any serving stack.

Each figure is the median of ``calls`` timed calls, in microseconds. They
price a layer on its own, so a change there can be told apart from a change
in how the layers contend when stacked (the in-situ figures).
"""

from __future__ import annotations

import os
import time
from typing import Callable

from repro import Supervisor, run_alternatives
from repro.cluster import HashRing, pack_frame, unpack_frame
from repro.journal import CommitJournal, FileJournalStorage, MemoryJournalStorage
from repro.serve import (
    AdaptiveSpeculationPolicy,
    AdmissionQueue,
    ServeRequest,
    WorldBudget,
)

from gen import CLUSTER_SHARDS, N_ALTS, Op, noop
from ledger import p50

#: about the size of one framed seal record
RECORD_BYTES = 64
NOOP_BLOCK = [noop] * N_ALTS


def _each_us(calls: int, ops: list[Op], fn: Callable[[Op], object]) -> float:
    """Median time of ``fn(op)`` over ``calls`` calls, cycling ``ops``."""
    clock = time.perf_counter
    samples = []
    for i in range(calls):
        op = ops[i % len(ops)]
        t0 = clock()
        fn(op)
        samples.append(clock() - t0)
    return p50(samples) * 1e6


def _noop_block(backend: str) -> Callable[[Op], object]:
    return lambda op: run_alternatives(NOOP_BLOCK, initial=op.initial, backend=backend)


def _txn(journal: CommitJournal) -> Callable[[Op], object]:
    def txn(op: Op) -> None:
        seq = journal.begin("block", block=op.index, attempt=0,
                            winner_index=op.best, winner_name=op.name(op.best))
        journal.seal(seq)
        journal.mark_applied(seq, value=(op.name(op.best), op.index))

    return txn


def runtime_layers(ops: list[Op], calls: int) -> dict[str, float]:
    """A no-op three-alternative block on every in-process backend, and what
    a ``Supervisor`` adds to the cheapest of them."""
    out = {
        f"{layer}.block_us": _each_us(calls, ops, _noop_block(backend))
        for layer, backend in (
            ("runtime.sequential", "sequential"), ("runtime.thread", "thread"),
            ("runtime.fork", "fork"), ("aio", "async"),
        )
    }
    supervisor = Supervisor()
    supervised = _each_us(
        calls, ops,
        lambda op: supervisor.run(NOOP_BLOCK, initial=op.initial, backend="sequential"),
    )
    out["faults.supervisor.run_overhead_us"] = supervised - out["runtime.sequential.block_us"]
    return out


def serve_layers(ops: list[Op], calls: int) -> dict[str, float]:
    queue = AdmissionQueue(depth=16)
    budget = WorldBudget(4)
    policy = AdaptiveSpeculationPolicy()
    outcome = run_alternatives(NOOP_BLOCK, backend="sequential")

    def offer_take(op: Op) -> None:
        queue.offer(ServeRequest(op.tenant, (), seq=op.index))
        queue.take()

    return {
        "serve.admission.offer_take_us": _each_us(calls, ops, offer_take),
        "serve.budget.reserve_release_us": _each_us(
            calls, ops, lambda op: budget.reserve(op.tenant, want=N_ALTS).release()
        ),
        "serve.policy.decide_us": _each_us(
            calls, ops, lambda op: policy.decide(op.names, granted=N_ALTS, load=0.5)
        ),
        "serve.policy.observe_us": _each_us(
            calls, ops, lambda op: policy.observe(outcome, op.names, launched=op.names)
        ),
        "journal.txn_mem_us": _each_us(
            calls, ops, _txn(CommitJournal(storage=MemoryJournalStorage()))
        ),
    }


def cluster_layers(ops: list[Op], calls: int, shard, workdir: str) -> dict[str, float]:
    """Ring, wire and RPC on the caller's side, and the host's journal on a
    file of our own. ``shard`` is a live ``RemoteShardClient`` to ping."""
    ring = HashRing(range(CLUSTER_SHARDS))

    def envelope(op: Op) -> dict:
        return {
            "id": op.index << 8, "op": "submit", "token": f"shard0:submit:{op.index}",
            "args": {
                "tenant": op.tenant, "alternatives": op.alternatives(),
                "initial": op.initial, "priority": 0, "deadline_at": None,
                "timeout": None, "cost": 1.0, "seq": op.index, "spec": None,
            },
        }

    envelopes = {op.index: envelope(op) for op in ops}
    frames = {index: pack_frame(body) for index, body in envelopes.items()}
    paths = [os.path.join(workdir, name) for name in ("isolated.wal", "isolated.raw")]
    journal = CommitJournal(storage=FileJournalStorage(paths[0]))
    raw = FileJournalStorage(paths[1])
    record = bytes(RECORD_BYTES)
    try:
        return {
            "cluster.ring.route_us": _each_us(calls, ops, lambda op: ring.route(op.tenant)),
            "cluster.wire.pack_us": _each_us(
                calls, ops, lambda op: pack_frame(envelopes[op.index])
            ),
            "cluster.wire.unpack_us": _each_us(
                calls, ops, lambda op: unpack_frame(frames[op.index])
            ),
            "cluster.wire.submit_frame_bytes": p50([len(f) for f in frames.values()]),
            "cluster.remote.rpc_rtt_us": _each_us(
                calls, ops, lambda op: shard.answers_heartbeat()
            ),
            "journal.txn_file_us": _each_us(calls, ops, _txn(journal)),
            "journal.fsync_append_us": _each_us(calls, ops, lambda op: raw.append(record)),
        }
    finally:
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
