"""The four workloads: what each builds, how it offers load, what it audits.

Every workload has the same shape — ``build`` the stack, ``warm`` it with a
fixed number of ops, ``measure`` for a fixed time, ``close`` it and audit
what it left behind — and reports each op as a :class:`Done`. The stacks
are built from the public constructors only; a traced stack differs from an
untraced one in using the timed subclasses of :mod:`probes`.
"""

from __future__ import annotations

import collections
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro import run_alternatives
from repro.cluster import ClusterRouter, RemoteShardClient
from repro.errors import AdmissionRejected
from repro.journal import CommitJournal, FileJournalStorage, MemoryJournalStorage
from repro.serve import AdmissionQueue, SpeculationService, WorldBudget

import isolated
from gen import CLUSTER_SHARDS, N_ALTS, Op
from ledger import SpanTree
from probes import ProbedBudget, ProbedJournal, ProbedQueue, Trace

now = time.monotonic

SLOTS = 4
WORKERS = 8
INFLIGHT = 16
PACED_RATE = 60.0
#: The service default (5 s) sheds a request that waited that long for a
#: slot. Under ``serve_sat`` six of the eight workers do wait that long: the
#: worker that releases slots re-reserves them for its next request before a
#: woken waiter gets to run. A shed op is a failed op, and the contract wants
#: workloads on which none fails, so the wait is allowed to outlast any
#: window; the starved requests show in the latency tail instead.
GRANT_TIMEOUT_S = 120.0
RESULT_TIMEOUT_S = 60.0
_REJECTED = object()


@dataclass
class Done:
    """One op as its caller saw it, plus what the traced window stamped."""

    op: Op
    #: when the op was due (open loop) or handed to the program (closed loop)
    start: float
    end: float
    status: str
    value: Any = None
    winner: str = ""
    k: int = 0
    seq: int = -1
    #: when the generator got round to it; later than ``start`` only when an
    #: open loop ran behind its schedule
    sent: float | None = None
    #: the winner's own start/end stamps, from the committed workspace
    body: tuple[float | None, float | None] = (None, None)
    #: durations in seconds and counts observed at the call site
    terms: dict[str, float] = field(default_factory=dict)
    #: the op's span tree (traced windows only)
    tree: SpanTree | None = None

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def lag(self) -> float:
        return 0.0 if self.sent is None else self.sent - self.start

    def breach(self) -> str | None:
        """Why this op counts as failed, or None."""
        if self.status != "committed":
            return self.status
        if self.winner not in self.op.names or self.value != (self.winner, self.op.index):
            return f"wrong value {self.value!r} from {self.winner!r}"
        return None

    @property
    def upset(self) -> bool:
        """All three alternatives ran and a slow one still reported first.
        Legal under first-acceptable-wins, and what a scheduling stall longer
        than the cost gap (16 ms) produces; counted, not failed."""
        return self.k == N_ALTS and self.winner != self.op.name(self.op.best)


def _outcome_fields(outcome) -> dict:
    if outcome is None:
        return {}
    state = outcome.extras.get("state") or {}
    return {
        "value": outcome.value,
        "winner": outcome.winner.name if outcome.winner is not None else "",
        "body": (state.get("t0"), state.get("t1")),
    }


def _until(count: int | None, seconds: float | None):
    """A stop test for a load loop: after ``count`` ops or ``seconds``."""
    deadline = None if seconds is None else now() + seconds

    def stop(n: int) -> bool:
        return (count is not None and n >= count) or (
            deadline is not None and now() >= deadline
        )

    return stop


class Workload:
    name = ""

    def __init__(self, traced: bool, workdir: str) -> None:
        self.traced = traced
        self.workdir = workdir

    def build(self) -> None:
        """Construct the stack; a bare call has none."""

    def warm(self, ops: Iterator[Op], count: int) -> None:
        self._drive(ops, _until(count, None))

    def measure(self, ops: Iterator[Op], seconds: float) -> list[Done]:
        return self._drive(ops, _until(None, seconds))

    def _drive(self, ops: Iterator[Op], stop) -> list[Done]:
        raise NotImplementedError

    def host_pids(self) -> list[int]:
        """Live processes doing this workload's work besides our own."""
        return []

    def isolated(self, ops: list[Op], calls: int) -> dict[str, float]:
        """Direct-call timings of the layers this workload exercises."""
        raise NotImplementedError

    def close(self) -> tuple[list[str], dict[str, float]]:
        """Tear down; returns (audit breaches, journal figures)."""
        return [], {}


# -- block_fork --------------------------------------------------------------
class BlockFork(Workload):
    """Closed loop, one caller, bare ``run_alternatives(backend="fork")``."""

    name = "block_fork"

    def _drive(self, ops, stop) -> list[Done]:
        done = []
        while not stop(len(done)):
            op = next(ops)
            t0 = now()
            outcome = run_alternatives(op.alternatives(), initial=op.initial, backend="fork")
            t1 = now()
            d = Done(
                op, t0, t1, "committed" if outcome.winner is not None else "failed",
                k=N_ALTS, **_outcome_fields(outcome),
            )
            if self.traced:
                self._trace(d, outcome)
            done.append(d)
        return done

    @staticmethod
    def _trace(d: Done, outcome) -> None:
        d.terms["core.block.call"] = d.latency
        # what the winning child wrote into its pipe
        d.terms["result_bytes"] = len(pickle.dumps(
            ("ok", outcome.value, outcome.extras.get("state")),
            protocol=pickle.HIGHEST_PROTOCOL,
        ))
        b0, b1 = d.body
        d.tree = tree = SpanTree(d.op.index)
        root = tree.add("op", d.start, d.end)
        tree.add("runtime.fork.spawn", d.start, b0, root)
        tree.add("runtime.fork.tau_best", b0, b1, root)
        tree.add("runtime.fork.collect", b1, d.end, root)

    def isolated(self, ops, calls):
        return isolated.runtime_layers(ops, calls)


# -- serve_paced / serve_sat -------------------------------------------------
class _Serve(Workload):
    """One in-process ``SpeculationService`` and the two ways to load it."""

    def build(self) -> None:
        self.trace = Trace() if self.traced else None
        storage = MemoryJournalStorage()
        if self.traced:
            self.journal = ProbedJournal(self.trace, storage=storage)
            budget = ProbedBudget(self.trace, SLOTS)
            queue = ProbedQueue(self.trace, depth=16 * SLOTS)
        else:
            self.journal = CommitJournal(storage=storage)
            budget = WorldBudget(SLOTS)
            queue = AdmissionQueue(depth=16 * SLOTS)
        self._resolved: dict[int, tuple[float, int, Any]] = {}
        self._tokens = threading.Semaphore(0)
        self._committed: list[int] = []
        self.service = SpeculationService(
            budget, queue=queue, workers=WORKERS, backend="thread",
            grant_timeout_s=GRANT_TIMEOUT_S, journal=self.journal,
            on_resolve=self._on_resolve,
        ).start()

    def _on_resolve(self, request, result) -> None:
        self._resolved[request.initial["op"]] = (now(), request.seq, result)
        self._tokens.release()

    def _submit(self, op: Op, start: float, sent: list) -> None:
        t0 = now()
        try:
            self.service.submit(op.tenant, op.alternatives(), initial=op.initial)
        except AdmissionRejected:
            self._resolved[op.index] = (now(), -1, _REJECTED)
            self._tokens.release()
        sent.append((op, start, t0, now()))

    def _closed_loop(self, ops, stop, inflight: int) -> list[Done]:
        for _ in range(inflight):
            self._tokens.release()
        sent: list = []
        while not stop(len(sent)):
            self._tokens.acquire()
            self._submit(next(ops), now(), sent)
        for _ in range(inflight):  # drain: every token comes home
            if not self._tokens.acquire(timeout=RESULT_TIMEOUT_S):
                break
        return self._collect(sent)

    def _open_loop(self, ops, seconds: float, rate: float) -> list[Done]:
        sent: list = []
        t0 = now() + 1.0 / rate
        for i in range(int(seconds * rate)):
            due = t0 + i / rate
            wait = due - now()
            if wait > 0:
                time.sleep(wait)
            self._submit(next(ops), due, sent)
        for _ in sent:
            if not self._tokens.acquire(timeout=RESULT_TIMEOUT_S):
                break
        return self._collect(sent)

    def _collect(self, sent) -> list[Done]:
        done = []
        for op, start, t_enter, t_return in sent:
            end, seq, result = self._resolved.pop(op.index, (now(), -1, None))
            if result is None or result is _REJECTED:
                d = Done(op, start, end, "lost" if result is None else "rejected", sent=t_enter)
            else:
                d = Done(
                    op, start, end, result.status, k=result.k, seq=seq, sent=t_enter,
                    **_outcome_fields(result.outcome),
                )
                if result.committed:
                    self._committed.append(seq)
                if self.traced:
                    self._trace(d, result, t_return)
            done.append(d)
        return done

    def _trace(self, d: Done, result, t_return: float) -> None:
        rec = self.trace.records.get(d.seq, {})
        d.terms["queue_wait_reported"] = result.queue_wait_s
        if result.outcome is not None:
            d.terms["core.block.call"] = result.outcome.elapsed_s
        for key in ("depth", "granted", "journal_records"):
            if key in rec:
                d.terms[key] = rec[key]
        t_enter = d.sent
        b0, b1 = d.body
        d.tree = tree = SpanTree(d.op.index)
        root = tree.add("op", d.start, d.end)
        tree.add("loadgen.lag", d.start, t_enter, root)
        tree.add("serve.service.submit_call", t_enter, t_return, root)
        tree.add("serve.admission.queue_wait", rec.get("offer"), rec.get("take"), root)
        tree.add("serve.budget.grant_wait", rec.get("reserve_enter"), rec.get("reserve_return"), root)
        launch = tree.add("serve.service.launch", rec.get("reserve_return"), b0, root)
        tree.add("journal.find_applied", rec.get("find_enter"), rec.get("find_return"), launch)
        tree.add("runtime.thread.tau_best", b0, b1, root)
        tree.add("runtime.thread.collect", b1, rec.get("txn_begin"), root)
        tree.add("journal.block_txn", rec.get("txn_begin"), rec.get("txn_applied"), root)
        tree.add("serve.service.resolve", rec.get("txn_applied"), d.end, root)

    def isolated(self, ops, calls):
        return isolated.serve_layers(ops, calls)

    def close(self):
        self.service.stop()
        # the exactly-once audit: one applied block txn per committed
        # request, and no block txn for anything else
        blocks = collections.Counter(
            intent["data"]["block"] for intent, _ in self.journal.applied_intents("block")
        )
        intents = collections.Counter(
            r["data"]["block"] for r in self.journal.records()
            if r["t"] == "intent" and r["kind"] == "block"
        )
        breaches = [
            f"request {seq}: {blocks.get(seq, 0)} applied block txns"
            for seq in self._committed if blocks.get(seq, 0) != 1
        ]
        if sorted(intents) != sorted(self._committed):
            breaches.append(
                f"{len(intents)} block intents for {len(self._committed)} committed requests"
            )
        return breaches, {}


class ServePaced(_Serve):
    """Open loop at 60 op/s: no queue forms, K=3 runs."""

    name = "serve_paced"

    def warm(self, ops, count):
        # one op at a time keeps the warm-up in the window's own regime
        self._closed_loop(ops, _until(count, None), inflight=1)

    def measure(self, ops, seconds):
        return self._open_loop(ops, seconds, PACED_RATE)


class ServeSat(_Serve):
    """Closed loop, 16 in flight from one generator thread."""

    name = "serve_sat"

    def _drive(self, ops, stop):
        return self._closed_loop(ops, stop, INFLIGHT)


# -- cluster_remote ----------------------------------------------------------
class ClusterRemote(Workload):
    """Closed loop, 16 in flight, router over two shard-host processes."""

    name = "cluster_remote"

    def build(self) -> None:
        self.shards = [
            RemoteShardClient(
                sid, workdir=os.path.join(self.workdir, f"s{sid}"),
                slots=SLOTS, workers=WORKERS,
            )
            for sid in range(CLUSTER_SHARDS)
        ]
        self.router = ClusterRouter(self.shards).start(detect=False)
        self._results: list = []

    def host_pids(self):
        return [s.pid for s in self.shards if s.pid is not None]

    def _drive(self, ops, stop) -> list[Done]:
        window: collections.deque = collections.deque()
        done, submitted = [], 0
        while True:
            stopping = stop(submitted)
            if stopping and not window:
                return done
            if not stopping and len(window) < INFLIGHT:
                op = next(ops)
                t0 = now()
                try:
                    ticket = self.router.submit(op.tenant, op.alternatives(), initial=op.initial)
                except AdmissionRejected:
                    done.append(Done(op, t0, now(), "rejected"))
                else:
                    window.append((op, t0, now(), ticket))
                submitted += 1
                continue
            op, t0, t_return, ticket = window.popleft()
            result = ticket.result(timeout=RESULT_TIMEOUT_S)
            done.append(self._done(op, t0, t_return, now(), result))

    def _done(self, op, t0, t_return, end, result) -> Done:
        self._results.append(result)
        served = result.result
        d = Done(
            op, t0, end, result.status, seq=result.seq,
            k=served.k if served is not None else 0,
            **_outcome_fields(served.outcome if served is not None else None),
        )
        if self.traced:
            self._trace(d, result, t_return)
        return d

    @staticmethod
    def _trace(d: Done, result, t_return: float) -> None:
        served = result.result
        d.terms.update({
            "attempts": result.attempts,
            "failover": 1.0 if result.failover else 0.0,
            "shard": -1 if result.shard_id is None else result.shard_id,
        })
        if served is not None:
            # the host is another process: its side of the op is known only
            # as durations, not as intervals on our clock
            d.terms["serve.service.shard_latency"] = served.latency_s
            d.terms["cluster.remote.transport"] = d.latency - served.latency_s
            if served.outcome is not None:
                d.terms["core.block.call"] = served.outcome.elapsed_s
        d.tree = tree = SpanTree(d.op.index)
        root = tree.add("op", d.start, d.end)
        tree.add("cluster.router.submit_call", d.start, t_return, root)
        tree.add("runtime.thread.tau_best", *d.body, root)

    def isolated(self, ops, calls):
        return isolated.cluster_layers(ops, calls, self.shards[0], self.workdir)

    def close(self):
        self.router.stop()  # drains and reaps the hosts; their journals are final
        applied = self.router.audit_applied()
        breaches = [
            f"request {r.seq}: {applied.get(r.seq, 0)} applied block txns"
            for r in self._results if r.committed and applied.get(r.seq, 0) != 1
        ]
        records = wal_bytes = 0
        for shard in self.shards:
            if shard.process_alive():
                breaches.append(f"shard host {shard.shard_id} outlived stop()")
                shard.sigkill()
            wal_bytes += os.path.getsize(shard.journal_path)
            records += len(CommitJournal(storage=FileJournalStorage(shard.journal_path)).records())
        n = max(1, len(self._results))
        return breaches, {
            "journal.records_per_op": records / n,
            "journal.file_bytes_per_op": wal_bytes / n,
        }


WORKLOADS = {w.name: w for w in (BlockFork, ServePaced, ServeSat, ClusterRemote)}
