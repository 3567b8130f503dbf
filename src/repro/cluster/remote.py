"""Out-of-process shards: a real shard-host process behind framed RPC.

Until now every :class:`~repro.cluster.shard.ClusterShard` lived inside
the router's process, and "shard death" was a polite simulation
(``crash()`` flips a state enum). This module pushes a shard across a
real OS process boundary:

- :func:`shard_host_main` — the child-process body. It builds an
  ordinary ``ClusterShard`` around a **file-backed**
  :class:`~repro.journal.CommitJournal` (the one thing that survives
  ``kill -9``), listens on a Unix socket, and serves the shard surface
  as framed RPCs (:mod:`repro.cluster.wire`) whose op names are the
  surface's method names (:data:`SHARD_OPS`), plus ``ping``. Request
  handling is idempotent per token, so a client resend after a timeout
  never double-executes an admit.
- :class:`RemoteShardClient` — the parent-side proxy. It implements the
  same flat surface :class:`~repro.cluster.router.ClusterRouter` calls
  on a local ``ClusterShard`` (``state``/``up``/``alive``,
  ``start``/``stop``/``crash``, ``admit``), which is what makes the router
  transport-polymorphic: local and remote shards mix in one hash ring.
  ``admit`` pickles the router's
  :class:`~repro.serve.admission.ServeRequest` into the submit frame
  and returns a ticket the reader thread resolves from the host's
  result push.

Reliability stack, bottom-up:

1. **Framing** — every message is a CRC32-checked frame
   (:mod:`~repro.cluster.wire`); a corrupt frame resets the connection.
2. **Retry** — each RPC runs under
   :func:`repro.distrib.retry.call_with_retries` with a per-call
   timeout, bounded exponential backoff, a total
   :attr:`~repro.distrib.retry.RetryPolicy.deadline_s`, and a stable
   idempotency token, so resends are safe (the host dedupes by token).
   Exhausted retries raise :class:`~repro.errors.ShardUnreachable` with
   ``sent=False`` when no attempt got as far as writing the frame (the
   shard was never reached) and ``sent=True`` when one may have left:
   for an ``admit`` an *unknown outcome* — the host may run the request
   whenever it next reads its socket — so the router crashes the shard
   (SIGKILL) and reads its journal before the request goes elsewhere.
3. **Failover** — a silent host is noticed by the router alone: each
   unanswered ping is a missed beat, and
   :data:`~repro.cluster.router.MISS_THRESHOLD` misses in a row start a
   takeover. The host is crashed by SIGKILL and reap, with no RPC
   before it, and its journal reopened **from the file** for the usual
   replay-or-re-land takeover.

Fault injection rides :data:`~repro.faults.plan.TRANSPORT_SITE`:
``TORN_FRAME`` / ``SOCKET_STALL`` / ``CONNECT_REFUSED`` fire per RPC
attempt inside the client, while ``HOST_SIGSTOP`` / ``HOST_SIGKILL``
are harness-level verdicts (:func:`host_fault_decision`) that freeze or
kill the real child PID.
"""

from __future__ import annotations

import collections
import itertools
import os
import signal
import socket
import tempfile
import threading
import time
from typing import Any

from repro.cluster.shard import ClusterShard, ShardState
from repro.cluster.wire import recv_frame, send_frame, pack_frame
from repro.distrib.retry import RetryPolicy, call_with_retries
from repro.errors import (
    AdmissionRejected,
    ClusterError,
    JournalCrash,
    RetriesExhausted,
    ServiceStopped,
    ShardUnreachable,
    SpawnError,
    TransportError,
    TransportTimeout,
    WireCorrupt,
)
from repro.faults.plan import TRANSPORT_SITE, FaultKind
from repro.journal import CommitJournal, FileJournalStorage, MemoryJournalStorage
from repro.obs import or_null
from repro.runtime.child import ChildProcess
from repro.serve.admission import ServeRequest
from repro.serve.service import ServeTicket

__all__ = [
    "RemoteShardClient",
    "host_fault_decision",
    "shard_host_main",
]

#: Exceptions one RPC attempt may raise that the retry loop should
#: absorb. ``ShardUnreachable`` is deliberately absent: it means the
#: shard is dead or the retries already ran out, so no resend can help.
_RETRYABLE = (
    WireCorrupt,
    TransportTimeout,
    ConnectionError,
    TimeoutError,
    OSError,
)

#: Service-level errors a shard host reports by name over the wire; the
#: client re-raises the same type so the router's handling is identical
#: for local and remote shards.
_WIRE_ERRORS: dict[str, Any] = {
    "AdmissionRejected": AdmissionRejected,
    "ServiceStopped": ServiceStopped,
    "JournalCrash": JournalCrash,
    "ClusterError": ClusterError,
}

#: How long ``start()`` waits for a fresh host to report it is ready.
CONNECT_TIMEOUT_S = 10.0
#: A heartbeat probes, it does not persist: one attempt, a short wait.
HEARTBEAT_TIMEOUT_S = 0.25
HEARTBEAT_POLICY = RetryPolicy(max_retries=0, deadline_s=HEARTBEAT_TIMEOUT_S)
#: Every RPC's resend policy but the heartbeat's: bounded exponential
#: backoff **with a total deadline** (``RetryPolicy.deadline_s``).
RETRY_POLICY = RetryPolicy(
    max_retries=4, base_backoff_s=0.005, multiplier=2.0,
    max_backoff_s=0.1, deadline_s=5.0,
)

_RPC_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)


#: The shard surface that crosses the wire: ``ClusterShard``'s method
#: names are ``RemoteShardClient``'s RPC op names are what ``_ShardHost``
#: dispatches on.
SHARD_OPS = ("admit", "stop")


def host_fault_decision(
    plan, shard_id: int, epoch: int = 0
) -> tuple[FaultKind, float] | None:
    """The plan's verdict on this shard's host process for ``epoch``.

    ``(HOST_SIGKILL, fraction of the burst at which the kill lands)``,
    ``(HOST_SIGSTOP, seconds frozen before SIGCONT)``, or None. Keyed
    like :meth:`~repro.cluster.router.ClusterRouter.crash_decision`, so
    harnesses schedule real-process faults per seed.
    """
    if plan is None:
        return None
    decision = plan.decide(TRANSPORT_SITE, shard_id, epoch)
    if decision.kind in (FaultKind.HOST_SIGKILL, FaultKind.HOST_SIGSTOP):
        return decision.kind, decision.param
    return None


# ---------------------------------------------------------------------------
# The child process: ShardHost
# ---------------------------------------------------------------------------


class _ShardHost:
    """The serving loop inside the child process (one per shard)."""

    def __init__(
        self,
        shard_id: int,
        sock_path: str,
        journal_path: str,
        shard_kwargs: dict | None,
        fault_plan=None,
    ) -> None:
        self.shard_id = shard_id
        self.sock_path = sock_path
        kwargs = dict(shard_kwargs or {})
        self.shard = ClusterShard(
            shard_id,
            journal=journal_path,
            journal_admission=True,
            fault_plan=fault_plan,
            **kwargs,
        )
        self._parent_pid = os.getppid()
        # at-least-once resolve pushes: each stays in the outbox until
        # acked and is replayed on every fresh connection (a duplicate
        # finds no ticket); the outbox and _conn are _send_lock's
        self._outbox: dict[int, dict] = {}
        self._event_seq = 0
        # idempotency: token -> recorded response (minus the call id),
        # so a resend after a timed-out-but-executed call replays the
        # recorded outcome instead of re-executing
        self._done: "collections.OrderedDict[str, dict]" = collections.OrderedDict()
        self._send_lock = threading.Lock()
        self._conn: socket.socket | None = None
        self._shutdown = False

    def _push(self, result) -> None:
        """An admitted request's ticket callback, on the resolving thread."""
        with self._send_lock:
            self._event_seq += 1
            event = self._outbox[self._event_seq] = {
                "push": "resolve", "event": self._event_seq, "result": result,
            }
            if self._conn is not None:
                try:
                    send_frame(self._conn, event)
                except OSError:
                    pass  # the connection died; the next one replays it

    # -- request handling --------------------------------------------------
    def _handle(self, op: str, args: dict) -> Any:
        if op == "ping":  # the reply itself is the answer
            return None
        if op not in SHARD_OPS:
            raise ClusterError(f"shard host: unknown RPC op {op!r}")
        value = getattr(self.shard, op)(**args)
        if op == "admit":  # the result follows as a push
            value.add_done_callback(self._push)
            value = None
        elif op == "stop":
            self._shutdown = True
        return value

    def _respond(self, conn: socket.socket, call_id, body: dict) -> None:
        with self._send_lock:
            send_frame(conn, {"id": call_id, **body})

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            with self._send_lock:  # no push falls between replay and _conn
                self._conn = conn
                for event in self._outbox.values():
                    send_frame(conn, event)
            while not self._shutdown:
                msg = recv_frame(conn)
                if not isinstance(msg, dict):
                    raise WireCorrupt(f"non-dict envelope {type(msg).__name__}")
                if "ack" in msg:  # one-way push acknowledgement
                    with self._send_lock:
                        self._outbox.pop(msg["ack"], None)
                    continue
                call_id = msg.get("id")
                token = msg.get("token", "")
                stall_s = msg.get("stall_s")
                if stall_s:  # injected SOCKET_STALL rides the envelope
                    time.sleep(float(stall_s))
                if token and token in self._done:
                    self._respond(conn, call_id, self._done[token])
                    continue
                try:
                    value = self._handle(msg.get("op", ""), msg.get("args", {}))
                    body = {"ok": True, "value": value}
                except tuple(_WIRE_ERRORS.values()) as exc:
                    body = {
                        "ok": False,
                        "error_type": type(exc).__name__,
                        "message": str(exc),
                        "tenant": getattr(exc, "tenant", ""),
                        "retry_after_s": getattr(exc, "retry_after_s", 0.0),
                        "kind": getattr(exc, "kind", None),
                        "seq": getattr(exc, "seq", None),
                    }
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    body = {
                        "ok": False,
                        "error_type": "ClusterError",
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                if token:
                    self._done[token] = body
                    while len(self._done) > 4096:
                        self._done.popitem(last=False)
                self._respond(conn, call_id, body)
        finally:
            with self._send_lock:
                self._conn = None
            try:
                conn.close()
            except OSError:
                pass

    def run(self, ready=None) -> None:
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(self.sock_path)
            listener.listen(2)
            listener.settimeout(0.5)
            self.shard.start()
            if ready is not None:
                ready()
            while not self._shutdown:
                if os.getppid() != self._parent_pid:
                    break  # orphaned: the parent died without stopping us
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                try:
                    self._serve_conn(conn)
                except (ConnectionError, WireCorrupt, OSError):
                    continue  # reset: the client reconnects and resends
        finally:
            listener.close()
            try:
                os.unlink(self.sock_path)
            except OSError:
                pass


def shard_host_main(
    shard_id: int,
    sock_path: str,
    journal_path: str,
    shard_kwargs: dict | None = None,
    fault_plan=None,
    ready=None,
) -> None:
    """Serve one shard until stopped, killed or orphaned.

    ``ready()``, if given, runs once the socket listens and the shard has
    started: the host process's readiness report.
    """
    host = _ShardHost(shard_id, sock_path, journal_path, shard_kwargs, fault_plan)
    host.run(ready)


# ---------------------------------------------------------------------------
# The parent side: the client
# ---------------------------------------------------------------------------


class _Pending:
    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: dict | None = None
        self.error: BaseException | None = None


class RemoteShardClient:
    """A cluster shard living in its own OS process, by proxy.

    Duck-types the :class:`~repro.cluster.shard.ClusterShard` surface
    the router uses, so ``ClusterRouter([ClusterShard(0),
    RemoteShardClient(1)])`` mixes transports in one ring.

    Parameters
    ----------
    shard_id:
        Ring identity; also every transport fault key.
    workdir:
        Directory for the shard's journal file and socket (default: a
        fresh ``mw-shard-<id>-*`` temp dir). The journal file —
        ``shard-<id>.wal`` plus its ``.quarantine`` sidecar — is the
        shard's durable truth and survives any kill.
    slots / workers:
        Shard sizing, forwarded to the child's ``ClusterShard``.
    call_timeout_s:
        Per-attempt response timeout (resends follow
        :data:`RETRY_POLICY`).
    fault_plan:
        Client-side transport fault injection (TORN_FRAME /
        SOCKET_STALL / CONNECT_REFUSED per attempt).
    host_fault_plan:
        Optional plan forwarded into the child process (journal/serve
        sites fire inside the host — the chaos soak's lever).
    """

    def __init__(
        self,
        shard_id: int,
        workdir: str | None = None,
        slots: int = 2,
        workers: int = 4,
        call_timeout_s: float = 1.0,
        fault_plan=None,
        host_fault_plan=None,
        obs=None,
    ) -> None:
        if shard_id < 0:
            raise ClusterError(f"shard_id must be non-negative, got {shard_id}")
        self.shard_id = shard_id
        self.workdir = workdir or tempfile.mkdtemp(prefix=f"mw-shard-{shard_id}-")
        os.makedirs(self.workdir, exist_ok=True)
        self.journal_path = os.path.join(self.workdir, f"shard-{shard_id}.wal")
        self.sock_path = os.path.join(self.workdir, f"shard-{shard_id}.sock")
        self._shard_kwargs = {"slots": slots, "workers": workers}
        self.call_timeout_s = call_timeout_s
        self.fault_plan = fault_plan
        self.host_fault_plan = host_fault_plan
        self.obs = obs = or_null(obs)
        self.state = ShardState.UP
        self.incarnation = 0
        self._proc: ChildProcess | None = None
        self._sock: socket.socket | None = None
        self._conn_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        # request seq -> the ticket admit() returned; a push pops it, so
        # a replayed duplicate (pushes are at-least-once) finds nothing
        self._tickets: dict[int, ServeTicket] = {}
        self._pending_lock = threading.Lock()
        # one atomic draw per call: the number is the idempotency token
        # and the envelope id, so two callers must never share one
        self._call_seq = itertools.count(1)
        self._journal: CommitJournal | None = None
        self._started = False
        self._stopped_in = False  # SIGSTOP bookkeeping for sigcont()
        reg = obs.registry
        self._rpc_c = reg.counter(
            "mw_transport_rpcs_total", "Shard RPCs by op and outcome",
            labelnames=("shard", "op", "status"),
        )
        self._retry_c = reg.counter(
            "mw_transport_retries_total", "Shard RPC resends",
            labelnames=("shard", "op"),
        )
        self._lat_h = reg.histogram(
            "mw_transport_rpc_latency_seconds",
            "Successful RPC round-trip latency",
            buckets=_RPC_LATENCY_BUCKETS,
        )
        if fault_plan is not None:
            obs.watch_fault_plan(fault_plan)

    # -- obs helpers -------------------------------------------------------
    def _count_rpc(self, op: str, status: str) -> None:
        self._rpc_c.inc(shard=self.shard_id, op=op, status=status)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "RemoteShardClient":
        if self._started and self.process_alive():
            return self
        if self._started:  # restart after a death = a new incarnation
            self.incarnation += 1
            # the reader may not have seen the dead host's EOF yet
            self._terminate()
        try:
            os.unlink(self.sock_path)
        except OSError:
            pass
        try:
            # returns once the host listens and its shard has started
            self._proc = ChildProcess.fork(
                shard_host_main, self.shard_id, self.sock_path,
                self.journal_path, self._shard_kwargs, self.host_fault_plan,
                timeout_s=CONNECT_TIMEOUT_S,
            )
            self._ensure_conn()
        except (SpawnError, OSError) as exc:
            self.crash()
            raise ClusterError(
                f"shard host {self.shard_id} failed to come up: {exc}"
            ) from exc
        self._started = True
        self.state = ShardState.UP
        self._journal = None
        return self

    def process_alive(self) -> bool:
        return self._proc is not None and self._proc.alive()

    @property
    def pid(self) -> int | None:
        return None if self._proc is None else self._proc.pid

    @property
    def up(self) -> bool:
        return self.state is ShardState.UP

    @property
    def alive(self) -> bool:
        """Whether the host *process* is alive."""
        return self.state is not ShardState.DEAD and self.process_alive()

    def stop(self) -> None:
        """Graceful decommission: RPC the host to drain, then reap it."""
        if self.state is ShardState.DEAD:
            self._terminate()
            return
        self.state = ShardState.DRAINING
        try:
            self._call("stop", timeout=max(self.call_timeout_s, 30.0))
        except (TransportError, ClusterError):
            pass  # unreachable: the reap below is the stop
        else:
            if self._proc is not None:
                self._proc.wait(5.0)
        self._terminate()
        self.state = ShardState.DEAD

    def crash(self) -> None:
        """SIGKILL and reap the host: kernel-grade death. Only the journal
        file (plus its ``.quarantine`` sidecar) survives.

        A killed process commits nothing more, so the journal file is
        final once this returns — a takeover that called this is about
        to replay it. A frozen host is not asked first; nothing it could
        answer would make the file more final.
        """
        self.state = ShardState.DEAD
        self._terminate()

    def sigstop(self) -> None:
        """Freeze the host process (transport-level brownout injection)."""
        if self.process_alive():
            self._proc.signal(signal.SIGSTOP)
            self._stopped_in = True

    def sigcont(self) -> None:
        """Thaw a :meth:`sigstop`-frozen host."""
        if self._stopped_in and self._proc is not None:
            self._proc.signal(signal.SIGCONT)
            self._stopped_in = False

    def sigkill(self) -> None:
        """``kill -9`` the host without updating router-visible state —
        the injection entry point: the *detector* must discover this."""
        if self.process_alive():
            self.sigcont()
            self._proc.kill()

    def _terminate(self) -> None:
        self.sigcont()
        if self._proc is not None:
            self._proc.kill()
        self._drop_conn(ConnectionResetError("shard host terminated"))
        self._tickets.clear()  # a dead host pushes nothing more

    # -- the shard surface -------------------------------------------------
    def admit(self, request: ServeRequest) -> ServeTicket:
        # registered before the frame leaves: the push may beat the reply
        ticket = self._tickets[request.seq] = ServeTicket(request.tenant, request.seq)
        try:
            self._call("admit", request=request)
        except BaseException:
            self._tickets.pop(request.seq, None)
            raise
        return ticket

    def snapshot(self) -> dict:
        return {
            "shard": self.shard_id,
            "state": self.state.value,
            "incarnation": self.incarnation,
            "remote": True,
            "pid": self.pid,
        }

    def answers_heartbeat(self) -> bool:
        """One failure-detector beat: a real ping over the socket.

        A dead shard or process never answers; otherwise the answer is
        one short-timeout RPC. A silent host keeps nothing here: the
        router counts the miss, and the next beat pings afresh.
        """
        if not self.alive:
            return False
        try:
            self._call("ping", policy=HEARTBEAT_POLICY, timeout=HEARTBEAT_TIMEOUT_S)
        except (TransportError, ClusterError):
            return False
        return True

    @property
    def journal(self) -> CommitJournal:
        """The shard's journal, read from its file.

        - Host dead: reopen the **file** (torn tail repaired, sidecar
          quarantines recorded) — cached, since the file is final.
        - Host alive: a read-only snapshot of the fsync-durable file
          bytes. Never opened *directly* over the live file: open()
          repairs torn tails by truncating, which must not race the
          host's appends.
        """
        if self._journal is not None:
            return self._journal
        if not self.process_alive():
            journal = CommitJournal(storage=FileJournalStorage(self.journal_path))
            self._journal = journal
            return journal
        try:
            with open(self.journal_path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            blob = b""
        return CommitJournal(storage=MemoryJournalStorage(blob))

    # -- connection management ---------------------------------------------
    def _ensure_conn(self) -> socket.socket:
        with self._conn_lock:
            if self._sock is not None:
                return self._sock
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.call_timeout_s)
            try:
                sock.connect(self.sock_path)
            except OSError:
                sock.close()
                raise
            sock.settimeout(None)
            self._sock = sock
            reader = threading.Thread(
                target=self._reader_loop, args=(sock,),
                name=f"shard-client-{self.shard_id}-reader", daemon=True,
            )
            reader.start()
            return sock

    def _drop_conn(self, error: BaseException) -> None:
        with self._conn_lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            # close() alone leaves the descriptor alive under a reader
            # blocked in recv(), and the host never sees EOF
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for p in pending.values():
            p.error = error
            p.event.set()

    def _reader_loop(self, sock: socket.socket) -> None:
        while True:
            if self._sock is not sock:
                return
            try:
                msg = recv_frame(sock)
            except (ConnectionError, WireCorrupt, OSError) as exc:
                if self._sock is sock:
                    self._drop_conn(
                        exc if isinstance(exc, ConnectionError)
                        else ConnectionResetError(str(exc))
                    )
                return
            if not isinstance(msg, dict):
                continue
            if msg.get("push") == "resolve":
                self._dispatch_push(sock, msg)
                continue
            call_id = msg.get("id")
            with self._pending_lock:
                p = self._pending.pop(call_id, None)
            if p is not None:  # unknown id = a reply that out-lived its call
                p.response = msg
                p.event.set()

    def _dispatch_push(self, sock: socket.socket, msg: dict) -> None:
        result = msg["result"]
        ticket = self._tickets.pop(result.seq, None)
        if ticket is not None:  # None: a replayed duplicate, or not ours now
            ticket._resolve(result)
        try:
            with self._send_lock:
                send_frame(sock, {"ack": msg["event"]})
        except OSError:
            pass  # the host replays it; the ticket is gone by then

    # -- the RPC core ------------------------------------------------------
    def _call(
        self,
        op: str,
        timeout: float | None = None,
        policy: RetryPolicy | None = None,
        **args: Any,
    ) -> Any:
        if self.state is ShardState.DEAD:
            raise ShardUnreachable(f"shard {self.shard_id} is dead")
        policy = policy if policy is not None else RETRY_POLICY
        call_timeout = timeout if timeout is not None else self.call_timeout_s
        call_no = next(self._call_seq)
        token = f"shard{self.shard_id}:{op}:{call_no}"
        plan = self.fault_plan
        tracer = self.obs.tracer
        span_id = -1 if op == "ping" else tracer.begin(
            f"rpc:{op}", cat="transport", track="transport",
            shard=self.shard_id, op=op,
        )
        started = time.monotonic()
        sent = False  # did any attempt get as far as writing the frame?

        def attempt(i: int) -> dict:
            nonlocal sent
            decision = (
                plan.decide(TRANSPORT_SITE, self.shard_id, call_no, i)
                if plan is not None else None
            )
            if decision is not None and decision.kind is FaultKind.CONNECT_REFUSED:
                plan.note_injection(
                    TRANSPORT_SITE, decision.kind,
                    detail=f"shard {self.shard_id} {op} attempt {i}",
                    track="transport", shard=self.shard_id,
                )
                raise ConnectionRefusedError(
                    f"injected connect-refused (shard {self.shard_id})"
                )
            try:
                sock = self._ensure_conn()
                envelope: dict[str, Any] = {
                    "id": (call_no << 8) | i, "op": op,
                    "token": token, "args": args,
                }
                if decision is not None and decision.kind is FaultKind.SOCKET_STALL:
                    plan.note_injection(
                        TRANSPORT_SITE, decision.kind,
                        detail=f"shard {self.shard_id} {op} stalls "
                        f"{decision.param:.3f}s",
                        track="transport", shard=self.shard_id,
                    )
                    envelope["stall_s"] = decision.param
                frame = pack_frame(envelope)
                if decision is not None and decision.kind is FaultKind.TORN_FRAME:
                    plan.note_injection(
                        TRANSPORT_SITE, decision.kind,
                        detail=f"shard {self.shard_id} {op} frame corrupted",
                        track="transport", shard=self.shard_id,
                    )
                    frame = frame[:-1] + bytes([frame[-1] ^ 0xFF])
                p = _Pending()
                with self._pending_lock:
                    self._pending[envelope["id"]] = p
                try:
                    sent = True
                    with self._send_lock:
                        sock.sendall(frame)
                    if not p.event.wait(call_timeout):
                        raise TransportTimeout(
                            f"shard {self.shard_id} {op}: no response in "
                            f"{call_timeout:.3f}s (attempt {i})"
                        )
                finally:
                    with self._pending_lock:
                        self._pending.pop(envelope["id"], None)
                if p.error is not None:
                    raise p.error
                return p.response or {}
            except (ConnectionError, WireCorrupt) as exc:
                self._drop_conn(ConnectionResetError(str(exc)))
                raise

        try:
            response, stats = call_with_retries(
                attempt, policy=policy, token=token, retry_on=_RETRYABLE,
            )
        except RetriesExhausted as exc:
            self._count_rpc(op, "unreachable")
            tracer.end(span_id, disposition="aborted", attempts=exc.attempts)
            raise ShardUnreachable(
                f"shard {self.shard_id} {op}: {exc}", sent=sent
            ) from exc
        if stats.retries:
            self._retry_c.inc(stats.retries, shard=self.shard_id, op=op)
        self._lat_h.observe(time.monotonic() - started)
        if not response.get("ok", False):
            self._count_rpc(op, "error")
            tracer.end(span_id, disposition="aborted",
                       error=response.get("error_type", ""))
            raise self._rebuild_error(response)
        self._count_rpc(op, "ok")
        tracer.end(span_id, disposition="committed", attempts=stats.attempts)
        return response.get("value")

    @staticmethod
    def _rebuild_error(response: dict) -> Exception:
        """Re-raise the host's service-level error as the same type."""
        name = response.get("error_type", "ClusterError")
        message = response.get("message", "remote shard error")
        if name == "AdmissionRejected":
            return AdmissionRejected(
                message, tenant=response.get("tenant", ""),
                retry_after_s=response.get("retry_after_s", 0.0),
            )
        if name == "JournalCrash":
            return JournalCrash(
                message, kind=response.get("kind"), seq=response.get("seq"),
            )
        return _WIRE_ERRORS.get(name, ClusterError)(message)
