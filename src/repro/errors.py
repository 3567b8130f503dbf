"""Exception hierarchy for the Multiple Worlds library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class MemoryError_(ReproError):
    """Base class for memory-subsystem errors.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class PageFault(MemoryError_):
    """An access touched a virtual page with no mapping."""

    def __init__(self, vpn: int) -> None:
        super().__init__(f"page fault: no mapping for virtual page {vpn}")
        self.vpn = vpn


class AddressError(MemoryError_):
    """An address or length was invalid (negative, out of segment, ...)."""


class FileSystemError(ReproError):
    """Errors from the single-level-store file layer."""


class KernelError(ReproError):
    """Base class for simulation-kernel errors."""


class InvalidSyscall(KernelError):
    """A process yielded something the kernel does not understand."""


class ProcessDied(KernelError):
    """An operation referenced a process that no longer exists."""


class DeadlockError(KernelError):
    """The simulation reached a state where no process can make progress."""


class PredicateError(ReproError):
    """Inconsistent or malformed predicate manipulation."""


class SourceAccessError(ReproError):
    """A predicated (speculative) process tried to touch a source device.

    The paper (section 2.4.2) forbids observable side effects while a
    process carries unresolved predicates; in ``strict`` gating mode the
    kernel raises this error instead of blocking the offender.
    """


class WorldsError(ReproError):
    """Errors from the high-level Multiple Worlds block API."""


class SpawnError(WorldsError):
    """Creating the worlds themselves failed (fork/thread spawn error).

    Raised when the backend cannot even start the block — e.g. ``fork``
    returning ``EAGAIN`` under process-table pressure (or the fault plane
    simulating it). Distinct from alternatives *failing*: a supervisor
    reacts by degrading to the next backend in its fallback chain rather
    than by retrying alternatives.
    """


class BlockTimeout(WorldsError):
    """No alternative synchronized within the parent's TIMEOUT."""


class NetworkError(ReproError):
    """Simulated-network failures."""


class TransferError(NetworkError):
    """Base class for per-transfer link failures (all retryable)."""


class RetriesExhausted(NetworkError):
    """A bounded-retry loop gave up without a successful delivery.

    ``__cause__`` carries the final attempt's failure; ``attempts`` the
    total number of tries made.
    """

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class JournalError(ReproError):
    """Commit-journal failures (malformed frames, protocol misuse)."""


class JournalCrash(ReproError):
    """An injected crash at a journal fault site.

    Raised by :class:`~repro.journal.wal.CommitJournal` (and the release
    loop of :class:`~repro.journal.gate.SourceGate`) when the fault plan
    schedules a crash for the current transaction: the process is
    considered dead at that instant, with only the journal bytes and the
    real device effects surviving. Test harnesses catch it, run
    :func:`repro.journal.recovery.recover` over the survivors, and
    restart.
    """

    def __init__(self, message: str, kind=None, seq: int | None = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.seq = seq


class InputExhausted(ReproError):
    """A source device was read past the end of its scripted input.

    Raised by :class:`~repro.devices.teletype.Teletype` instead of the
    old silent ``b""`` so a predicated caller cannot mistake "no more
    script" for real data. The kernel rethrows it inside the reading
    program.
    """


class ServeError(ReproError):
    """Errors from the multi-tenant speculation service (``repro.serve``)."""


class AdmissionRejected(ServeError):
    """The admission queue refused a request (backpressure).

    Raised at submit time when the tenant's queue — or the global queue —
    is at its bound. ``retry_after_s`` is the service's backpressure
    hint: an estimate of when capacity will next free up, suitable for a
    client-side backoff.
    """

    def __init__(self, message: str, tenant: str = "", retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.retry_after_s = retry_after_s


class QuotaExceeded(ServeError):
    """A reservation asked for more worlds than the tenant's quota allows."""


class ServiceStopped(ServeError):
    """The speculation service is not running (stopped or never started)."""


class ClusterError(ServeError):
    """Errors from the sharded speculation cluster (``repro.cluster``)."""


class NoSurvivingShard(ClusterError):
    """A request could not be (re-)placed: every candidate shard is down."""


class TransportError(ClusterError):
    """Base class for shard-transport (framed RPC over socket) failures.

    Raised inside one RPC attempt; the client's retry loop treats these
    (plus raw ``ConnectionError``/``TimeoutError``) as retryable.
    """


class WireCorrupt(TransportError):
    """A received frame failed its magic/length/CRC validation.

    The connection is considered poisoned past the corrupt frame (a
    stream cannot resynchronize after a torn length header), so the
    receiver resets it and the sender retries over a fresh connect.
    """


class TransportTimeout(TransportError):
    """One RPC attempt got no response within its per-call timeout."""


class ShardUnreachable(TransportError):
    """A remote shard's transport gave up: the shard is dead, or the
    retries ran out.

    ``sent`` is what the client knows about the frame. False: no attempt
    got as far as writing it (dead state, connects refused), so the
    shard was never reached and the router walks on as from a stopped
    service. True: a frame may have left, so the shard may yet act on
    it — the outcome is unknown, and the router fences the shard and
    reads its ledger before the request goes anywhere else.
    """

    def __init__(self, message: str = "", sent: bool = False) -> None:
        super().__init__(message)
        self.sent = sent

