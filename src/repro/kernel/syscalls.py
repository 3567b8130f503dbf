"""Syscall objects yielded by simulated programs.

A simulated program is a generator function ``prog(ctx)``; each ``yield``
hands the kernel one of these objects and receives the operation's result:

    def prog(ctx):
        yield Compute(0.5)                  # burn 0.5 s of virtual CPU
        yield HeapPut("x", 41)              # COW-paged state update
        x = yield HeapGet("x")
        msg = yield Recv()                  # may split this world!
        yield Send(msg.sender, x + 1)
        return "done"

Programs must be deterministic given their syscall results — that is what
makes world cloning by replay sound. All randomness therefore flows
through :class:`Draw`, whose results the kernel logs like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.analysis.overhead import OverheadBreakdown
from repro.core.alternative import Alternative
from repro.core.policy import EliminationPolicy


class _Timeout:
    """Singleton returned by Recv/AltWait when the timeout fires first."""

    _instance: "_Timeout | None" = None

    def __new__(cls) -> "_Timeout":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TIMEOUT"

    def __bool__(self) -> bool:
        return False


#: Sentinel result for timed-out blocking operations.
TIMEOUT = _Timeout()


class Syscall:
    """Base class of everything a program may yield."""

    __slots__ = ()


@dataclass(frozen=True)
class Compute(Syscall):
    """Occupy a CPU for ``seconds`` of virtual time."""

    seconds: float


@dataclass(frozen=True)
class Sleep(Syscall):
    """Wait ``seconds`` of virtual time without occupying a CPU."""

    seconds: float


@dataclass(frozen=True)
class HeapPut(Syscall):
    """Store ``value`` under ``key`` in this process's paged heap.

    Costs virtual time proportional to the COW page copies the write
    actually triggers.
    """

    key: str
    value: Any


@dataclass(frozen=True)
class HeapGet(Syscall):
    """Read ``key`` from the heap; returns ``default`` when absent."""

    key: str
    default: Any = None


@dataclass(frozen=True)
class HeapDelete(Syscall):
    """Remove ``key`` from the heap (no-op when absent)."""

    key: str


@dataclass(frozen=True)
class HeapSnapshot(Syscall):
    """The whole heap as a plain dict (read-only convenience)."""


@dataclass(frozen=True)
class Send(Syscall):
    """Send ``data`` to process ``dest``; stamps the sender's predicates.

    Returns the message id. Transfer cost is charged to the sender.
    """

    dest: int
    data: Any


@dataclass(frozen=True)
class Recv(Syscall):
    """Receive the next acceptable message; may SPLIT this world.

    Returns a :class:`repro.ipc.message.Message`, or :data:`TIMEOUT`
    when ``timeout`` (virtual seconds) elapses first.
    """

    timeout: float | None = None


@dataclass(frozen=True)
class AltSpawn(Syscall):
    """Spawn one world per alternative (paper's ``alt_spawn(n)``).

    ``alternatives`` may be :class:`~repro.core.alternative.Alternative`
    objects, generator program functions, or plain callables (run against
    a dict workspace with ``sim_cost`` virtual duration). Returns the list
    of child pids. The parent must not mutate its heap until the matching
    :class:`AltWait` — the paper's parent stays blocked for consistency.
    """

    alternatives: Sequence[Any]


@dataclass(frozen=True)
class AltWait(Syscall):
    """Parent side of the synchronization (paper's ``alt_wait(TIMEOUT)``).

    Blocks until the first successful child commits, every child fails, or
    ``timeout`` virtual seconds pass. Returns an :class:`AltOutcome`.
    """

    timeout: float | None = None
    elimination: EliminationPolicy = EliminationPolicy.ASYNCHRONOUS


@dataclass(frozen=True)
class Abort(Syscall):
    """Terminate this world unsuccessfully (guard failure path).

    ``guard`` marks the abort as the alternative's guard rejecting it:
    the child record then reads ``guard-rejected``, not ``aborted``.
    """

    reason: str = ""
    guard: bool = False


@dataclass(frozen=True)
class DeviceWrite(Syscall):
    """Write to a named device.

    Sink devices stage the write per-world while this process is
    speculative; sources are gated (block or error) until predicates
    resolve.
    """

    device: str
    data: bytes
    offset: int = 0


@dataclass(frozen=True)
class DeviceRead(Syscall):
    """Read from a named device (same gating rules as writes)."""

    device: str
    nbytes: int
    offset: int = 0


@dataclass(frozen=True)
class Draw(Syscall):
    """Kernel-mediated randomness (replay-safe).

    ``kind`` is one of ``uniform``, ``angle``, ``integers``,
    ``exponential``, ``normal``; ``args`` are passed through to
    :class:`repro.util.rng.ReplayableRNG`.
    """

    kind: str
    args: tuple = ()


@dataclass(frozen=True)
class Now(Syscall):
    """The current virtual time in seconds."""


@dataclass(frozen=True)
class GetPid(Syscall):
    """This world's process id."""


@dataclass(frozen=True)
class GetPredicates(Syscall):
    """This world's current predicate set (introspection)."""


@dataclass
class ChildRecord:
    """Postmortem of one alternative child within an AltOutcome."""

    pid: int
    index: int
    name: str
    status: str = "spawned"  # spawned|committed|aborted|guard-rejected|eliminated|timeout-killed
    value: Any = None
    reason: str = ""
    finished_at: float | None = None


@dataclass
class AltOutcome:
    """Result of :class:`AltWait` as seen by the parent program."""

    winner_index: int | None
    winner_pid: int | None
    value: Any
    timed_out: bool = False
    spawned_at: float = 0.0
    committed_at: float = 0.0
    parent_resumed_at: float = 0.0
    overhead: OverheadBreakdown = field(default_factory=OverheadBreakdown)
    children: list[ChildRecord] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.winner_index is None

    @property
    def elapsed_s(self) -> float:
        """Spawn-to-commit virtual time (excludes elimination)."""
        return self.committed_at - self.spawned_at

    @property
    def response_s(self) -> float:
        """Spawn-to-parent-resume virtual time — the paper's metric.

        Includes synchronous elimination; asynchronous elimination keeps
        this equal to :attr:`elapsed_s` (paper section 2.2.1).
        """
        return self.parent_resumed_at - self.spawned_at


def normalize_alternative(alt: Any, index: int) -> Alternative:
    """Coerce an AltSpawn entry into an :class:`Alternative`."""
    if isinstance(alt, Alternative):
        return alt
    if callable(alt):
        return Alternative(alt, name=getattr(alt, "__name__", f"alt{index}"))
    raise TypeError(f"cannot use {alt!r} as an alternative")
