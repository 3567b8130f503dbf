"""Simulated process records and alternative-group bookkeeping.

Identity model
--------------

The paper's predicates name *processes* (logical computations). A message
split (section 2.4.2) creates "two copies of the receiver" which are the
same logical process under different assumptions. We therefore separate:

- **pid** — the logical process id predicates and messages refer to; all
  split copies of a receiver share it;
- **wid** — the unique world (instance) id the kernel schedules by.

``complete(pid)`` resolves TRUE when any world of ``pid`` synchronizes
successfully, and FALSE when the last world of ``pid`` dies without having
done so.

A world whose predicate set has grown beyond its *birth predicates*
(through message acceptance) may not complete observably until the extra
assumptions resolve — it parks in ``BLOCKED_SYNC``. This closes the
soundness gap of committing a world whose defining assumptions could
still prove false.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.analysis.overhead import OverheadBreakdown
from repro.core.alternative import Alternative
from repro.core.policy import EliminationPolicy
from repro.core.predicates import PredicateSet
from repro.ipc.mailbox import Mailbox
from repro.kernel.syscalls import ChildRecord
from repro.memory.heap import PagedHeap


class ProcState(enum.Enum):
    """Lifecycle of one simulated world."""

    READY = "ready"  # has a costed op, waiting for a CPU
    RUNNING = "running"  # a timeslice is scheduled
    BLOCKED_RECV = "blocked-recv"
    BLOCKED_ALT = "blocked-alt-wait"
    BLOCKED_SOURCE = "blocked-source"  # speculative, tried to touch a source
    BLOCKED_SYNC = "blocked-sync"  # finished, but extra predicates unresolved
    SLEEPING = "sleeping"
    DONE = "done"
    ABORTED = "aborted"
    KILLED = "killed"  # eliminated by resolution, timeout or subtree kill

    @property
    def alive(self) -> bool:
        return self not in (ProcState.DONE, ProcState.ABORTED, ProcState.KILLED)


@dataclass
class AltGroup:
    """One alt_spawn/alt_wait block in flight.

    ``child_pids`` are logical pids (one per alternative actually
    spawned); ``records`` hold per-pid postmortems. Overheads accumulate
    into the paper's three buckets: setup (forks), runtime (COW copies in
    children), completion (commit + sibling elimination).
    """

    group_id: int
    parent_wid: int
    parent_pid: int
    child_pids: list[int] = field(default_factory=list)
    alt_by_pid: dict[int, Alternative] = field(default_factory=dict)
    plain: dict[int, bool] = field(default_factory=dict)  # pid -> wrapped plain fn?
    n_eliminated: int = 0
    policy: EliminationPolicy = EliminationPolicy.ASYNCHRONOUS
    issued_at: float = 0.0  # AltSpawn yielded
    spawned_at: float = 0.0  # children created
    winner_pid: int | None = None
    winner_value: Any = None
    committed_at: float | None = None
    parent_resumed_at: float | None = None
    timed_out: bool = False
    overhead: OverheadBreakdown = field(default_factory=OverheadBreakdown)
    records: dict[int, ChildRecord] = field(default_factory=dict)
    settled: bool = False  # outcome decided (winner, all-failed, or timeout)

    def live_child_pids(self) -> list[int]:
        return [pid for pid, rec in self.records.items() if rec.status == "spawned"]


@dataclass
class SimProcess:
    """One simulated world (instance of a logical process)."""

    wid: int
    pid: int
    name: str
    program: Callable[..., Generator]
    args: tuple = ()
    heap: PagedHeap | None = None
    predicates: PredicateSet = field(default_factory=PredicateSet)
    birth_predicates: PredicateSet = field(default_factory=PredicateSet)
    state: ProcState = ProcState.READY
    parent_wid: int | None = None
    #: logical pids of alt-children this world spawned (for subtree kills)
    child_pids: list[int] = field(default_factory=list)

    # generator machinery
    gen: Generator | None = None
    started: bool = False
    #: replay log: (syscall class name, result) for every completed syscall
    log: list[tuple[str, Any]] = field(default_factory=list)
    cloned_from: int | None = None  # wid of the split original

    # scheduling
    current_op: Any = None
    op_remaining: float = 0.0
    op_result: Any = None
    dispatch_token: int = 0
    timer_token: int = 0
    slice_event: Any = None  # live _Event while RUNNING

    # alt-block roles
    alt_group: AltGroup | None = None  # the block this world is a CHILD of
    own_group: AltGroup | None = None  # the outstanding block this world spawned

    # deferred completion (BLOCKED_SYNC)
    pending_finish: tuple[str, Any] | None = None  # ("done"|..., value)

    # blocking details
    blocked_recv_deadline: float | None = None

    # accounting / results
    cpu_time_s: float = 0.0
    result: Any = None
    error: str | None = None
    finished_at: float | None = None
    mailbox: Mailbox = None  # type: ignore[assignment]
    #: sink device names with writes staged on behalf of this world
    staged_devices: set[str] = field(default_factory=set)
    #: source syscall waiting for predicates to clear
    blocked_source_op: Any = None

    def __post_init__(self) -> None:
        if self.mailbox is None:
            self.mailbox = Mailbox(self.pid)

    @property
    def alive(self) -> bool:
        return self.state.alive

    @property
    def speculative(self) -> bool:
        """True while this world carries any unresolved assumption."""
        return self.predicates.unresolved

    def extra_predicates(self) -> PredicateSet:
        """Assumptions acquired after birth (message splits/acceptance)."""
        return PredicateSet(
            self.predicates.must - self.birth_predicates.must,
            self.predicates.cant - self.birth_predicates.cant,
        )

    def bump_dispatch(self) -> int:
        self.dispatch_token += 1
        return self.dispatch_token

    def bump_timer(self) -> int:
        self.timer_token += 1
        return self.timer_token

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimProcess(wid={self.wid}, pid={self.pid}, "
            f"name={self.name!r}, state={self.state.value})"
        )
