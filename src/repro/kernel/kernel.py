"""The deterministic Multiple Worlds simulation kernel.

See :mod:`repro.kernel` for the overall model. Implementation notes:

**Scheduling.** Discrete-event simulation with ``cpus`` virtual CPUs and
quantum-based round-robin timeslicing: a costed operation is executed in
``quantum_s`` slices, re-queued behind other ready worlds between slices,
so concurrent computations share CPUs the way timeshared processes do.

**World cloning by replay.** A message split clones the receiver. The
kernel logs every syscall result a world has consumed; a clone is built
by forking the original's heap (COW) and re-running its program while
feeding it the logged results and performing no side effects. This
requires programs to be deterministic given syscall results — the reason
all randomness flows through :class:`~repro.kernel.syscalls.Draw`.

**Commit deferral.** A child that synchronizes first becomes the block
winner immediately (completion facts resolve, siblings are eliminated),
but the parent's page-map swap happens when the parent reaches
``alt_wait`` — between ``alt_spawn`` and ``alt_wait`` the parent may only
read, never write, its heap (the paper keeps the parent blocked for
exactly this consistency reason; we enforce it instead).

**Sync gating.** A world whose predicate set grew beyond its birth set
(by accepting predicated messages) may not complete observably until the
extra assumptions resolve; it parks in ``BLOCKED_SYNC``. This closes the
soundness gap of committing a world whose defining assumptions could
still prove false, and guarantees that at commit time no conflicting
sibling interpretation of the same logical process is still alive.

**Settling.** A completion fact is only *recorded* where it arises; one
non-reentrant loop (:meth:`Kernel._settle`) applies recorded facts to
every live world before any world is woken, any blocked receiver retries
the receive rule, or any parent resumes — so nothing acts on a
half-applied resolution.
"""

from __future__ import annotations

import heapq
import inspect
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.analysis.calibration import MODERN_SIM, MachineProfile
from repro.core.alternative import Alternative, GuardPlacement
from repro.core.policy import EliminationPolicy
from repro.core.predicates import MessageDecision, PredicateSet, world_key
from repro.devices.device import Device, SinkDevice
from repro.devices.teletype import Teletype
from repro.errors import (
    DeadlockError,
    InputExhausted,
    InvalidSyscall,
    KernelError,
    ProcessDied,
    SourceAccessError,
)
from repro.ipc.message import Message
from repro.ipc.router import decide_receive
from repro.kernel import syscalls as sc
from repro.kernel.context import Context
from repro.kernel.process import AltGroup, ProcState, SimProcess
from repro.kernel.trace import Trace
from repro.memory.frame import FramePool
from repro.memory.heap import PagedHeap
from repro.util.ids import IdAllocator
from repro.util.rng import ReplayableRNG

_MAX_INLINE_OPS = 100_000


@dataclass(frozen=True)
class UtilizationReport:
    """CPU-seconds accounting: the throughput side of the ledger."""

    wall_s: float
    cpus: int
    useful_cpu_s: float
    wasted_cpu_s: float
    background_cpu_s: float

    @property
    def total_cpu_s(self) -> float:
        return self.useful_cpu_s + self.wasted_cpu_s + self.background_cpu_s

    @property
    def utilization(self) -> float:
        """Fraction of available CPU-time consumed (any purpose)."""
        capacity = self.wall_s * self.cpus
        return self.total_cpu_s / capacity if capacity > 0 else 0.0

    @property
    def speculation_waste(self) -> float:
        """Fraction of consumed CPU spent on eliminated worlds."""
        if self.total_cpu_s == 0:
            return 0.0
        return (self.wasted_cpu_s + self.background_cpu_s) / self.total_cpu_s


class _InternalOp(sc.Syscall):
    """Kernel-generated costed op (elimination charge, split charge)."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label


class _Event:
    """One entry of the virtual-time event queue."""

    __slots__ = ("time", "seq", "kind", "data", "cancelled")

    def __init__(self, time: float, seq: int, kind: str, data: tuple) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.data = data
        self.cancelled = False

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def _differs(a: Any, b: Any) -> bool:
    """Conservative inequality: uncomparable values count as changed."""
    if a is b:
        return False
    try:
        return bool(a != b)
    except Exception:
        return True


def _plain_program(alt: Alternative) -> Callable:
    """Wrap a plain-callable alternative into a simulated program.

    The callable runs against a dict workspace unpickled from the heap;
    changed keys are written back (each write paying its true COW cost),
    and ``alt.sim_cost`` supplies the virtual compute duration.
    """

    in_child = bool(alt.guard.placement & GuardPlacement.IN_CHILD)

    def prog(ctx: Context):
        workspace = yield sc.HeapSnapshot()
        if in_child and not alt.guard.passes_entry(workspace):
            yield sc.Abort(f"guard {alt.guard.name!r} rejected entry")
        cost = alt.cost_for(workspace)
        if cost > 0:
            yield sc.Compute(cost)
        try:
            value = alt.fn(workspace)
        except Exception as exc:
            yield sc.Abort(f"alternative raised {exc!r}")
            return None  # pragma: no cover - Abort never resumes
        baseline = yield sc.HeapSnapshot()
        for key, val in workspace.items():
            if key not in baseline or _differs(baseline[key], val):
                yield sc.HeapPut(key, val)
        for key in baseline:
            if key not in workspace:
                yield sc.HeapDelete(key)
        if in_child and not alt.guard.passes_result(workspace, value):
            yield sc.Abort(f"guard {alt.guard.name!r} rejected result")
        return value

    prog.__name__ = f"plain:{alt.name}"
    return prog


# _issue() outcome tags
_INLINE = "inline"  # zero-cost op completed; continue the generator
_PARKED = "parked"  # world parked (costed op queued, blocked, or dead)
_THROW = "throw"  # raise this exception inside the program


class _ExhaustedMarker:
    """Replay-log sentinel: this DeviceRead raised InputExhausted.

    Logged in place of a result so deterministic replay (migration,
    world-splitting) rethrows the exhaustion at the same point instead
    of feeding the program a value it never saw.
    """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "INPUT_EXHAUSTED"


#: The singleton logged for exhausted reads (module-level so pickled
#: replay logs resolve it by reference).
INPUT_EXHAUSTED = _ExhaustedMarker()


class Kernel:
    """A simulated machine running Multiple Worlds programs.

    Parameters
    ----------
    profile:
        Cost constants (see :mod:`repro.analysis.calibration`).
    cpus:
        Virtual CPU count; defaults to ``profile.cpus``.
    seed:
        Seed for kernel-mediated randomness (:class:`Draw` syscalls).
    source_policy:
        ``"block"`` parks a speculative world touching a source until its
        predicates resolve; ``"strict"`` raises
        :class:`~repro.errors.SourceAccessError` inside the program.
    trace:
        Record :class:`~repro.kernel.trace.TraceEvent` history.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`. Enables the
        kernel's deterministic fault hooks: message drop/delay (decided
        per ``msg_id`` via :func:`repro.ipc.router.fault_filter`) and
        per-op compute stalls (decided per ``(wid, op_number)``). Faults
        change timing and delivery, never the replay log contents, so
        world cloning stays sound under injection.
    journal:
        Optional :class:`~repro.journal.wal.CommitJournal`. When set,
        every winner synchronization, parent commit, elimination and
        predicate split runs as an intent -> seal -> apply transaction,
        and an injected journal crash
        (:class:`~repro.errors.JournalCrash`) propagates out of
        :meth:`run` — the process is dead at that instant, with only the
        journal bytes and real device effects surviving. When None
        (default) no journaling happens and behaviour is unchanged.
    obs:
        Optional :class:`~repro.obs.Observability`. When set, the kernel
        emits one span per world (track = wid, carrying pid / lineage /
        disposition), one span per alternative block (with the commit
        latency breakdown), split/fault annotation instants, and the
        ``mw_worlds_total`` / ``mw_mem_*`` metrics — all in virtual
        time. When None (default) no telemetry calls happen at all.
    """

    def __init__(
        self,
        profile: MachineProfile = MODERN_SIM,
        cpus: int | None = None,
        seed: int = 0,
        source_policy: str = "block",
        trace: bool = False,
        max_worlds: int = 10_000,
        fault_plan=None,
        journal=None,
        obs=None,
    ) -> None:
        """``max_worlds`` bounds total world creation — the defence
        against the abstract's "combinatorial explosion" when message
        splits multiply (each speculative message can double a receiver's
        world count)."""
        if source_policy not in ("block", "strict"):
            raise ValueError(f"unknown source policy {source_policy!r}")
        if max_worlds < 1:
            raise ValueError("max_worlds must be positive")
        self.max_worlds = max_worlds
        self.profile = profile
        self.cpus = cpus if cpus is not None else profile.cpus
        if self.cpus < 1:
            raise ValueError("need at least one CPU")
        self.pool = FramePool(profile.page_size)
        self.rng = ReplayableRNG(seed)
        self.source_policy = source_policy
        self.trace = Trace(enabled=trace)
        self.fault_plan = fault_plan
        self.journal = journal
        self.faults_injected: list[dict] = []
        self.obs = None
        if obs is not None:
            from repro.obs.integrate import KernelObserver

            self.obs = KernelObserver(obs, self)

        self.now = 0.0
        self.worlds: dict[int, SimProcess] = {}
        self.pid_worlds: dict[int, list[int]] = {}
        self.groups: dict[int, AltGroup] = {}
        self.devices: dict[str, Device] = {}
        self.add_device(Teletype("tty"))

        self._pids = IdAllocator(1)
        self._wids = IdAllocator(1)
        self._group_ids = IdAllocator(1)
        self._msg_ids = IdAllocator(1)
        self._event_seq = IdAllocator(1)
        self._events: list[_Event] = []
        self._ready: deque[int] = deque()
        self._cpus_busy = 0
        #: resolved completion facts per logical pid
        self.facts: dict[int, bool] = {}
        self._committed: set[int] = set()
        # the settle loop's worklists (see _settle)
        self._settling = False
        self._unapplied: deque[tuple[int, bool]] = deque()
        self._shrunk: dict[int, SimProcess] = {}  # by wid, oldest first
        self._outcomes: deque[AltGroup] = deque()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Machine-wide memory counters (shared frame pool)."""
        return self.pool.stats

    def add_device(self, device: Device) -> None:
        self.devices[device.name] = device

    def device(self, name: str) -> Device:
        try:
            return self.devices[name]
        except KeyError:
            raise KernelError(f"no device named {name!r}") from None

    def spawn(
        self,
        program: Callable,
        *args: Any,
        name: str | None = None,
        heap_init: dict[str, Any] | None = None,
    ) -> int:
        """Create an unpredicated root process; returns its pid."""
        if not inspect.isgeneratorfunction(program):
            raise KernelError(
                f"root programs must be generator functions, got {program!r}"
            )
        pid = self._pids.next()
        world = SimProcess(
            wid=self._wids.next(),
            pid=pid,
            name=name or getattr(program, "__name__", f"proc{pid}"),
            program=program,
            args=args,
            heap=PagedHeap(pool=self.pool),
        )
        if heap_init:
            world.heap.update(heap_init)
        self._register(world)
        self._start_world(world)
        return pid

    def worlds_of(self, pid: int) -> list[SimProcess]:
        """All worlds (live and dead) of one logical pid."""
        return [self.worlds[w] for w in self.pid_worlds.get(pid, [])]

    def live_worlds(self) -> list[SimProcess]:
        return [w for w in self.worlds.values() if w.alive]

    def _live_worlds_of(self, pids) -> list[SimProcess]:
        """The live worlds of the given logical pids, in wid order per pid."""
        return [
            self.worlds[w]
            for pid in pids
            for w in self.pid_worlds.get(pid, [])
            if self.worlds[w].alive
        ]

    def result_of(self, pid: int) -> Any:
        """The result of ``pid``'s successful completion.

        Raises :class:`ProcessDied` when no world of the pid completed.
        """
        for world in self.worlds_of(pid):
            if world.state is ProcState.DONE:
                return world.result
        raise ProcessDied(f"process {pid} did not complete successfully")

    def heap_of(self, pid: int) -> PagedHeap:
        """The heap of the most relevant world of ``pid`` (live, else done)."""
        candidates = self.worlds_of(pid)
        for world in candidates:
            if world.alive:
                return world.heap
        for world in candidates:
            if world.state is ProcState.DONE and world.heap is not None:
                return world.heap
        raise ProcessDied(f"no inspectable world for pid {pid}")

    def utilization_report(self) -> "UtilizationReport":
        """Response-vs-throughput accounting over the whole run.

        The paper trades throughput for response time; this report makes
        the trade measurable: CPU seconds consumed by worlds that
        completed (useful), by eliminated/aborted worlds (wasted
        speculation), and by kernel background work (reapers).
        """
        useful = wasted = background = 0.0
        for world in self.worlds.values():
            if world.name.startswith("reaper-"):
                background += world.cpu_time_s
            elif world.state is ProcState.DONE:
                useful += world.cpu_time_s
            elif not world.alive:
                wasted += world.cpu_time_s
            else:
                useful += world.cpu_time_s  # still running: assume useful
        return UtilizationReport(
            wall_s=self.now,
            cpus=self.cpus,
            useful_cpu_s=useful,
            wasted_cpu_s=wasted,
            background_cpu_s=background,
        )

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Advance the simulation; returns the final virtual time.

        Runs until no events remain (or virtual time passes ``until`` /
        ``max_events`` events fire). Raises :class:`DeadlockError` if live
        worlds remain blocked with nothing pending.
        """
        fired = 0
        self._dispatch()
        while self._events:
            if max_events is not None and fired >= max_events:
                return self.now
            event = heapq.heappop(self._events)
            if event.cancelled:
                continue
            if until is not None and event.time > until:
                heapq.heappush(self._events, event)
                self.now = until
                return self.now
            self.now = event.time
            fired += 1
            self._handle_event(event)
            self._dispatch()
        stuck = [w for w in self.worlds.values() if w.alive]
        if stuck and until is None:
            self._raise_stuck(stuck)
        return self.now

    def _raise_stuck(self, stuck: list[SimProcess]) -> None:
        """Nothing is pending yet worlds live: say what each still assumes.

        A literal whose fact is settled is not a deadlock of the simulated
        program but a resolution this kernel lost, and is raised as that.
        """
        def assumed(predicates: PredicateSet) -> str:
            return ", ".join(
                f"{text} [settled {self.facts[key]}]" if key in self.facts
                else f"{text} [open]"
                for key, text in predicates.literals()
            ) or "nothing"

        detail = "; ".join(
            f"pid {w.pid} (wid {w.wid}, {w.name}) {w.state.value} assuming "
            + assumed(w.predicates)
            + "".join(
                f", queued msg {m.msg_id} assuming {assumed(m.predicate)}"
                for m in w.mailbox
            )
            for w in stuck
        )
        held = [p for w in stuck for p in (w.predicates, *(m.predicate for m in w.mailbox))]
        if any(key in self.facts for p in held for key in p.all_pids()):
            raise KernelError(
                f"a live world or queued message references a settled fact: {detail}"
            )
        raise DeadlockError(f"no runnable work but live worlds remain: {detail}")

    # ------------------------------------------------------------------
    # registration / startup
    # ------------------------------------------------------------------
    def _register(self, world: SimProcess) -> None:
        if len(self.worlds) >= self.max_worlds:
            raise KernelError(
                f"world limit reached ({self.max_worlds}): speculative "
                "state is exploding; raise max_worlds or restructure the "
                "program (see Kernel docs)"
            )
        self.worlds[world.wid] = world
        self.pid_worlds.setdefault(world.pid, []).append(world.wid)
        self.trace.record(self.now, "spawn", world.pid, wid=world.wid, name=world.name)
        if self.obs is not None:
            self.obs.world_started(self.now, world)

    def _start_world(self, world: SimProcess) -> None:
        """Create the generator and advance to its first real operation."""
        ctx = Context(world.pid, world.name)
        world.gen = world.program(ctx, *world.args)
        world.started = True
        self._advance(world, None)

    # ------------------------------------------------------------------
    # the generator driver
    # ------------------------------------------------------------------
    def _advance(self, world: SimProcess, send_value: Any, throw: BaseException | None = None) -> None:
        """Run ``world`` until it parks on a costed/blocking op or finishes.

        A completed operation's side effects can cascade (a routed
        message may resolve facts that eliminate the very sender), so a
        world that died between its op completing and this resume is
        left untouched.
        """
        if not world.alive or world.gen is None:
            return
        for _ in range(_MAX_INLINE_OPS):
            try:
                if throw is not None:
                    exc, throw = throw, None
                    op = world.gen.throw(exc)
                else:
                    op = world.gen.send(send_value)
            except StopIteration as stop:
                self._finish_normal(world, stop.value)
                return
            except Exception as exc:
                self._finish_abort(world, f"uncaught {exc!r}")
                return

            if not isinstance(op, sc.Syscall):
                throw = InvalidSyscall(f"program yielded non-syscall {op!r}")
                send_value = None
                continue

            action, payload = self._issue(world, op)
            if action == _PARKED:
                return
            if action == _THROW:
                throw = payload
                send_value = None
                continue
            send_value = payload  # inline result
        self._finish_abort(world, "runaway program: too many inline operations")

    def _log(self, world: SimProcess, op: sc.Syscall, result: Any) -> None:
        world.log.append((type(op).__name__, result))

    def _issue(self, world: SimProcess, op: sc.Syscall) -> tuple[str, Any]:
        """Start one syscall; returns an (_INLINE/_PARKED/_THROW, payload) pair."""
        # ---- zero-cost immediate syscalls -------------------------------
        if isinstance(op, sc.HeapGet):
            value = world.heap.get(op.key) if op.key in world.heap else op.default
            self._log(world, op, value)
            return _INLINE, value
        if isinstance(op, sc.HeapSnapshot):
            snap = world.heap.as_dict()
            self._log(world, op, snap)
            return _INLINE, snap
        if isinstance(op, sc.HeapDelete):
            if world.own_group is not None:
                return _THROW, self._frozen_heap_error()
            if op.key in world.heap:
                world.heap.delete(op.key)
            self._log(world, op, None)
            return _INLINE, None
        if isinstance(op, sc.Now):
            self._log(world, op, self.now)
            return _INLINE, self.now
        if isinstance(op, sc.GetPid):
            self._log(world, op, world.pid)
            return _INLINE, world.pid
        if isinstance(op, sc.GetPredicates):
            self._log(world, op, world.predicates)
            return _INLINE, world.predicates
        if isinstance(op, sc.Draw):
            try:
                value = self._draw(op)
            except InvalidSyscall as exc:
                return _THROW, exc
            self._log(world, op, value)
            return _INLINE, value

        # ---- terminal ----------------------------------------------------
        if isinstance(op, sc.Abort):
            self._finish_abort(world, op.reason or "aborted")
            return _PARKED, None

        # ---- heap writes (costed by true COW copies) ---------------------
        if isinstance(op, sc.HeapPut):
            if world.own_group is not None:
                return _THROW, self._frozen_heap_error()
            before = self.pool.stats.snapshot()
            world.heap.put(op.key, op.value)
            copied = self.pool.stats.delta(before).pages_copied
            cost = self.profile.copy_cost(copied)
            if world.alt_group is not None:
                world.alt_group.overhead.runtime_s += cost
            if cost <= 0:
                self._log(world, op, None)
                return _INLINE, None
            self._park_costed(world, op, cost, None)
            return _PARKED, None

        # ---- messaging ----------------------------------------------------
        if isinstance(op, sc.Send):
            msg = Message(
                sender=world.pid,
                dest=op.dest,
                data=op.data,
                msg_id=self._msg_ids.next(),
                sent_at=self.now,
                sender_world=world.wid,
            )
            cost = self.profile.message_cost(msg.size_bytes())
            self._park_costed(world, op, cost, msg)
            return _PARKED, None

        if isinstance(op, sc.Recv):
            # the deadline belongs to this recv, set (or cleared) as it
            # issues: a clone split off it, blocked or not, inherits it
            world.recv_deadline = None if op.timeout is None else self.now + op.timeout
            got = self._try_receive(world)
            if got is not None:
                msg, split_cost = got
                if split_cost > 0:
                    self._park_costed(world, _InternalOp("recv-split"), split_cost, msg)
                    return _PARKED, None
                self._log(world, op, msg)
                return _INLINE, msg
            world.state = ProcState.BLOCKED_RECV
            if world.recv_deadline is not None:
                self._set_timer(world, world.recv_deadline, "recv")
            self.trace.record(self.now, "recv-block", world.pid, wid=world.wid)
            return _PARKED, None

        # ---- worlds ----------------------------------------------------------
        if isinstance(op, sc.AltSpawn):
            if world.own_group is not None:
                return _THROW, KernelError(
                    "alt_spawn while a previous block awaits alt_wait"
                )
            if not op.alternatives:
                return _THROW, KernelError("alt_spawn needs at least one alternative")
            try:
                alts = [
                    sc.normalize_alternative(a, i)
                    for i, a in enumerate(op.alternatives)
                ]
            except TypeError as exc:
                return _THROW, KernelError(str(exc))
            # BEFORE_SPAWN guards run serially in the parent, before any
            # fork cost is paid (paper: "thus improving throughput at the
            # expense of response time")
            plan: list[tuple[int, Alternative, bool]] = []
            parent_snapshot: dict[str, Any] | None = None
            for index, alt in enumerate(alts):
                passed = True
                if (
                    alt.guard.placement & GuardPlacement.BEFORE_SPAWN
                    and alt.guard.check is not None
                ):
                    if parent_snapshot is None:
                        parent_snapshot = world.heap.as_dict()
                    try:
                        passed = bool(alt.guard.passes_entry(parent_snapshot))
                    except Exception:
                        passed = False
                plan.append((index, alt, passed))
            pages = len(world.heap.space.table)
            cost = self.profile.fork_cost(pages) * sum(
                1 for _, _, passed in plan if passed
            )
            self._park_costed(world, op, cost, plan)
            return _PARKED, None

        if isinstance(op, sc.AltWait):
            group = world.own_group
            if group is None:
                return _THROW, KernelError("alt_wait without alt_spawn")
            group.policy = op.elimination
            if group.settled:
                self._deliver_alt_outcome(world, group)
                return _PARKED, None
            world.state = ProcState.BLOCKED_ALT
            if op.timeout is not None:
                self._set_timer(world, self.now + op.timeout, "altwait")
            self.trace.record(self.now, "alt-wait", world.pid, wid=world.wid)
            return _PARKED, None

        # ---- time -------------------------------------------------------------
        if isinstance(op, sc.Compute):
            if op.seconds < 0:
                return _THROW, InvalidSyscall("negative compute time")
            if op.seconds == 0:
                self._log(world, op, None)
                return _INLINE, None
            seconds = op.seconds + self._stall_for(world)
            self._park_costed(world, op, seconds, None)
            return _PARKED, None

        if isinstance(op, sc.Sleep):
            if op.seconds <= 0:
                self._log(world, op, None)
                return _INLINE, None
            world.state = ProcState.SLEEPING
            self._set_timer(world, self.now + op.seconds, "sleep")
            return _PARKED, None

        # ---- devices -------------------------------------------------------------
        if isinstance(op, (sc.DeviceRead, sc.DeviceWrite)):
            device = self.devices.get(op.device)
            if device is None:
                return _THROW, KernelError(f"no device {op.device!r}")
            if device.is_source and world.speculative:
                if self.source_policy == "strict":
                    return _THROW, SourceAccessError(
                        f"speculative world pid {world.pid} touched source "
                        f"{device.name!r}"
                    )
                world.state = ProcState.BLOCKED_SOURCE
                world.blocked_source_op = op
                self.trace.record(
                    self.now, "source-block", world.pid,
                    wid=world.wid, device=device.name,
                )
                return _PARKED, None
            self._park_costed(world, op, self.profile.device_latency_s, None)
            return _PARKED, None

        return _THROW, InvalidSyscall(f"unknown syscall {op!r}")

    @staticmethod
    def _frozen_heap_error() -> KernelError:
        return KernelError(
            "parent may not modify its heap between alt_spawn and alt_wait "
            "(the paper's parent stays blocked for consistency)"
        )

    def _draw(self, op: sc.Draw) -> Any:
        kind = op.kind
        if kind == "uniform":
            return self.rng.uniform(*op.args)
        if kind == "integers":
            return self.rng.integers(*op.args)
        if kind == "angle":
            return self.rng.angle()
        if kind == "exponential":
            return self.rng.exponential(*op.args)
        if kind == "normal":
            return self.rng.normal(*op.args)
        raise InvalidSyscall(f"unknown draw kind {kind!r}")

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _park_costed(self, world: SimProcess, op: sc.Syscall, cost: float, result: Any) -> None:
        world.current_op = op
        world.op_remaining = cost
        world.op_result = result
        world.state = ProcState.READY
        self._ready.append(world.wid)

    def _dispatch(self) -> None:
        while self._cpus_busy < self.cpus and self._ready:
            wid = self._ready.popleft()
            world = self.worlds.get(wid)
            if world is None or world.state is not ProcState.READY:
                continue
            slice_s = min(self.profile.quantum_s, world.op_remaining)
            world.state = ProcState.RUNNING
            token = world.bump_dispatch()
            event = self._push_event(self.now + slice_s, "slice", (wid, token, slice_s))
            world.slice_event = event
            self._cpus_busy += 1

    def _push_event(self, time: float, kind: str, data: tuple) -> _Event:
        event = _Event(time, self._event_seq.next(), kind, data)
        heapq.heappush(self._events, event)
        return event

    def _set_timer(self, world: SimProcess, deadline: float, tag: str) -> None:
        token = world.bump_timer()
        self._push_event(deadline, "timer", (world.wid, token, tag))

    def _handle_event(self, event: _Event) -> None:
        if event.kind == "slice":
            self._on_slice(event)
        elif event.kind == "timer":
            self._on_timer(event)
        elif event.kind == "route":
            # a fault-delayed message reaching its rescheduled delivery
            self._route_message(event.data[0], fault_checked=True)
        else:  # pragma: no cover - defensive
            raise KernelError(f"unknown event kind {event.kind!r}")

    def _stall_for(self, world: SimProcess) -> float:
        """Injected extra virtual seconds for this world's next costed op."""
        if self.fault_plan is None:
            return 0.0
        from repro.faults.plan import COMPUTE_SITE, FaultKind

        decision = self.fault_plan.decide(COMPUTE_SITE, world.wid, len(world.log))
        if decision.kind is not FaultKind.STALL:
            return 0.0
        self.faults_injected.append(
            {"kind": "stall", "wid": world.wid, "pid": world.pid, "extra_s": decision.param}
        )
        self.trace.record(
            self.now, "fault-stall", world.pid, wid=world.wid, extra_s=decision.param
        )
        self.fault_plan.note_injection(
            COMPUTE_SITE, "stall", t=self.now, track=world.wid,
            wid=world.wid, pid=world.pid, extra_s=decision.param,
        )
        return decision.param

    def _on_slice(self, event: _Event) -> None:
        wid, token, slice_s = event.data
        self._cpus_busy -= 1
        world = self.worlds.get(wid)
        if world is None or world.state is not ProcState.RUNNING or world.dispatch_token != token:
            return
        world.slice_event = None
        world.cpu_time_s += slice_s
        world.op_remaining -= slice_s
        if world.op_remaining > 1e-12:
            world.state = ProcState.READY
            self._ready.append(wid)
        else:
            self._complete_op(world)

    def _on_timer(self, event: _Event) -> None:
        wid, token, tag = event.data
        world = self.worlds.get(wid)
        if world is None or world.timer_token != token or not world.alive:
            return
        if tag == "sleep" and world.state is ProcState.SLEEPING:
            if not world.started:
                # staggered spawn: the program starts only now, so no
                # Sleep entry is logged (the program never yielded one)
                self._start_world(world)
            else:
                self._log(world, sc.Sleep(0), None)
                self._advance(world, None)
        elif tag == "recv" and world.state is ProcState.BLOCKED_RECV:
            self._log(world, sc.Recv(), sc.TIMEOUT)
            self.trace.record(self.now, "recv-timeout", world.pid, wid=world.wid)
            self._advance(world, sc.TIMEOUT)
        elif tag == "altwait" and world.state is ProcState.BLOCKED_ALT:
            group = world.own_group
            if group is None or group.settled:
                return
            self._timeout_group(world, group)

    # ------------------------------------------------------------------
    # op completion
    # ------------------------------------------------------------------
    def _complete_op(self, world: SimProcess) -> None:
        op = world.current_op
        world.current_op = None
        if isinstance(op, (sc.Compute, sc.HeapPut)):
            self._log(world, op, None)
            self._advance(world, None)
        elif isinstance(op, _InternalOp):
            result = world.op_result
            if op.label == "recv-split":
                self._log(world, sc.Recv(), result)
            elif op.label == "alt-outcome":
                self._log(world, sc.AltWait(), result)
            else:
                self._log(world, op, None)
            self._advance(world, result)
        elif isinstance(op, sc.Send):
            # the sender's assumptions are stamped as the message leaves:
            # a fact that settled during the costed send has reached the
            # world's predicate set, and nothing else holds the message yet
            msg = replace(world.op_result, predicate=world.predicates)
            self._route_message(msg)
            self._log(world, op, msg.msg_id)
            self._advance(world, msg.msg_id)
        elif isinstance(op, sc.AltSpawn):
            self._complete_altspawn(world, op)
        elif isinstance(op, sc.DeviceRead):
            try:
                result = self._do_device_read(world, op)
            except InputExhausted as exc:
                # scripted input ran out: the program gets the exception
                # (it may catch it as EOF); the log gets a sentinel so
                # replay rethrows at the same point.
                self._log(world, op, INPUT_EXHAUSTED)
                self.trace.record(
                    self.now, "input-exhausted", world.pid,
                    wid=world.wid, device=op.device,
                )
                self._advance(world, None, throw=exc)
            else:
                self._log(world, op, result)
                self._advance(world, result)
        elif isinstance(op, sc.DeviceWrite):
            result = self._do_device_write(world, op)
            self._log(world, op, result)
            self._advance(world, result)
        else:  # pragma: no cover - defensive
            raise KernelError(f"cannot complete op {op!r}")

    # ------------------------------------------------------------------
    # devices
    # ------------------------------------------------------------------
    def _do_device_read(self, world: SimProcess, op: sc.DeviceRead) -> bytes:
        device = self.device(op.device)
        if isinstance(device, SinkDevice):
            return device.read(op.nbytes, offset=op.offset, world=world.wid)
        return device.read(op.nbytes, client=world.pid)

    def _do_device_write(self, world: SimProcess, op: sc.DeviceWrite) -> int:
        device = self.device(op.device)
        if isinstance(device, SinkDevice) and world.speculative:
            world.staged_devices.add(device.name)
            return device.stage_write(world.wid, op.data, offset=op.offset)
        if isinstance(device, SinkDevice):
            return device.write(op.data, offset=op.offset)
        return device.write(op.data, client=world.pid)

    # ------------------------------------------------------------------
    # messaging: routing, receive rule, world splitting
    # ------------------------------------------------------------------
    def _route_message(self, msg: Message, fault_checked: bool = False) -> None:
        if self.fault_plan is not None and not fault_checked:
            from repro.ipc.router import fault_filter

            verdict, delay_s = fault_filter(msg, self.fault_plan)
            if verdict == "drop":
                self.faults_injected.append({"kind": "msg-drop", "msg_id": msg.msg_id})
                self.trace.record(
                    self.now, "fault-msg-drop", msg.dest,
                    msg_id=msg.msg_id, sender=msg.sender,
                )
                self.fault_plan.note_injection(
                    "message", "msg-drop", t=self.now,
                    msg_id=msg.msg_id, sender=msg.sender, dest=msg.dest,
                )
                return
            if verdict == "delay":
                self.faults_injected.append(
                    {"kind": "msg-delay", "msg_id": msg.msg_id, "delay_s": delay_s}
                )
                self.trace.record(
                    self.now, "fault-msg-delay", msg.dest,
                    msg_id=msg.msg_id, delay_s=delay_s,
                )
                self.fault_plan.note_injection(
                    "message", "msg-delay", t=self.now,
                    msg_id=msg.msg_id, delay_s=delay_s, dest=msg.dest,
                )
                self._push_event(self.now + delay_s, "route", (msg,))
                return
        targets = self._live_worlds_of([msg.dest])
        if not targets:
            self.trace.record(self.now, "dead-letter", msg.dest, msg_id=msg.msg_id)
            return
        for world in targets:
            world.mailbox.deliver(msg)
            self.trace.record(
                self.now, "deliver", world.pid, wid=world.wid,
                msg_id=msg.msg_id, sender=msg.sender,
            )
        if not self._settling:
            self._settle()  # step 3 reaches the targets blocked in recv

    def _pump_blocked_receiver(self, world: SimProcess) -> None:
        """Retry the receive rule for a world blocked in recv."""
        got = self._try_receive(world)
        if got is None:
            return
        received, split_cost = got
        world.bump_timer()  # cancel any recv timeout
        if split_cost > 0:
            self._park_costed(world, _InternalOp("recv-split"), split_cost, received)
        else:
            self._log(world, sc.Recv(), received)
            self._advance(world, received)

    def _try_receive(self, world: SimProcess) -> tuple[Message, float] | None:
        """Apply the receive rule to the mailbox head(s).

        Returns (message, extra_cost) when a message is accepted —
        ``extra_cost`` is the clone fork charge when acceptance split the
        world — or None when the world must (keep) wait(ing).
        """
        while world.mailbox:
            head = world.mailbox.peek()
            action = decide_receive(head, world.predicates)
            if action.decision is MessageDecision.IGNORE:
                world.mailbox.discard_head()
                self.trace.record(
                    self.now, "msg-ignore", world.pid, wid=world.wid, msg_id=head.msg_id
                )
                continue
            if action.decision is MessageDecision.ACCEPT:
                msg = world.mailbox.pop()
                self.trace.record(
                    self.now, "msg-accept", world.pid, wid=world.wid, msg_id=msg.msg_id
                )
                return msg, 0.0
            # SPLIT
            msg = world.mailbox.pop()
            if action.rejecting is None:
                # rejecting copy would be self-contradictory: accept with
                # the extended predicates, no clone.
                world.predicates = action.accepting
                self.trace.record(
                    self.now, "msg-accept-extend", world.pid, wid=world.wid,
                    msg_id=msg.msg_id,
                )
                return msg, 0.0
            clone = self._split_clone(world, action.rejecting)
            world.predicates = action.accepting
            self.trace.record(
                self.now, "world-split", world.pid, wid=world.wid,
                clone_wid=clone.wid, msg_id=msg.msg_id, sender=msg.sender,
            )
            return msg, self.profile.fork_cost(len(world.heap.space.table))
        return None

    def _split_clone(self, orig: SimProcess, predicates: PredicateSet) -> SimProcess:
        """Clone ``orig`` (parked at a recv) as the rejecting world."""
        if self._live_worlds_of(orig.child_pids):
            raise KernelError("cannot split a world with live alternative children")
        if orig.own_group is not None:
            raise KernelError("cannot split a world between alt_spawn and alt_wait")
        split_seq = None
        if self.journal is not None:
            split_seq = self.journal.begin(
                "split", pid=orig.pid, orig_wid=orig.wid,
            )
            self.journal.seal(split_seq)
        clone = SimProcess(
            wid=self._wids.next(),
            pid=orig.pid,
            name=orig.name,
            program=orig.program,
            args=orig.args,
            heap=orig.heap.fork(),
            predicates=predicates,
            birth_predicates=orig.birth_predicates,
            parent_wid=orig.parent_wid,
            cloned_from=orig.wid,
            alt_group=orig.alt_group,
        )
        clone.log = list(orig.log)
        self._replay(clone)
        clone.state = ProcState.BLOCKED_RECV
        clone.mailbox = orig.mailbox.clone(orig.pid)
        self._register(clone)
        if self.obs is not None:
            self.obs.split(self.now, orig, clone)
        self._fork_readers(orig.wid, clone.wid)
        deadline = orig.recv_deadline
        if deadline is not None and deadline > self.now:
            clone.recv_deadline = deadline
            self._set_timer(clone, deadline, "recv")
        if split_seq is not None:
            self.journal.mark_applied(split_seq, clone_wid=clone.wid)
        return clone

    def _fork_readers(self, src_wid: int, dst_wid: int) -> None:
        """A world forked: gated sources inherit the parent's read position."""
        for device in self.devices.values():
            fork_reader = getattr(device, "fork_reader", None)
            if fork_reader is not None:
                fork_reader(src_wid, dst_wid)

    def _transfer_readers(self, src_wid: int, dst_wid: int) -> None:
        """A winner committed: its consumed input becomes the parent's.

        Covers gated sources the winner only *read* from — those never
        enter ``staged_devices``, so :meth:`_transfer_staging` does not
        reach them. ``transfer_world`` on an empty ledger just moves the
        read position (and is a no-op if staging already transferred).
        """
        for device in self.devices.values():
            if getattr(device, "fork_reader", None) is not None:
                device.transfer_world(src_wid, dst_wid)

    def _replay(self, clone: SimProcess) -> None:
        """Reconstruct the clone's generator by deterministic replay.

        Feeds the logged results while performing no side effects; leaves
        the generator parked exactly at the recv the original is waiting
        on.
        """
        ctx = Context(clone.pid, clone.name)
        gen = clone.program(ctx, *clone.args)
        clone.gen = gen
        clone.started = True
        send_value = None
        throw_next = False
        try:
            for kind, result in clone.log:
                if throw_next:
                    op = gen.throw(InputExhausted("replayed input exhaustion"))
                    throw_next = False
                else:
                    op = gen.send(send_value)
                if type(op).__name__ != kind:
                    raise KernelError(
                        f"replay divergence: expected {kind}, program yielded "
                        f"{type(op).__name__} (programs must be deterministic)"
                    )
                if isinstance(result, _ExhaustedMarker):
                    throw_next = True
                    send_value = None
                else:
                    send_value = result
            if throw_next:
                op = gen.throw(InputExhausted("replayed input exhaustion"))
            else:
                op = gen.send(send_value)
        except StopIteration:
            raise KernelError("replay divergence: program finished early") from None
        if not isinstance(op, sc.Recv):
            raise KernelError(
                f"replay did not reach the recv point (got {type(op).__name__})"
            )

    # ------------------------------------------------------------------
    # alt blocks
    # ------------------------------------------------------------------
    def _complete_altspawn(self, world: SimProcess, op: sc.AltSpawn) -> None:
        plan: list[tuple[int, Alternative, bool]] = world.op_result
        pages = len(world.heap.space.table)
        total_fork = self.profile.fork_cost(pages) * sum(
            1 for _, _, passed in plan if passed
        )
        group = AltGroup(
            group_id=self._group_ids.next(),
            parent_wid=world.wid,
            parent_pid=world.pid,
            issued_at=self.now - total_fork,
            spawned_at=self.now,
        )
        group.overhead.setup_s += total_fork
        self.groups[group.group_id] = group
        world.own_group = group
        if self.obs is not None:
            self.obs.block_opened(group, world)

        spawn_list: list[tuple[int, Alternative]] = []
        child_pids: list[int] = []
        for index, alt, passed in plan:
            pid = self._pids.next()
            group.child_pids.append(pid)
            if not passed:
                group.records[pid] = sc.ChildRecord(
                    pid=pid, index=index, name=alt.name,
                    status="guard-rejected",
                    reason="guard rejected before spawn",
                    finished_at=self.now,
                )
                continue
            child_pids.append(pid)
            spawn_list.append((pid, alt))
            group.records[pid] = sc.ChildRecord(pid=pid, index=index, name=alt.name)

        for pid, alt in spawn_list:
            plain = not inspect.isgeneratorfunction(alt.fn)
            group.plain[pid] = plain
            group.alt_by_pid[pid] = alt
            program = _plain_program(alt) if plain else alt.fn
            predicates = world.predicates.child_predicates(pid, child_pids)
            child = SimProcess(
                wid=self._wids.next(),
                pid=pid,
                name=f"{world.name}/{alt.name}",
                program=program,
                heap=world.heap.fork(),
                predicates=predicates,
                birth_predicates=predicates,
                parent_wid=world.wid,
                alt_group=group,
            )
            world.child_pids.append(pid)
            self._register(child)
            self._fork_readers(world.wid, child.wid)
            # IN_CHILD entry guard for generator programs (plain wrappers
            # perform their own entry check).
            if (
                not plain
                and alt.guard.placement & GuardPlacement.IN_CHILD
                and alt.guard.check is not None
            ):
                try:
                    passed = alt.guard.passes_entry(child.heap.as_dict())
                except Exception:
                    passed = False
                if not passed:
                    self._finish_abort(child, "guard rejected entry")
                    continue
            if alt.start_delay > 0:
                child.state = ProcState.SLEEPING
                self._set_timer(child, self.now + alt.start_delay, "sleep")
                self.trace.record(
                    self.now, "stagger", child.pid, wid=child.wid,
                    delay=alt.start_delay,
                )
            else:
                self._start_world(child)

        self.trace.record(
            self.now, "alt-spawn", world.pid, wid=world.wid,
            group=group.group_id, children=list(child_pids),
        )
        self._log(world, op, list(group.child_pids))
        if not spawn_list:
            self._settle_failure(group)
        self._advance(world, list(group.child_pids))

    def _sync_guard_ok(self, group: AltGroup, world: SimProcess, value: Any) -> bool:
        """Evaluate the result guard at the synchronization point."""
        alt = group.alt_by_pid.get(world.pid)
        if alt is None or alt.guard.accept is None:
            return True
        placement = alt.guard.placement
        kernel_checks = bool(placement & GuardPlacement.AT_SYNC) or (
            bool(placement & GuardPlacement.IN_CHILD) and not group.plain[world.pid]
        )
        if not kernel_checks:
            return True
        try:
            return bool(alt.guard.passes_result(world.heap.as_dict(), value))
        except Exception:
            return False

    def _finish_normal(self, world: SimProcess, value: Any) -> None:
        """A program returned: attempt synchronization / completion."""
        extra = world.extra_predicates()
        if extra.unresolved:
            world.state = ProcState.BLOCKED_SYNC
            world.pending_finish = ("done", value)
            self.trace.record(
                self.now, "sync-defer", world.pid, wid=world.wid, extra=str(extra)
            )
            return
        group = world.alt_group
        if group is not None:
            self._child_sync(world, group, value)
            return
        world.state = ProcState.DONE
        world.result = value
        world.finished_at = self.now
        self._committed.add(world.pid)
        self.trace.record(self.now, "done", world.pid, wid=world.wid)
        if self.obs is not None:
            self.obs.world_finished(self.now, world, "committed")
        self._resolve_fact(world_key(world.wid), True)
        self._resolve_fact(world.pid, True)

    def _child_sync(self, world: SimProcess, group: AltGroup, value: Any) -> None:
        rec = group.records[world.pid]
        if group.settled:
            # a winner already committed (or the block failed/timed out);
            # this late finisher is eliminated.
            self._kill_world(world, "lost the race", status="eliminated")
            return
        if not self._sync_guard_ok(group, world, value):
            self._finish_abort(world, "guard rejected result at sync")
            return
        # the winner decision becomes durable *before* any state mutates:
        # a crash from here on rolls forward to the same winner
        sync_seq = None
        if self.journal is not None:
            sync_seq = self.journal.begin(
                "sync", group=group.group_id,
                winner_pid=world.pid, winner_wid=world.wid,
            )
            self.journal.seal(sync_seq)
        # the "at most once" synchronization: this world wins the block
        group.settled = True
        group.winner_pid = world.pid
        group.winner_value = value
        group.committed_at = self.now
        rec.status = "committed"
        rec.value = value
        rec.finished_at = self.now
        self._committed.add(world.pid)
        world.state = ProcState.DONE
        world.result = value
        world.finished_at = self.now
        self.trace.record(
            self.now, "commit", world.pid, wid=world.wid, group=group.group_id
        )
        if self.obs is not None:
            self.obs.world_finished(
                self.now, world, "committed", group=group.group_id
            )
        # count the victims first, then let the completion fact eliminate
        # them (they all assume ¬complete(winner))
        group.n_eliminated = len(
            self._live_worlds_of(p for p in group.child_pids if p != world.pid)
        )
        self._resolve_fact(world_key(world.wid), True)
        self._resolve_fact(world.pid, True)
        self._resume_parent(group)
        if sync_seq is not None:
            self.journal.mark_applied(sync_seq)

    def _settle_failure(self, group: AltGroup) -> None:
        """Every alternative failed: the failure alternative is selected."""
        if group.settled:
            return
        group.settled = True
        group.committed_at = self.now
        self.trace.record(
            self.now, "block-failed", group.parent_pid, group=group.group_id
        )
        self._resume_parent(group)

    def _resume_parent(self, group: AltGroup) -> None:
        """Queue a settled block's outcome for its parent (step 4 of
        :meth:`_settle`): the parent's program runs on from the hand-over,
        so it waits until the resolution in flight has reached every world."""
        self._outcomes.append(group)
        if not self._settling:
            self._settle()

    def _timeout_group(self, parent: SimProcess, group: AltGroup) -> None:
        group.settled = True
        group.timed_out = True
        group.committed_at = self.now
        victims = self._live_worlds_of(group.child_pids)
        group.n_eliminated = len(victims)
        for target in victims:
            self._kill_world(target, "block timeout", status="timeout-killed")
        self.trace.record(
            self.now, "block-timeout", group.parent_pid, group=group.group_id
        )
        self._deliver_alt_outcome(parent, group)

    def _deliver_alt_outcome(self, parent: SimProcess, group: AltGroup) -> None:
        """Build the AltOutcome, swap heaps, charge elimination, resume parent."""
        elim_cost = self.profile.elimination_cost(
            group.n_eliminated, group.policy is EliminationPolicy.SYNCHRONOUS
        )
        group.overhead.completion_s += elim_cost

        winner_index = None
        if group.winner_pid is not None:
            winner_index = group.records[group.winner_pid].index
            winner_world = next(
                (
                    self.worlds[w]
                    for w in self.pid_worlds.get(group.winner_pid, [])
                    if self.worlds[w].state is ProcState.DONE
                ),
                None,
            )
            if winner_world is None:  # pragma: no cover - defensive
                raise KernelError("winner world vanished before commit")
            commit_seq = None
            if self.journal is not None:
                commit_seq = self.journal.begin(
                    "commit", group=group.group_id,
                    winner_pid=group.winner_pid, winner_wid=winner_world.wid,
                    parent_wid=parent.wid,
                )
                self.journal.seal(commit_seq)
            parent.heap.replace_with(winner_world.heap)
            self._transfer_staging(winner_world, parent)
            self._transfer_readers(winner_world.wid, parent.wid)
            if commit_seq is not None:
                self.journal.mark_applied(commit_seq)

        parent_cost = 0.0
        if group.policy is EliminationPolicy.SYNCHRONOUS:
            parent_cost = elim_cost
        elif elim_cost > 0:
            self._spawn_reaper(elim_cost, group.group_id)
        group.parent_resumed_at = self.now + parent_cost

        value = group.winner_value
        if group.timed_out:
            value = sc.TIMEOUT
        outcome = sc.AltOutcome(
            winner_index=winner_index,
            winner_pid=group.winner_pid,
            value=value,
            timed_out=group.timed_out,
            spawned_at=group.issued_at,
            committed_at=group.committed_at if group.committed_at is not None else self.now,
            parent_resumed_at=group.parent_resumed_at,
            overhead=group.overhead,
            children=sorted(group.records.values(), key=lambda r: r.index),
        )
        parent.own_group = None
        if self.obs is not None:
            self.obs.block_settled(self.now, group)
        if parent_cost > 0:
            self._park_costed(parent, _InternalOp("alt-outcome"), parent_cost, outcome)
        else:
            self._log(parent, sc.AltWait(), outcome)
            self._advance(parent, outcome)

    def _spawn_reaper(self, cost: float, group_id: int) -> None:
        """Asynchronous elimination: background CPU work nobody waits for."""

        def reaper(ctx: Context):
            yield sc.Compute(cost)

        pid = self._pids.next()
        world = SimProcess(
            wid=self._wids.next(),
            pid=pid,
            name=f"reaper-g{group_id}",
            program=reaper,
            heap=PagedHeap(pool=self.pool),
        )
        self._register(world)
        self._start_world(world)

    def _transfer_staging(self, child: SimProcess, parent: SimProcess) -> None:
        """Move the winner's staged sink writes up to the parent's world.

        If the parent itself is speculative the journals migrate to the
        parent's world id; otherwise they flush (become permanent).
        """
        for name in sorted(child.staged_devices):
            device = self.devices.get(name)
            if not isinstance(device, SinkDevice):
                continue
            if parent.speculative:
                if device.transfer_world(child.wid, parent.wid):
                    parent.staged_devices.add(name)
            else:
                device.commit_world(child.wid)
        child.staged_devices.clear()

    # ------------------------------------------------------------------
    # death and resolution
    # ------------------------------------------------------------------
    def _finish_abort(self, world: SimProcess, reason: str) -> None:
        """A world failed (guard, Abort syscall or uncaught exception)."""
        if not world.alive:
            return
        world.state = ProcState.ABORTED
        world.error = reason
        world.finished_at = self.now
        self.trace.record(self.now, "abort", world.pid, wid=world.wid, reason=reason)
        if self.obs is not None:
            self.obs.world_finished(self.now, world, "aborted", reason=reason)
        self._after_world_death(world, reason, status="aborted")

    def _kill_world(self, world: SimProcess, reason: str, status: str = "eliminated") -> None:
        if not world.alive:
            return
        elim_seq = None
        if self.journal is not None:
            elim_seq = self.journal.begin(
                "eliminate", wid=world.wid, pid=world.pid, status=status,
            )
            self.journal.seal(elim_seq)
        world.state = ProcState.KILLED
        world.error = reason
        world.finished_at = self.now
        self.trace.record(self.now, "kill", world.pid, wid=world.wid, reason=reason)
        if self.obs is not None:
            self.obs.world_finished(
                self.now, world, "eliminated", reason=reason, status=status
            )
        self._after_world_death(world, reason, status=status)
        if elim_seq is not None:
            self.journal.mark_applied(elim_seq)

    def _after_world_death(self, world: SimProcess, reason: str, status: str) -> None:
        # cancel any scheduled timeslice and free the CPU immediately
        if world.slice_event is not None and not world.slice_event.cancelled:
            world.slice_event.cancelled = True
            world.slice_event = None
            self._cpus_busy -= 1
        world.bump_dispatch()
        world.bump_timer()
        if world.heap is not None:
            world.heap.release()
        for name in world.staged_devices:
            device = self.devices.get(name)
            if isinstance(device, SinkDevice):
                device.discard_world(world.wid)
        world.staged_devices.clear()
        # subtree: alternative children of a dead world cannot survive
        for target in self._live_worlds_of(world.child_pids):
            self._kill_world(
                target, f"parent world died: {reason}", status="eliminated"
            )
        # group bookkeeping + pid-level completion fact
        live_others = self._live_worlds_of([world.pid])
        # drop the dead world's replay positions so loser buffers don't
        # accumulate across blocks: sink-style gates key by wid, buffered
        # sources key by pid (only safe to forget once the pid is gone)
        pid_gone = not live_others and world.pid not in self._committed
        for device in self.devices.values():
            forget = getattr(device, "forget_client", None)
            if forget is None:
                continue
            if isinstance(device, SinkDevice):
                forget(world.wid)
            elif pid_gone:
                forget(world.pid)
        # this specific world is gone, whatever happens to the pid
        self._resolve_fact(world_key(world.wid), False)
        if not live_others and world.pid not in self._committed:
            group = world.alt_group
            if group is not None:
                rec = group.records.get(world.pid)
                if rec is not None and rec.status == "spawned":
                    rec.status = status
                    rec.reason = reason
                    rec.finished_at = self.now
                if not group.settled and not group.live_child_pids():
                    self._settle_failure(group)
            self._resolve_fact(world.pid, False)

    def _resolve_fact(self, pid: int, completed: bool) -> None:
        """Record complete(pid); the outermost caller settles it."""
        if pid in self.facts:
            if self.facts[pid] != completed:  # pragma: no cover - invariant
                raise KernelError(f"contradictory completion facts for pid {pid}")
            return
        self.facts[pid] = completed
        self.trace.record(self.now, "fact", pid, completed=completed)
        self._unapplied.append((pid, completed))
        if not self._settling:
            self._settle()

    def _settle(self) -> None:
        """Carry every recorded fact through every live world.

        One loop, never re-entered. Each step runs only when the ones
        before it have nothing left, and whatever a step produces (a
        kill's own facts, a woken world's completion) sends the loop
        back to step 1:

        1. apply the oldest unapplied fact to *every* live world;
        2. wake a world whose predicate set shrank (flush staging,
           unblock a gated source, retry a deferred sync);
        3. retry the receive rule for a world blocked in recv with mail;
        4. hand a block that settled along the way to its waiting parent.

        Programs and the receive rule (steps 3 and 4) therefore only run
        against a fully applied resolution: no world is born, extended or
        resumed holding a literal whose fact is already settled.
        """
        self._settling = True
        try:
            while True:
                if self._unapplied:
                    self._apply_fact(*self._unapplied.popleft())
                elif self._shrunk:
                    world = self._shrunk.pop(next(iter(self._shrunk)))
                    if not world.alive:
                        continue
                    if not world.predicates.unresolved:
                        self._on_unpredicated(world)
                    self._retry_sync(world)
                elif receiver := next(
                    (
                        w for w in self.worlds.values()
                        if w.state is ProcState.BLOCKED_RECV and w.mailbox
                    ),
                    None,
                ):
                    self._pump_blocked_receiver(receiver)
                elif self._outcomes:
                    group = self._outcomes.popleft()
                    parent = self.worlds[group.parent_wid]
                    if parent.state is ProcState.BLOCKED_ALT and parent.own_group is group:
                        parent.bump_timer()  # cancel the alt_wait timeout
                        self._deliver_alt_outcome(parent, group)
                else:
                    return
        finally:
            self._settling = False

    def _apply_fact(self, pid: int, completed: bool) -> None:
        """Step 1 of :meth:`_settle`: one fact meets every live world."""
        for world in self.worlds.values():
            if not world.alive:
                continue
            updated = world.predicates.resolve(pid, completed)
            if updated is None:
                # the kill's own facts (this world's, and its pid's if it
                # was the last one) join the queue behind this one
                self._kill_world(world, f"assumption about pid {pid} failed")
                continue
            world.mailbox.resolve(pid, completed)
            if updated is not world.predicates:
                world.predicates = updated
                self._shrunk.setdefault(world.wid, world)

    def _retry_sync(self, world: SimProcess) -> None:
        """A BLOCKED_SYNC world re-attempts completion after resolution."""
        if world.state is not ProcState.BLOCKED_SYNC or world.pending_finish is None:
            return
        if world.extra_predicates().unresolved:
            return
        _, value = world.pending_finish
        world.pending_finish = None
        self.trace.record(self.now, "sync-retry", world.pid, wid=world.wid)
        self._finish_normal(world, value)

    def _on_unpredicated(self, world: SimProcess) -> None:
        """A world's last assumption resolved: flush staging, unblock."""
        self.trace.record(self.now, "unpredicated", world.pid, wid=world.wid)
        for name in sorted(world.staged_devices):
            device = self.devices.get(name)
            if isinstance(device, SinkDevice):
                device.commit_world(world.wid)
        world.staged_devices.clear()
        if world.state is ProcState.BLOCKED_SOURCE and world.blocked_source_op is not None:
            op = world.blocked_source_op
            world.blocked_source_op = None
            self.trace.record(self.now, "source-unblock", world.pid, wid=world.wid)
            self._park_costed(world, op, self.profile.device_latency_s, None)
