"""Thread-based Multiple Worlds (an approximation, and a useful baseline).

Every world runs on one per-process pool of parked, reused daemon
threads: a world is a task handed to an idle thread, and a thread starts
only when none is parked, so the pool grows to the most worlds that ever
ran at once and no block pays for a ``Thread.start``. A forked child
starts with an empty pool (``os.register_at_fork``, registered on the
pool's first use): the threads its parent parked do not exist there.

Threads cannot be killed, so elimination is *cooperative*: when a winner
commits, the block sets a shared :class:`CancelToken` (visible to every
alternative as ``workspace["_cancel"]``) and stops listening; a
well-behaved long-running alternative polls ``token.cancelled`` and
returns early, while an oblivious one runs to completion on its pool
thread with its result discarded — the thread is parked again only then,
so a sleeping loser never delays a new world. The ``elimination`` policy
maps onto this the only way it can:

- ``ASYNCHRONOUS`` (default) — the paper's semantics, faithfully: the
  parent resumes immediately; losers die "at some unspecified later
  time" (here: whenever they next check the token, or at interpreter
  exit).
- ``SYNCHRONOUS`` — the parent waits for every remaining world's report
  before returning, so no loser is still executing when the block
  completes.
  Because cancellation is cooperative, this blocks for as long as the
  slowest non-cooperating loser keeps running — the honest price of
  synchronous elimination without kill.

Each alternative gets a deep copy of the workspace, so the isolation
semantics match the other backends; what differs is throughput (losers
keep burning CPU until they notice cancellation) and the GIL's
serialization of pure-Python work. The backend exists (a) for platforms
without ``fork``, (b) as the "can't eliminate siblings" ablation point
in the benchmarks, and (c) as the middle rung of the supervisor's
degradation chain.

Deterministic fault injection mirrors the fork backend where the faults
make sense in-process: CRASH and the report-corruption kinds surface as
raised exceptions, HANG holds its pool thread (a daemon, so it cannot
wedge interpreter exit), SLOW_START sleeps, GUARD_EXCEPTION fails the
guard, and SPAWN_FAIL raises :class:`~repro.errors.SpawnError` so a
supervisor can degrade to sequential execution.
"""

from __future__ import annotations

import copy
import os
import queue
import threading
import time
from typing import Any, Sequence

from repro.analysis.overhead import OverheadBreakdown
from repro.core.alternative import Alternative
from repro.core.backend import BlockRun, world_body
from repro.core.outcome import BlockOutcome
from repro.core.policy import EliminationPolicy
from repro.errors import SpawnError
from repro.faults.plan import FaultDecision, FaultKind


class CancelToken:
    """Cooperative elimination signal, shared by a block's alternatives.

    Injected into every workspace as ``workspace["_cancel"]``; a
    long-running alternative that wants to honour elimination polls
    :attr:`cancelled` and returns early (its result is discarded
    anyway). The token is stripped from the winning workspace before it
    is surfaced in ``extras["state"]``.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CancelToken(cancelled={self.cancelled})"


class _WorldPool:
    """The process's parked world threads (see the module docstring)."""

    def __init__(self) -> None:
        self._resets_at_fork = False
        self.reset()

    def reset(self) -> None:
        """Forget every thread — what a forked child must do, since none of
        its parent's threads exist there."""
        self._lock = threading.Lock()
        self._tasks: "queue.SimpleQueue" = queue.SimpleQueue()
        self._idle = 0

    def run(self, fn, args: tuple, out: "queue.SimpleQueue") -> None:
        """Run ``fn(*args)`` on a parked thread — a new one only when none
        is parked — and put its return value on ``out``."""
        if not self._resets_at_fork:
            # registered before the lock is first taken, so a fork can never
            # hand a child a held lock unreset; a process that never runs a
            # thread world (a fork-backend parent) forks without the hook
            if hasattr(os, "register_at_fork"):
                os.register_at_fork(after_in_child=self.reset)
            self._resets_at_fork = True
        with self._lock:
            parked = self._idle > 0
            if parked:
                self._idle -= 1
        if parked:
            self._tasks.put((fn, args, out))
        else:
            threading.Thread(
                target=self._serve, args=((fn, args, out),),
                name="mw-world", daemon=True,
            ).start()

    def _serve(self, task) -> None:
        while True:
            fn, args, out = task
            result = fn(*args)
            # parked before the result is out: whoever it wakes finds
            # this thread reusable
            with self._lock:
                self._idle += 1
            out.put(result)
            task = self._tasks.get()


_POOL = _WorldPool()


def _world(
    index: int,
    alt: Alternative,
    workspace: dict,
    fault: FaultDecision | None,
) -> tuple:
    if alt.start_delay > 0:
        time.sleep(alt.start_delay)
    t0 = time.perf_counter()
    kind = fault.kind if fault is not None else None
    if kind is FaultKind.HANG:
        time.sleep(fault.param)
        status, payload = "fail", "injected hang elapsed"
    elif kind in (FaultKind.CRASH, FaultKind.TRUNCATE_REPORT, FaultKind.CORRUPT_REPORT):
        # in-process, all mean the worker dies before a usable report exists
        died = RuntimeError(f"injected {kind.value}")
        status, payload = "fail", f"alternative raised {died!r}"
    else:
        status, payload = world_body(alt, workspace, fault)
    return index, status, payload, workspace, t0


def run_alternatives_thread(
    alternatives: Sequence[Any],
    initial: dict[str, Any] | None = None,
    timeout: float | None = None,
    elimination: EliminationPolicy = EliminationPolicy.ASYNCHRONOUS,
    fault_plan=None,
    block_id: int = 0,
    attempt: int = 0,
    journal=None,
    obs=None,
    **_ignored: Any,
) -> BlockOutcome:
    """Execute a block of plain-callable alternatives on threads.

    See the module docstring for the cooperative-cancellation semantics
    of ``elimination``. Raises :class:`~repro.errors.SpawnError` on an
    injected spawn failure (already-started siblings are cancelled and
    abandoned as daemons). Block bookkeeping — guard prechecks, fault
    decisions, winner journaling, loser labels, the telemetry record —
    is the shared :class:`~repro.core.backend.BlockRun` surface; only
    the thread mechanics live here.
    """
    run = BlockRun(
        "thread", alternatives, initial, fault_plan=fault_plan,
        block_id=block_id, attempt=attempt, journal=journal, obs=obs,
    )
    reports: "queue.SimpleQueue" = queue.SimpleQueue()
    token = CancelToken()

    started = 0
    for index, alt in enumerate(run.alts):
        if not run.precheck_guard(index, alt):
            continue
        run.spawn_fault(
            index, alt, on_abort=token.cancel,
            detail="injected thread-start failure",
        )
        fault = run.child_fault(index, alt)
        workspace = copy.deepcopy(run.base)
        workspace["_cancel"] = token
        try:
            _POOL.run(_world, (index, alt, workspace, fault), reports)
        except RuntimeError as exc:  # pragma: no cover - needs thread exhaustion
            token.cancel()
            raise SpawnError(f"spawning alternative {alt.name!r} failed: {exc}") from exc
        started += 1
    t_spawned = time.perf_counter()

    deadline = None if timeout is None else run.t_start + timeout
    remaining = started
    while remaining > 0 and run.winner is None:
        wait_s = None
        if deadline is not None:
            wait_s = deadline - time.perf_counter()
            if wait_s <= 0:
                run.timed_out = True
                break
        try:
            index, status, payload, workspace, t0 = reports.get(timeout=wait_s)
        except queue.Empty:
            run.timed_out = True
            break
        remaining -= 1
        elapsed = time.perf_counter() - t0
        if status == "ok":
            workspace.pop("_cancel", None)
            run.accept(index, payload, workspace, elapsed_s=elapsed)
        else:
            run.reject(
                index, str(payload), guard_failed=status == "guard",
                elapsed_s=elapsed,
            )

    token.cancel()  # cooperative elimination: losers see this on next poll
    if elimination is EliminationPolicy.SYNCHRONOUS:
        # no loser may still be executing when the parent resumes; with
        # cooperative cancellation this means waiting out each world's
        # report, the last thing it does
        while remaining > 0:
            wait_s = None
            if deadline is not None:
                wait_s = max(0.0, deadline + 5.0 - time.perf_counter())
            try:
                reports.get(timeout=wait_s)
            except queue.Empty:
                break
            remaining -= 1

    return run.finish(
        overhead=OverheadBreakdown(setup_s=t_spawned - run.t_start),
        extras={
            "uncollected": remaining if run.winner else 0,
            "elimination_policy": elimination.value,
        },
    )
