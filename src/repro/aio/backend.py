"""Multiple Worlds on asyncio tasks: massive-concurrency speculation.

The paper's response-time win ``τ(C_best) + τ(overhead)`` is largest
when per-world cost is dominated by *waiting* — network probes, storage
reads, LLM-ish tool calls. The OS-style backends top out at tens of
concurrent worlds (a process or thread each); here a world is an asyncio
task, so one process holds tens of thousands of concurrent worlds and
spawn cost is microseconds.

The contract is exactly :func:`repro.core.worlds.run_alternatives`'s:
each alternative runs as a task against a deep copy of the workspace,
the first whose guard accepts commits, and the slower siblings are
eliminated via :meth:`asyncio.Task.cancel`. Where the fork backend's
elimination is SIGKILL — involuntary, instant, unskippable — task
cancellation is a *delivered exception*: it lands at the loser's next
``await``, and a misbehaved coroutine can catch and ignore it. The
:class:`~repro.core.policy.EliminationPolicy` maps accordingly:

- ``ASYNCHRONOUS`` (default, the paper's semantics) — cancel and resume
  the parent immediately; losers unwind at their next suspension point
  ("at some unspecified later time").
- ``SYNCHRONOUS`` — cancel, then await the losers' unwinding (bounded
  by a reaping grace), so no loser is still executing when the block
  returns; survivors past the grace are counted ``uncollected``.

Alternatives may be plain callables of the workspace dict (they run
inline on the loop — fine when brief) or ``async def`` coroutine
functions (the backend awaits them; this is where the concurrency
scales). A callable returning an awaitable is awaited too, so
``lambda ws: asyncio.sleep(...)`` works.

Two entry points: :func:`run_alternatives_async` is the synchronous
registry surface (it owns a private event loop via ``asyncio.run``);
:func:`alt_block_async` is the coroutine-native form for callers that
already run a loop and want speculative blocks *inside* it.

Deterministic fault injection adds an ``asyncio`` site on top of the
``child``/``spawn`` sites the other backends share: SLOW_TASK delays the
task before its alternative runs, CANCEL_IGNORED makes the loser swallow
its first cancellation and linger (elimination must still converge), and
LOOP_STALL blocks the loop synchronously — the stall every sibling
world feels, which no per-process backend can express.
"""

from __future__ import annotations

import asyncio
import copy
import inspect
import time
from typing import Any, Sequence

from repro.analysis.overhead import OverheadBreakdown
from repro.core.alternative import Alternative
from repro.core.backend import BlockRun
from repro.core.outcome import ELIMINATED, TIMEOUT_KILLED, BlockOutcome
from repro.core.policy import EliminationPolicy
from repro.errors import WorldsError
from repro.faults.plan import ASYNCIO_SITE, FaultDecision, FaultKind

#: Bounded patience for synchronous elimination: how long the parent
#: waits for cancelled losers to unwind before counting them uncollected
#: (mirrors the fork backend's verified-reap timeout).
_SYNC_ELIM_GRACE_S = 2.0


async def _call_alternative(alt: Alternative, workspace: dict) -> Any:
    """Run one alternative's body, sync or async, and return its value."""
    if inspect.iscoroutinefunction(alt.fn):
        return await alt.fn(workspace)
    value = alt.fn(workspace)
    if inspect.isawaitable(value):
        return await value
    return value


async def _world(
    index: int,
    alt: Alternative,
    workspace: dict,
    reports: "asyncio.Queue",
    fault: FaultDecision | None,
    aio_fault: FaultDecision | None,
) -> None:
    """One speculative world: guard → body → guard → report.

    Reports ``(index, status, payload, workspace, t0)`` exactly once on
    success/failure; elimination arrives as :class:`asyncio.CancelledError`
    and propagates (the parent labels cancelled losers itself).
    """
    if alt.start_delay > 0:
        await asyncio.sleep(alt.start_delay)
    t0 = time.perf_counter()
    ignore_cancel_s = 0.0
    try:
        if aio_fault is not None and aio_fault.fires:
            if aio_fault.kind is FaultKind.SLOW_TASK:
                await asyncio.sleep(aio_fault.param)
            elif aio_fault.kind is FaultKind.CANCEL_IGNORED:
                ignore_cancel_s = aio_fault.param
            elif aio_fault.kind is FaultKind.LOOP_STALL:
                # synchronous sleep: blocks the event loop itself, the
                # stall every sibling feels
                time.sleep(aio_fault.param)
        if fault is not None and fault.fires:
            if fault.kind is FaultKind.HANG:
                await asyncio.sleep(fault.param)
                await reports.put((index, "fail", "injected hang elapsed", None, t0))
                return
            if fault.kind is FaultKind.SLOW_START:
                await asyncio.sleep(fault.param)
            elif fault.kind is FaultKind.GUARD_EXCEPTION:
                await reports.put(
                    (index, "guard",
                     f"guard {alt.guard.name!r} raised (injected exception)",
                     None, t0)
                )
                return
            else:
                # CRASH / TRUNCATE / CORRUPT: in-process, all mean the
                # world dies before a usable report exists
                raise RuntimeError(f"injected {fault.kind.value}")
        if not alt.guard.passes_entry(workspace):
            await reports.put(
                (index, "guard", f"guard {alt.guard.name!r} rejected entry", None, t0)
            )
            return
        value = await _call_alternative(alt, workspace)
        if not alt.guard.passes_result(workspace, value):
            await reports.put(
                (index, "guard", f"guard {alt.guard.name!r} rejected result", None, t0)
            )
            return
        await reports.put((index, "ok", value, workspace, t0))
    except asyncio.CancelledError:
        if ignore_cancel_s > 0.0:
            # CANCEL_IGNORED: a misbehaved coroutine that swallows its
            # cancellation and lingers; further cancels are swallowed
            # too, until the grace elapses
            deadline = time.perf_counter() + ignore_cancel_s
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    await asyncio.sleep(remaining)
                except asyncio.CancelledError:
                    continue
        raise
    except BaseException as exc:  # noqa: BLE001 - any failure is a loser
        await reports.put((index, "fail", f"alternative raised {exc!r}", None, t0))


async def alt_block_async(
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
    """Run one alternative block on the *current* event loop.

    The coroutine-native entry point: await it from inside a host
    application's loop to get speculative blocks without a second loop
    or a thread hop. :func:`run_alternatives_async` wraps it for the
    synchronous registry surface.
    """
    run = BlockRun(
        "async", alternatives, initial, fault_plan=fault_plan,
        block_id=block_id, attempt=attempt, journal=journal, obs=obs,
    )
    reports: "asyncio.Queue" = asyncio.Queue()
    tasks: dict[int, asyncio.Task] = {}

    def _abort_spawned() -> None:
        for task in tasks.values():
            task.cancel()

    for index, alt in enumerate(run.alts):
        if not run.precheck_guard(index, alt):
            continue
        run.spawn_fault(
            index, alt, on_abort=_abort_spawned,
            detail="injected task-creation failure",
        )
        fault = run.child_fault(index, alt)
        aio_fault = run.site_fault(ASYNCIO_SITE, index, alt)
        workspace = copy.deepcopy(run.base)
        tasks[index] = asyncio.create_task(
            _world(index, alt, workspace, reports, fault, aio_fault),
            name=f"world-b{block_id}.{index}",
        )
    started = len(tasks)
    t_spawned = time.perf_counter()

    # rendezvous: one queue get per completion — O(1) per report even
    # with tens of thousands of worlds in flight (asyncio.wait would
    # re-register a callback per pending task per call)
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
            if wait_s is None:
                index, status, payload, workspace, t0 = await reports.get()
            else:
                index, status, payload, workspace, t0 = await asyncio.wait_for(
                    reports.get(), timeout=wait_s
                )
        except asyncio.TimeoutError:
            run.timed_out = True
            break
        remaining -= 1
        elapsed = time.perf_counter() - t0
        if status == "ok":
            run.accept(index, payload, workspace, elapsed_s=elapsed)
        else:
            run.reject(
                index, str(payload), guard_failed=status == "guard",
                elapsed_s=elapsed,
            )

    # elimination: cancellation is the kill signal of this substrate
    label = ELIMINATED if run.winner is not None else TIMEOUT_KILLED
    pending = {i: t for i, t in tasks.items() if not t.done()}
    for task in pending.values():
        task.cancel()
    for index in pending:
        run.reject(index, label)
    uncollected = 0
    if pending:
        if elimination is EliminationPolicy.SYNCHRONOUS:
            # no loser may still be executing when the parent resumes;
            # await their unwinding, bounded (CANCEL_IGNORED lingers)
            done, still = await asyncio.wait(
                set(pending.values()), timeout=_SYNC_ELIM_GRACE_S
            )
            for task in still:
                task.cancel()  # re-signal, like the fork verified reap
            uncollected = len(still)
        else:
            uncollected = len(pending)

    return run.finish(
        overhead=OverheadBreakdown(setup_s=t_spawned - run.t_start),
        extras={
            "uncollected": uncollected if run.winner else 0,
            "elimination_policy": elimination.value,
            "eliminated": len(pending) if run.winner is not None else 0,
        },
    )


def run_alternatives_async(
    alternatives: Sequence[Any],
    initial: dict[str, Any] | None = None,
    timeout: float | None = None,
    elimination: EliminationPolicy = EliminationPolicy.ASYNCHRONOUS,
    fault_plan=None,
    block_id: int = 0,
    attempt: int = 0,
    watchdog=None,  # accepted for protocol parity; tasks need no SIGTERM ladder
    journal=None,
    obs=None,
    **_ignored: Any,
) -> BlockOutcome:
    """Execute a block of alternatives as asyncio tasks (sync entry).

    Owns a private event loop for the block's duration (``asyncio.run``),
    so it composes with the registry, the supervisor's degradation
    ladder, and the serve layer exactly like the other backends. From
    inside a running loop, await :func:`alt_block_async` instead — this
    wrapper raises :class:`~repro.errors.WorldsError` there, because a
    nested ``asyncio.run`` would deadlock the caller's loop.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        pass
    else:
        raise WorldsError(
            "run_alternatives_async cannot run inside an active event loop; "
            "await repro.aio.alt_block_async(...) instead"
        )
    return asyncio.run(
        alt_block_async(
            alternatives, initial, timeout, elimination,
            fault_plan=fault_plan, block_id=block_id, attempt=attempt,
            journal=journal, obs=obs,
        )
    )
