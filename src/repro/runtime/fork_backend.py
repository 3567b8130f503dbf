"""Multiple Worlds on real processes: ``os.fork`` + report files + signals.

Each alternative runs in a forked child against a workspace dict the child
inherits through the host kernel's genuine copy-on-write. The first child
whose report is accepted — unpickled, and passed by its AT_SYNC guard —
wins the rendezvous: the parent absorbs the child's workspace (mapped from
the file the child wrote it into), and at that moment SIGKILLs the slower
siblings, before it journals the win. The losers die while the parent does
its own bookkeeping. The winner is then reaped together with them:
synchronous elimination reaps before the parent resumes (the reap counts
in ``elapsed_s``), asynchronous elimination after it resumes but still
before the call returns (off the block's books). That is the paper's
section 2.2.1 policy choice with real signals; no child outlives the call
under either.

The protocol is deliberately simple and robust:

- each child gets its own :class:`~repro.runtime.report_channel.ReportChannel`,
  an inherited anonymous file beside a pipe; it pickles
  ``("ok", value, workspace)``, ``("guard", reason)`` or
  ``("fail", reason)`` straight into the file, then writes the pickle's
  length as an 8-byte header on the pipe, and ``_exit``\\ s (a workspace
  that will not pickle is written again without the entries that won't,
  listed under ``_unpicklable``);
- the parent multiplexes across pipes with :mod:`selectors` (epoll/kqueue
  where available, so blocks with hundreds of alternatives don't hit
  ``select``'s ``FD_SETSIZE`` wall), retrying on ``EINTR``, until a
  success, every child has failed, or the block times out;
- a header means the report is whole: the parent maps that many bytes of
  the file and unpickles from the mapping ("unpicklable report" if it
  can't). EOF with no header and an empty file is "child died without
  reporting" (crash, OOM-kill); a header longer than the file, or bytes in
  the file and no header, is "truncated report"; each counts as failed;
- with a :class:`~repro.core.policy.WatchdogPolicy`, a child that blows
  its per-alternative soft deadline is escalated SIGTERM → grace →
  SIGKILL instead of hanging the block until the global timeout;
- kill signals are *verified*: a child that survives its first SIGKILL
  (or whose signal the fault plane deliberately "loses") is re-signalled
  until reaped, so no zombie outlives the block, exception or not;
- every wait for a death is on the exit event (a pidfd per child, closed
  before the wait returns), not on a timer; the 5 ms poll quantum stays as
  the re-signal period and as the wait where ``os.pidfd_open`` is absent.

Deterministic fault injection (:class:`~repro.faults.plan.FaultPlan`) is
threaded through every stage: child crash/hang/slow-start/corrupt-report
faults fire inside :func:`_child_main`, spawn failures surface as
:class:`~repro.errors.SpawnError` (so a supervisor can degrade backends),
and kill-signal loss exercises the verified-reap path.
"""

from __future__ import annotations

import errno
import os
import pickle
import selectors
import signal
import time
from typing import Any, Iterable, Sequence

from repro.analysis.overhead import OverheadBreakdown
from repro.core.alternative import Alternative, GuardPlacement
from repro.core.backend import BlockRun, world_body
from repro.core.outcome import ELIMINATED, TIMEOUT_KILLED, BlockOutcome
from repro.core.policy import EliminationPolicy, WatchdogPolicy
from repro.errors import SpawnError, WorldsError
from repro.faults.plan import KILL_SITE, FaultDecision, FaultKind
from repro.runtime.report_channel import ReportChannel, ReportLost

#: Bounded patience for verified reaping before we give up on a zombie.
_REAP_TIMEOUT_S = 2.0
#: A child that outlives its SIGKILL is re-signalled this often.
_REAP_POLL_S = 0.005


def _picklable(value: Any) -> bool:
    try:
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return True
    except Exception:
        return False


def _encode_report(payload: tuple) -> bytes:
    """Pickle a report; sanitize the workspace if it won't serialize.

    Workspaces may contain unpicklable helpers (lambdas, open handles)
    that the child inherited through fork. Those entries cannot travel
    back in a pickle; they are dropped and listed under the
    ``_unpicklable`` key rather than failing the whole alternative.
    """
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        pass
    if payload[0] == "ok":
        _, value, workspace = payload
        if not _picklable(value):
            return pickle.dumps(
                ("fail", f"result of type {type(value).__name__} is not picklable"),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        dropped = sorted(k for k, v in workspace.items() if not _picklable(v))
        safe = {k: v for k, v in workspace.items() if k not in dropped}
        safe["_unpicklable"] = dropped
        return pickle.dumps(("ok", value, safe), protocol=pickle.HIGHEST_PROTOCOL)
    return pickle.dumps(
        ("fail", "unserializable failure report"), protocol=pickle.HIGHEST_PROTOCOL
    )


def _send_report(channel: ReportChannel, report: tuple) -> None:
    """Stream ``report`` into ``channel``; sanitize it if it won't pickle."""
    try:
        channel.send(report)
    except Exception:
        channel.send(_encode_report(report))


def _child_main(
    alt: Alternative,
    workspace: dict,
    channel: ReportChannel,
    fault: FaultDecision | None = None,
) -> None:
    """Runs in the forked child; never returns.

    ``fault`` is this child's verdict from the block's fault plan,
    computed (deterministically) before the fork. Faults fire at the
    stage they model: CRASH/HANG before any work, SLOW_START and
    GUARD_EXCEPTION inside the shared world body, TRUNCATE/CORRUPT at
    report time — after the real result was computed, which is exactly
    when a real report write would break.
    """
    kind = fault.kind if fault is not None else None
    try:
        if alt.start_delay > 0:
            time.sleep(alt.start_delay)
        if kind is FaultKind.CRASH:
            os._exit(13)
        if kind is FaultKind.HANG:
            time.sleep(fault.param)
            os._exit(11)
        status, payload = world_body(alt, workspace, fault)
        if status != "ok":
            _send_report(channel, (status, payload))
            os._exit(0)
        report = ("ok", payload, workspace)
        if kind is FaultKind.TRUNCATE_REPORT:
            blob = _encode_report(report)
            channel.send(blob[: len(blob) // 2], claimed=len(blob))
            os._exit(12)
        if kind is FaultKind.CORRUPT_REPORT:
            blob = _encode_report(report)
            channel.send((b"\xde\xad\xbe\xef" * (len(blob) // 4 + 1))[: len(blob)])
            os._exit(12)
        _send_report(channel, report)
    except BaseException as exc:  # noqa: BLE001 - the report path itself broke
        try:
            channel.send(_encode_report(("fail", f"alternative raised {exc!r}")))
        except BaseException:
            pass
    finally:
        os._exit(0)


def _await_exit(pids: Iterable[int], timeout_s: float) -> None:
    """Block until every one of ``pids`` has exited, or for ``timeout_s``.

    A pidfd turns readable the moment its process terminates, reaped or
    not, so the wait ends on the exit event itself. A pid that is already
    reaped (``ESRCH``) is gone. Without ``os.pidfd_open`` (non-Linux
    POSIX) this is one bounded sleep of a plain poll loop. Either way it
    only waits: callers verify with ``waitpid`` afterwards.
    """
    if not hasattr(os, "pidfd_open"):
        time.sleep(max(0.0, min(timeout_s, _REAP_POLL_S)))
        return
    deadline = time.perf_counter() + timeout_s
    pidfds: list[int] = []
    try:
        for pid in pids:
            try:
                pidfds.append(os.pidfd_open(pid))
            except ProcessLookupError:
                pass
        with selectors.DefaultSelector() as alive:
            for fd in pidfds:
                alive.register(fd, selectors.EVENT_READ)
            while alive.get_map():
                wait_s = deadline - time.perf_counter()
                if wait_s <= 0:
                    break
                for key, _mask in alive.select(wait_s):
                    alive.unregister(key.fd)
    finally:
        for fd in pidfds:
            os.close(fd)


def _reap_verified(pids: Sequence[int], timeout_s: float = _REAP_TIMEOUT_S) -> list[int]:
    """Reap ``pids``, re-signalling survivors; return unreaped stragglers.

    SIGKILL is not optional, but a signal can be lost (the fault plane
    simulates exactly that, and a PID in an uninterruptible kernel sleep
    can genuinely linger), so death is verified with ``WNOHANG`` and the
    kill resent every ``_REAP_POLL_S`` until the child is actually gone.
    """
    remaining = set(pids)
    deadline = time.perf_counter() + timeout_s
    while remaining:
        for pid in list(remaining):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                remaining.discard(pid)
                continue
            if done:
                remaining.discard(pid)
        if not remaining or time.perf_counter() >= deadline:
            break
        for pid in remaining:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _await_exit(remaining, _REAP_POLL_S)
    return sorted(remaining)


def _kill(pid: int, index: int, sig: int) -> bool:
    """Deliver ``sig`` to ``pid``; one that is already gone needs no signal."""
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        pass
    return True


def _signal_children(
    children: dict[int, tuple[int, Alternative, ReportChannel, float]],
    send=_kill,
) -> tuple[float, list[dict]]:
    """SIGKILL ``children`` (pid → (index, alt, channel, fork stamp)); return
    (elapsed, events).

    The paper's immediate destruction: one SIGKILL each, then their
    channels closed. Nothing is awaited; the caller reaps with
    :func:`_reap_verified`. ``send(pid, index, sig)`` delivers the
    signals (the block interposes fault injection); it returns False
    when the signal was "lost".
    """
    t0 = time.perf_counter()
    events: list[dict] = []
    for pid, (index, alt, _, _) in children.items():
        delivered = send(pid, index, signal.SIGKILL)
        events.append(
            {"index": index, "name": alt.name, "action": "sigkill" if delivered else "signal-lost",
             "at_s": time.perf_counter() - t0, "grace_s": 0.0}
        )
    for _, _, channel, _ in children.values():
        channel.close()
    return time.perf_counter() - t0, events


def run_alternatives_fork(
    alternatives: Sequence[Any],
    initial: dict[str, Any] | None = None,
    timeout: float | None = None,
    elimination: EliminationPolicy = EliminationPolicy.ASYNCHRONOUS,
    fault_plan=None,
    block_id: int = 0,
    attempt: int = 0,
    watchdog: WatchdogPolicy | None = None,
    journal=None,
    obs=None,
) -> BlockOutcome:
    """Execute a block of alternatives as real forked processes.

    ``alternatives`` must be plain callables of a dict workspace (or
    :class:`Alternative` objects wrapping them); generator programs are a
    simulation-backend concept. Returns a
    :class:`~repro.core.outcome.BlockOutcome` whose times are wall clock.

    ``fault_plan``/``block_id``/``attempt`` drive deterministic fault
    injection (see :mod:`repro.faults.plan`); ``watchdog`` enables
    per-alternative SIGTERM→SIGKILL hang escalation. Block bookkeeping —
    guard prechecks, fault decisions, winner journaling, loser labels,
    the telemetry record — is the shared
    :class:`~repro.core.backend.BlockRun` surface; only the process
    mechanics live here.

    Raises :class:`~repro.errors.SpawnError` when the worlds cannot be
    created at all (real fork failure or an injected ``EAGAIN``); any
    children already spawned are destroyed first.
    """
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
        raise WorldsError("fork backend requires a POSIX platform")
    run = BlockRun(
        "fork", alternatives, initial, fault_plan=fault_plan,
        block_id=block_id, attempt=attempt, journal=journal, obs=obs,
    )
    lost_checked: set[int] = set()

    def _send_signal(pid: int, index: int, sig: int) -> bool:
        """Deliver a signal unless the plan loses this child's first one."""
        if fault_plan is not None and pid not in lost_checked:
            lost_checked.add(pid)
            if fault_plan.decide(KILL_SITE, block_id, index, attempt).fires:
                fault_plan.note_injection(
                    KILL_SITE, "kill-fail", block_id=block_id,
                    index=index, attempt=attempt, backend="fork",
                )
                return False
        return _kill(pid, index, sig)

    # pid -> (index, alt, channel, fork stamp) of every child not yet
    # settled; a world's clock starts at its fork plus its stagger
    pending: dict[int, tuple[int, Alternative, ReportChannel, float]] = {}

    def _abort_spawn() -> None:
        """Destroy children already forked when later spawning fails."""
        _signal_children(pending)
        _reap_verified(list(pending))

    for index, alt in enumerate(run.alts):
        if not run.precheck_guard(index, alt):
            continue
        child_fault = None
        if fault_plan is not None:
            # asked only when there is a plan: between forks every page the
            # parent writes is a copy-on-write fault, calls included
            run.spawn_fault(
                index, alt, on_abort=_abort_spawn,
                detail=f"[Errno {errno.EAGAIN}] injected: resource temporarily unavailable",
            )
            child_fault = run.child_fault(index, alt)
        t_fork = time.perf_counter()
        try:
            pid, channel = ReportChannel.fork()
        except OSError as exc:
            _abort_spawn()
            raise SpawnError(f"spawning alternative {alt.name!r} failed: {exc}") from exc
        if pid == 0:
            # child: alt_spawn returned our index (1-based in the paper);
            # the older siblings' channels came along and are not ours
            for _, _, sibling, _ in pending.values():
                sibling.close()
            _child_main(alt, run.base, channel, child_fault)
            os._exit(0)  # pragma: no cover - _child_main never returns
        pending[pid] = (index, alt, channel, t_fork)
    t_spawned = time.perf_counter()
    deadline = None if timeout is None else run.t_start + timeout

    # -- watchdog state ----------------------------------------------------
    watchdog_events: list[dict] = []
    soft_deadlines: dict[int, float] = {}
    term_at: dict[int, float] = {}   # pid -> when SIGTERM went out
    killed: set[int] = set()         # pid -> SIGKILL sent, awaiting EOF
    if watchdog is not None:
        for pid, (index, alt, _, _) in pending.items():
            soft_deadlines[pid] = t_spawned + watchdog.deadline_for(alt.start_delay)

    sel = selectors.DefaultSelector()
    for pid, (_, _, channel, _) in pending.items():
        sel.register(channel, selectors.EVENT_READ, pid)

    # children that reported or died, then the ones killed: reaped together
    to_reap: list[int] = []

    def _retire(pid: int, channel: ReportChannel) -> None:
        """Stop listening to a settled child; it is reaped with the rest."""
        sel.unregister(channel)
        channel.close()
        del pending[pid]
        to_reap.append(pid)

    won: tuple[int, Any, dict, float] | None = None
    try:
        while pending and won is None:
            now = time.perf_counter()
            if deadline is not None and now >= deadline:
                run.timed_out = True
                break
            # watchdog escalation pass: SIGTERM at the soft deadline,
            # SIGKILL once the grace period expires without an exit
            if watchdog is not None:
                for pid in list(pending):
                    if pid in killed:
                        continue
                    index, alt, _, _ = pending[pid]
                    if pid in term_at:
                        if now >= term_at[pid] + watchdog.term_grace_s:
                            delivered = _send_signal(pid, index, signal.SIGKILL)
                            killed.add(pid)
                            watchdog_events.append({
                                "index": index, "name": alt.name,
                                "action": "sigkill" if delivered else "signal-lost",
                                "at_s": now - run.t_start,
                                "grace_s": now - term_at[pid],
                            })
                    elif now >= soft_deadlines[pid]:
                        delivered = _send_signal(pid, index, signal.SIGTERM)
                        term_at[pid] = now
                        watchdog_events.append({
                            "index": index, "name": alt.name,
                            "action": "sigterm" if delivered else "signal-lost",
                            "at_s": now - run.t_start,
                            "grace_s": watchdog.term_grace_s,
                        })
            # earliest future obligation bounds the poll
            wakeups = []
            if deadline is not None:
                wakeups.append(deadline)
            if watchdog is not None:
                for pid in pending:
                    if pid in killed:
                        continue  # its death arrives as pipe EOF
                    if pid in term_at:
                        wakeups.append(term_at[pid] + watchdog.term_grace_s)
                    else:
                        wakeups.append(soft_deadlines[pid])
            wait_s = None
            if wakeups:
                wait_s = max(0.0, min(wakeups) - time.perf_counter())
            try:
                events = sel.select(wait_s)
            except InterruptedError:  # EINTR: PEP 475 retries for us, but be explicit
                continue
            if not events:
                continue  # deadline / watchdog action re-checked at loop top
            now = time.perf_counter()
            for key, _mask in events:
                pid = key.data
                if pid not in pending:
                    continue
                index, alt, channel, t_fork = pending[pid]
                elapsed_s = now - t_fork - alt.start_delay
                try:
                    report = channel.recv()
                except ReportLost as lost:
                    if pid in term_at or pid in killed:
                        report = ("fail", "killed by watchdog (soft deadline exceeded)")
                    elif lost.expected is not None or lost.held:
                        report = ("fail", "truncated report (child died mid-write)")
                    else:
                        report = ("fail", "child died without reporting")
                except Exception as exc:  # noqa: BLE001 - whatever unpickling raises
                    report = ("fail", f"unpicklable report: {exc!r}")
                if report[0] == "ok":
                    value, child_ws = report[1], report[2]
                    accepted = True
                    if alt.guard.accept is not None and alt.guard.placement & GuardPlacement.AT_SYNC:
                        try:
                            accepted = bool(alt.guard.passes_result(child_ws, value))
                        except Exception:
                            accepted = False
                    if accepted:
                        won = (index, value, child_ws, elapsed_s)
                        _retire(pid, channel)
                        break
                    report = ("guard", "guard rejected result at sync")
                run.reject(
                    index, str(report[1]), guard_failed=report[0] == "guard",
                    elapsed_s=elapsed_s,
                )
                _retire(pid, channel)
        # eliminate whatever still runs before the win is journalled: the
        # losers die while the parent does its own bookkeeping
        cut_s = time.perf_counter() - t_spawned
        elim_seconds, elim_events = _signal_children(pending, _send_signal)
        if won is not None:
            index, value, child_ws, elapsed_s = won
            run.accept(index, value, child_ws, elapsed_s=elapsed_s)
    except BaseException:
        # an exception out of the rendezvous must not strand children
        _signal_children(pending, _send_signal)
        _reap_verified([*to_reap, *pending])
        raise
    finally:
        sel.close()

    to_reap.extend(pending)
    synchronous = elimination is EliminationPolicy.SYNCHRONOUS
    zombies: list[int] = []
    if synchronous:
        t_reap = time.perf_counter()
        zombies = _reap_verified(to_reap)
        elim_seconds += time.perf_counter() - t_reap
    try:
        # a leftover child killed after a winner synchronized was *eliminated*;
        # only a block that expired with no winner timeout-kills its children
        leftover_error = (
            TIMEOUT_KILLED if run.timed_out and run.winner is None else ELIMINATED
        )
        for index, _, _, _ in pending.values():
            run.reject(index, leftover_error, elapsed_s=cut_s)
        extras: dict[str, Any] = {
            "elimination_policy": elimination.value, "eliminated": len(pending),
        }
        if watchdog_events or elim_events:
            extras["watchdog"] = watchdog_events + elim_events
            extras["watchdog_grace_s"] = sum(
                e["grace_s"] for e in watchdog_events if e["action"] == "sigkill"
            )
        # the parent resumes at finish(), which stamps elapsed_s and records
        # the block; the asynchronous reap that follows is off its books
        # but still done before the call returns
        outcome = run.finish(
            overhead=OverheadBreakdown(
                setup_s=t_spawned - run.t_start, completion_s=elim_seconds
            ),
            extras=extras,
        )
    finally:
        if not synchronous:
            zombies = _reap_verified(to_reap)
    if zombies:  # pragma: no cover - requires a truly unkillable child
        outcome.extras["zombies"] = zombies
    return outcome
