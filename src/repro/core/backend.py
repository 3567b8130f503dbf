"""The ``Backend`` protocol, registry, and shared block bookkeeping.

Every execution backend — simulation kernel, ``os.fork`` worlds, thread
worlds, degenerate sequential execution, asyncio tasks — implements one
contract: *spawn* a world per alternative, *wait* for the first
acceptable result, *eliminate* the losers, *label* every alternative's
fate, and *record* the settled block (journal win + telemetry). That
contract is split into reusable pieces that every OS-style runner
(fork / thread / sequential / async) is built on, so a new backend is
one module, not another copy:

- :class:`Backend` — the structural protocol a runner satisfies, plus a
  registry (:func:`register_backend` / :func:`resolve_backend`) that
  :func:`repro.core.worlds.run_alternatives` dispatches through. The
  built-in backends are registered here with lazy loaders, so importing
  :mod:`repro.core` never drags in ``asyncio`` or the fork machinery.
- :class:`BlockRun` — the shared spawn/wait/eliminate/label/record
  bookkeeping: pre-spawn guard checks, deterministic ``spawn``/``child``
  fault decisions, winner acceptance (with the durable
  :func:`~repro.journal.wal.record_block_win` transaction), loser
  labelling, and final :class:`~repro.core.outcome.BlockOutcome`
  assembly including the plane's ``record_block`` hook.
- :func:`world_body` — what one synchronous world does between spawn
  and report: entry guard, body, result guard, and the loser strings
  the backends must agree on.

A backend owns only what is genuinely its own: how worlds run and how
losers die (signals for fork, cooperative tokens for threads, task
cancellation for asyncio).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence, runtime_checkable

from repro.analysis.overhead import OverheadBreakdown
from repro.core.alternative import Alternative, GuardPlacement
from repro.core.outcome import AlternativeResult, BlockOutcome
from repro.errors import SpawnError, WorldsError
from repro.obs import or_null

if TYPE_CHECKING:  # import cycle: repro.faults pulls in the supervisor → worlds
    from repro.faults.plan import FaultDecision


def normalize_alternatives(alternatives: Sequence[Any]) -> list[Alternative]:
    """Coerce a sequence of callables/Alternatives into Alternatives."""
    out = []
    for i, alt in enumerate(alternatives):
        if isinstance(alt, Alternative):
            out.append(alt)
        elif callable(alt):
            out.append(Alternative(alt, name=getattr(alt, "__name__", f"alt{i}")))
        else:
            raise WorldsError(f"cannot use {alt!r} as an alternative")
    if not out:
        raise WorldsError("need at least one alternative")
    return out


@runtime_checkable
class Backend(Protocol):
    """What ``run_alternatives`` requires of a backend runner.

    A backend is any callable with this signature; the built-in runners
    are plain functions. ``watchdog`` is accepted by every backend and
    honoured only where it means something (the fork backend's
    SIGTERM→SIGKILL ladder); likewise ``elimination`` degrades to each
    backend's best available mechanism (signals, cooperative tokens,
    task cancellation, or nothing at all for sequential execution).
    """

    def __call__(
        self,
        alternatives: Sequence[Any],
        initial: dict[str, Any] | None = None,
        timeout: float | None = None,
        *,
        fault_plan=None,
        block_id: int = 0,
        attempt: int = 0,
        watchdog=None,
        journal=None,
        obs=None,
        **kwargs: Any,
    ) -> BlockOutcome:
        ...  # pragma: no cover - protocol stub


@dataclass
class BackendSpec:
    """One registry entry: a name, a lazy loader, and doc metadata.

    ``loader`` returns the runner on first use; the result is cached so
    repeat dispatches cost one dict lookup. ``summary`` feeds the
    generated backend list in :mod:`repro.core.worlds`'s docstring.
    """

    name: str
    loader: Callable[[], Callable[..., BlockOutcome]]
    summary: str = ""
    _runner: Callable[..., BlockOutcome] | None = field(
        default=None, repr=False, compare=False
    )

    def resolve(self) -> Callable[..., BlockOutcome]:
        if self._runner is None:
            self._runner = self.loader()
        return self._runner


_REGISTRY: "OrderedDict[str, BackendSpec]" = OrderedDict()


def register_backend(
    name: str,
    loader: Callable[[], Callable[..., BlockOutcome]],
    summary: str = "",
    *,
    replace: bool = False,
) -> None:
    """Register a backend under ``name`` with a lazy ``loader``.

    ``loader`` is called (once) the first time the backend is used; it
    must return a :class:`Backend`-shaped callable. Registering an
    existing name raises unless ``replace=True`` — shadowing a built-in
    backend by accident would silently change program semantics.
    """
    if not name or not isinstance(name, str):
        raise WorldsError(f"backend name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not replace:
        raise WorldsError(
            f"backend {name!r} is already registered (pass replace=True to override)"
        )
    _REGISTRY[name] = BackendSpec(name=name, loader=loader, summary=summary)


def backend_names() -> tuple[str, ...]:
    """Every registered backend name, in registration order."""
    return tuple(_REGISTRY)


def backend_summaries() -> list[tuple[str, str]]:
    """``(name, summary)`` pairs for doc generation."""
    return [(spec.name, spec.summary) for spec in _REGISTRY.values()]


def resolve_backend(name: str) -> Callable[..., BlockOutcome]:
    """The runner registered under ``name``; raises listing valid names."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise WorldsError(
            f"unknown backend {name!r}: valid backends are "
            + ", ".join(repr(b) for b in _REGISTRY)
        )
    return spec.resolve()


# -- shared block bookkeeping ----------------------------------------------
class BlockRun:
    """Spawn/wait/eliminate/label/record state shared by the OS-style backends.

    One instance tracks one block execution: the normalized alternative
    list, the base workspace, fault decisions taken, the winner and its
    workspace, loser records, and the clock. Every OS-style runner
    drives its whole lifecycle through it; :meth:`finish` is called at
    the instant the parent resumes, so ``elapsed_s`` ends there.
    """

    def __init__(
        self,
        backend: str,
        alternatives: Sequence[Any],
        initial: dict[str, Any] | None = None,
        *,
        fault_plan=None,
        block_id: int = 0,
        attempt: int = 0,
        journal=None,
        obs=None,
    ) -> None:
        self.backend = backend
        self.alts = normalize_alternatives(alternatives)
        self.base: dict[str, Any] = dict(initial or {})
        self.fault_plan = fault_plan
        self.block_id = block_id
        self.attempt = attempt
        self.journal = journal
        self.obs = or_null(obs)
        self.t_start = time.perf_counter()
        self.winner: AlternativeResult | None = None
        self.winner_ws: dict | None = None
        self.losers: list[AlternativeResult] = []
        self.injected: list[dict] = []
        self.timed_out = False

    # -- spawn-side decisions ---------------------------------------------
    def precheck_guard(self, index: int, alt: Alternative) -> bool:
        """BEFORE_SPAWN guard evaluation; False records the skip as a loser."""
        # None first: a Flag ``&`` builds its result in Python code, and
        # between forks every page the parent writes is a copy-on-write fault
        if alt.guard.check is None or not (alt.guard.placement & GuardPlacement.BEFORE_SPAWN):
            return True
        try:
            ok = alt.guard.passes_entry(self.base)
        except Exception:
            ok = False
        if not ok:
            self.losers.append(
                AlternativeResult(
                    index=index, name=alt.name, guard_failed=True,
                    error="guard rejected before spawn",
                )
            )
        return ok

    def spawn_fault(
        self, index: int, alt: Alternative, on_abort=None, detail: str | None = None
    ) -> None:
        """Raise :class:`~repro.errors.SpawnError` if the plan dooms this spawn.

        ``on_abort`` runs first (cancel/destroy already-started siblings)
        so a failed spawn never leaks running worlds; ``detail`` names the
        mechanism that "failed" in the error message.
        """
        if self.fault_plan is None:
            return
        from repro.faults.plan import SPAWN_SITE

        if self.fault_plan.decide(SPAWN_SITE, self.block_id, index, self.attempt).fires:
            if on_abort is not None:
                on_abort()
            self.fault_plan.note_injection(
                SPAWN_SITE, "spawn-fail", block_id=self.block_id,
                index=index, attempt=self.attempt, backend=self.backend,
            )
            raise SpawnError(
                f"spawning alternative {alt.name!r} failed: "
                + (detail or f"injected {self.backend}-spawn failure")
            )

    def child_fault(self, index: int, alt: Alternative) -> FaultDecision | None:
        """This world's ``child``-site verdict, logged when it fires."""
        from repro.faults.plan import CHILD_SITE

        return self.site_fault(CHILD_SITE, index, alt)

    def site_fault(self, site: str, index: int, alt: Alternative) -> FaultDecision | None:
        """A backend-specific fault site's verdict, keyed like ``child``."""
        if self.fault_plan is None:
            return None
        fault = self.fault_plan.decide(site, self.block_id, index, self.attempt)
        if fault.fires:
            self.injected.append(
                {"index": index, "name": alt.name, "kind": fault.kind.value}
            )
            self.fault_plan.note_injection(
                site, fault.kind, block_id=self.block_id,
                index=index, attempt=self.attempt, backend=self.backend,
            )
        return fault

    # -- settlement --------------------------------------------------------
    def accept(
        self,
        index: int,
        value: Any,
        workspace: dict | None = None,
        elapsed_s: float = 0.0,
    ) -> AlternativeResult:
        """Commit ``index`` as the winner; journals the win durably."""
        self.winner = AlternativeResult(
            index=index, name=self.alts[index].name, value=value,
            succeeded=True, elapsed_s=elapsed_s,
        )
        self.winner_ws = workspace
        if self.journal is not None:
            from repro.journal import record_block_win

            record_block_win(self.journal, self.block_id, self.attempt, self.winner)
        return self.winner

    def reject(
        self,
        index: int,
        error: str,
        *,
        guard_failed: bool = False,
        elapsed_s: float = 0.0,
    ) -> AlternativeResult:
        """Label ``index`` a loser (failure, elimination, or timeout);
        ``guard_failed`` is the guard's own verdict, never read from
        ``error``."""
        loser = AlternativeResult(
            index=index, name=self.alts[index].name, error=error,
            guard_failed=guard_failed, elapsed_s=elapsed_s,
        )
        self.losers.append(loser)
        return loser

    def finish(
        self,
        *,
        overhead: OverheadBreakdown | None = None,
        extras: dict[str, Any] | None = None,
    ) -> BlockOutcome:
        """Assemble the outcome and fire the telemetry record hook."""
        outcome = BlockOutcome(
            winner=self.winner,
            elapsed_s=time.perf_counter() - self.t_start,
            overhead=overhead if overhead is not None else OverheadBreakdown(),
            timed_out=self.timed_out and self.winner is None,
            losers=sorted(self.losers, key=lambda r: r.index),
        )
        if self.winner_ws is not None:
            outcome.extras["state"] = self.winner_ws
        if self.injected:
            outcome.extras["injected_faults"] = self.injected
        if extras:
            outcome.extras.update(extras)
        self.obs.record_block(
            backend=self.backend, block_id=self.block_id,
            attempt=self.attempt, t_start=self.t_start, outcome=outcome,
        )
        return outcome


def world_body(
    alt: Alternative, workspace: dict, fault: FaultDecision | None = None
) -> tuple[str, Any]:
    """One synchronous world: entry guard → ``alt.fn`` → result guard.

    Returns ``("ok", value)``, ``("guard", reason)`` when the guard
    rejected the world, or ``("fail", reason)`` when anything else failed,
    and never raises: the status is the guard verdict the runner passes
    on as ``guard_failed``. Of the ``child``-site faults only the two
    every backend reads alike are acted on here (SLOW_START delays the
    body, GUARD_EXCEPTION fails the guard); what a crash, a hang or a
    broken report means is the calling backend's own business, decided
    around this call.
    """
    try:
        if fault is not None and fault.fires:
            from repro.faults.plan import FaultKind

            if fault.kind is FaultKind.SLOW_START:
                time.sleep(fault.param)
            elif fault.kind is FaultKind.GUARD_EXCEPTION:
                return "guard", f"guard {alt.guard.name!r} raised (injected exception)"
        if not alt.guard.passes_entry(workspace):
            return "guard", f"guard {alt.guard.name!r} rejected entry"
        value = alt.fn(workspace)
        if not alt.guard.passes_result(workspace, value):
            return "guard", f"guard {alt.guard.name!r} rejected result"
        return "ok", value
    except BaseException as exc:  # noqa: BLE001 - any failure is a loser
        return "fail", f"alternative raised {exc!r}"


# -- built-in backends ------------------------------------------------------
def _load_sim():
    from repro.core.worlds import run_alternatives_sim

    def run_sim(
        alternatives, initial=None, timeout=None, *,
        fault_plan=None, block_id=0, attempt=0, watchdog=None,
        journal=None, obs=None, **kwargs,
    ):
        outcome, _kernel = run_alternatives_sim(
            alternatives, initial, timeout,
            fault_plan=fault_plan, journal=journal, obs=obs,
            **kwargs,
        )
        return outcome

    return run_sim


def _load_fork():
    from repro.runtime.fork_backend import run_alternatives_fork

    return run_alternatives_fork


def _load_thread():
    from repro.runtime.thread_backend import run_alternatives_thread

    return run_alternatives_thread


def _load_sequential():
    from repro.runtime.sequential_backend import run_alternatives_sequential

    return run_alternatives_sequential


def _load_async():
    from repro.aio.backend import run_alternatives_async

    return run_alternatives_async


register_backend(
    "sim", _load_sim,
    "the deterministic simulation kernel (virtual time, calibrated "
    "overheads, full predicate semantics)",
)
register_backend(
    "fork", _load_fork,
    "real ``os.fork`` worlds with genuine kernel COW and SIGKILL "
    "elimination (wall-clock time)",
)
register_backend(
    "thread", _load_thread,
    "threads with copied workspaces and cooperative cancellation "
    "(no COW; useful where fork is unavailable, and as a baseline)",
)
register_backend(
    "sequential", _load_sequential,
    "degenerate standby-spares execution, one alternative at a time "
    "(the last rung of the degradation ladder)",
)
register_backend(
    "async", _load_async,
    "asyncio tasks with copied workspaces and cancellation-as-"
    "elimination; scales I/O-bound blocks to tens of thousands of "
    "concurrent worlds in one process",
)
