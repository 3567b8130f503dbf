"""Property: every backend agrees on a deterministic block's outcome.

The paper's section 3.3 contract — the observable result is one some
sequential execution of a single alternative could have produced — means
that when a block's winner is *forced* (at most one alternative can
succeed), the sim, thread, sequential, async and fork backends must all
commit the same winner with the same value, and must all fail when nothing
can succeed. Alternative sets are generated with exactly one (or zero)
succeeding member so the race has only one legal outcome; the rest fail
via a raised error or a rejecting guard.

Two further paths every backend must agree on:

- **guard rejection** — an entry guard that rejects keeps its
  alternative out of the race on every backend (the loser is labelled
  ``guard_failed``), without disturbing the forced winner;
- **timeout** — a block whose only viable alternative outlasts the
  parent timeout commits nowhere. Backends that can preempt a running
  world (thread, async, fork) must report ``timed_out`` with no winner;
  fork, which alone destroys the world it stops waiting for, labels the
  child ``timeout-killed``. The sequential backend cannot interrupt an
  alternative mid-flight, so the agreement is weaker there — it either
  times out with no winner or (having started the slow winner before
  the deadline) commits the one legal value.

- **committed state** — the backends that run a plain callable against
  a workspace dict (fork, thread, sequential) hand back the same
  ``extras["state"]``, whatever the workspace's size and whether or not
  all of it can be pickled. Fork alone ships the state between
  processes, so it alone drops the entries that cannot travel and lists
  them under ``_unpicklable``; the others' states are held to that view.

- **block bookkeeping** — the OS-style runners share one ``BlockRun``,
  so under one seeded ``FaultPlan`` and a journal they log the same
  ``injected_faults``, record the same BEFORE_SPAWN loser, and seal
  exactly one ``block`` txn naming the same winner. Fork alone reaps
  killed worlds after the parent resumes; its ``elapsed_s`` and block
  span must end at the resume, not after that reap.

- **a world's own time** — the concurrent runners (fork, thread, async)
  time a world from its start: after its stagger, and including an
  injected slow start.

The fork backend forks up to five real processes per example, a few
milliseconds a block; the ``max_examples`` below keep its share of this
file to about a second.
"""

import os
import pickle
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.alternative import Alternative, Guard, GuardPlacement
from repro.core.policy import EliminationPolicy
from repro.core.worlds import run_alternatives
from repro.faults.plan import CHILD_SITE, FaultKind, FaultPlan
from repro.journal import CommitJournal, MemoryJournalStorage
from repro.obs import Observability

BACKENDS = ("sim", "thread", "sequential", "async") + (
    ("fork",) if hasattr(os, "fork") else ()
)
#: the members of BACKENDS that stop waiting for a world at the deadline
PREEMPTIVE = tuple(b for b in BACKENDS if b != "sequential")
#: the members of BACKENDS built on ``BlockRun`` (sim has its own kernel)
OS_STYLE = tuple(b for b in BACKENDS if b != "sim")
#: the members of BACKENDS whose worlds are callables of a workspace dict
STATEFUL = tuple(b for b in BACKENDS if b in ("fork", "thread", "sequential"))


def make_alt(index, succeeds, value, mode):
    """One deterministic alternative; failures via ``mode``."""
    if succeeds:
        def body(ws, _v=value):
            ws["out"] = _v
            return _v
        guard = Guard.always()
    elif mode == "raise":
        def body(ws, _i=index):
            raise ValueError(f"alt {_i} broken")
        guard = Guard.always()
    else:  # a body that runs but a guard that rejects its result
        def body(ws, _v=value):
            return _v
        guard = Guard(name="reject", accept=lambda state, result: False)
    return Alternative(
        body, guard=guard, name=f"alt{index}",
        sim_cost=0.001 * (index + 1),  # deterministic virtual-time cost
    )


@st.composite
def forced_blocks(draw):
    """A block whose winner is forced: at most one alternative succeeds."""
    n = draw(st.integers(min_value=1, max_value=5))
    winner_idx = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
    modes = draw(st.lists(
        st.sampled_from(["raise", "guard"]), min_size=n, max_size=n,
    ))
    values = draw(st.lists(
        st.one_of(st.integers(-100, 100), st.text(max_size=5)),
        min_size=n, max_size=n,
    ))
    alts = [
        make_alt(i, succeeds=(i == winner_idx), value=values[i], mode=modes[i])
        for i in range(n)
    ]
    return alts, winner_idx, values


@given(forced_blocks())
@settings(max_examples=40, deadline=None)
def test_backends_agree_on_forced_winner(block):
    alts, winner_idx, values = block
    outcomes = {b: run_alternatives(alts, backend=b) for b in BACKENDS}
    if winner_idx is None:
        for backend, outcome in outcomes.items():
            assert outcome.failed, f"{backend} committed with no viable alternative"
            assert outcome.winner is None
    else:
        for backend, outcome in outcomes.items():
            assert outcome.winner is not None, f"{backend} failed a winnable block"
            assert outcome.winner.name == f"alt{winner_idx}", backend
            assert outcome.value == values[winner_idx], backend


@given(st.integers(-100, 100))
@settings(max_examples=20, deadline=None)
def test_backends_agree_on_single_alternative(value):
    alts = [make_alt(0, succeeds=True, value=value, mode="raise")]
    results = {b: run_alternatives(alts, backend=b).value for b in BACKENDS}
    assert len(set(results.values())) == 1
    assert results["sim"] == value


@given(st.integers(min_value=1, max_value=4), st.sampled_from(["raise", "guard"]))
@settings(max_examples=20, deadline=None)
def test_backends_agree_when_everything_fails(n, mode):
    alts = [make_alt(i, succeeds=False, value=i, mode=mode) for i in range(n)]
    for backend in BACKENDS:
        outcome = run_alternatives(alts, backend=backend)
        assert outcome.failed, backend
        assert outcome.winner is None, backend
        assert len(outcome.losers) == n, backend


def make_entry_rejected(index):
    """An alternative whose entry guard keeps it out of the race.

    BEFORE_SPAWN placement makes the rejection synchronous on every
    backend (the world is never created), so the loser labelling is
    deterministic — an IN_CHILD rejection on a preemptive backend can
    go uncollected when the winner commits first.
    """
    def body(ws, _i=index):  # pragma: no cover - must never run
        raise AssertionError(f"alt {_i} ran past a rejecting entry guard")
    return Alternative(
        body,
        guard=Guard(
            name="no-entry", check=lambda state: False,
            placement=GuardPlacement.BEFORE_SPAWN,
        ),
        name=f"alt{index}", sim_cost=0.001 * (index + 1),
    )


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.one_of(st.integers(-100, 100), st.text(max_size=5)),
)
@settings(max_examples=25, deadline=None)
def test_backends_agree_on_guard_rejection(n, winner_pos, value):
    """Entry-guard rejection is a non-starter on every backend.

    Every alternative but one is kept out by a rejecting entry guard;
    the survivor must win everywhere, and every loser must be labelled
    ``guard_failed`` (not crashed, not eliminated).
    """
    winner_idx = winner_pos % n
    alts = [
        make_alt(i, succeeds=True, value=value, mode="raise")
        if i == winner_idx
        else make_entry_rejected(i)
        for i in range(n)
    ]
    for backend in BACKENDS:
        outcome = run_alternatives(alts, backend=backend)
        assert outcome.winner is not None, f"{backend} failed a winnable block"
        assert outcome.winner.name == f"alt{winner_idx}", backend
        assert outcome.value == value, backend
        assert len(outcome.losers) == n - 1, backend
        for loser in outcome.losers:
            assert loser.guard_failed, (backend, loser)


def _raises_guard_text(ws):
    raise ValueError("bad guard value")


def test_backends_agree_that_guard_text_in_an_error_is_no_guard_verdict():
    """``guard_failed`` is the guard's own verdict, passed on by the
    runner: an exception that mentions a guard is a plain failure, and a
    result guard that says no is a guard failure, on every backend."""
    alts = [
        Alternative(_raises_guard_text, name="raises", sim_cost=0.001),
        make_alt(1, succeeds=False, value=1, mode="guard"),
    ]
    for backend in BACKENDS:
        outcome = run_alternatives(alts, backend=backend)
        verdicts = {loser.name: loser.guard_failed for loser in outcome.losers}
        assert verdicts == {"raises": False, "alt1": True}, backend


def _times_out_on_its_own(ws):
    raise TimeoutError("timeout talking to the db")


@pytest.mark.parametrize("backend", OS_STYLE)
def test_a_world_that_fails_with_timeout_text_was_not_eliminated(backend):
    """A loser is ``eliminated`` only when the block stopped it (the
    runner's own stop label), never because its error reads like one."""
    obs = Observability()
    outcome = run_alternatives(
        [Alternative(_times_out_on_its_own, name="db")], backend=backend, obs=obs,
    )
    assert outcome.failed and not outcome.timed_out
    children = obs.registry.get("mw_backend_children_total")
    assert children.value(backend=backend, disposition="aborted") == 1
    assert children.value(backend=backend, disposition="eliminated") == 0
    (span,) = [s for s in obs.tracer.spans if s.cat == "child"]
    assert span.disposition == "aborted"


def make_slow_winner(sleep_s, value):
    """A viable alternative that outlasts any short parent timeout.

    The body sleeps for real on the OS backends, awaits on the asyncio
    backend (a sync sleep would block the loop and starve the parent's
    timer), and carries a virtual cost larger than the timeout for sim.
    """
    import asyncio
    import time as _time

    def body(ws, _v=value):
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            _time.sleep(sleep_s)
            return _v
        return asyncio.sleep(sleep_s, result=_v)

    return Alternative(body, name="slow", sim_cost=1.0)


@given(st.integers(min_value=0, max_value=3), st.sampled_from(["raise", "guard"]))
@settings(max_examples=6, deadline=None)
def test_backends_agree_on_timeout_alternative(n_losers, mode):
    """A block whose only viable alternative outlasts the timeout.

    Preemptive backends (sim counts virtual time; thread, async and fork
    stop waiting at the deadline, and fork kills what it waited for) must
    time out with no winner. The sequential backend cannot interrupt a
    started alternative, so it either times out the same way or commits
    the one legal value — both are sequentially-consistent outcomes,
    nothing else is.
    """
    slow = make_slow_winner(0.25, "late")
    alts = [slow] + [
        make_alt(i + 1, succeeds=False, value=i, mode=mode)
        for i in range(n_losers)
    ]
    for backend in PREEMPTIVE:
        outcome = run_alternatives(alts, timeout=0.05, backend=backend)
        assert outcome.winner is None, f"{backend} committed past the deadline"
        assert outcome.timed_out, backend
        if backend == "fork":
            assert outcome.losers[0].error == "timeout-killed"
    seq = run_alternatives(alts, timeout=0.05, backend="sequential")
    if seq.winner is None:
        assert seq.timed_out
    else:
        assert seq.value == "late"


def _as_shipped(state):
    """``state`` as a process boundary lets it through (the fork backend's
    rule): unpicklable entries dropped and listed, nothing else touched."""
    def travels(value):
        try:
            pickle.dumps(value)
            return True
        except Exception:
            return False

    dropped = sorted(k for k, v in state.items() if not travels(v))
    if not dropped:
        return state
    shipped = {k: v for k, v in state.items() if k not in dropped}
    shipped["_unpicklable"] = dropped
    return shipped


def _commit(ws):
    """The forced winner: rewrites two pages and records what it was given
    (the thread backend lends its worlds a private ``_cancel`` entry)."""
    given = sorted(k for k in ws if not k.startswith("_"))
    for key in [k for k in given if k.startswith("page")][:2]:
        ws[key] = ws[key][::-1]
    ws["out"] = given
    return len(given)


def _broken(ws):
    ws["out"] = "never committed"
    raise ValueError("broken")


@given(
    st.dictionaries(
        st.text(alphabet="abcxyz", min_size=1, max_size=4),
        st.one_of(
            st.integers(), st.text(max_size=8), st.binary(max_size=64),
            st.lists(st.integers(), max_size=4),
        ),
        max_size=5,
    ),
    st.sampled_from([0, 1, 17]),
    st.lists(st.sampled_from(["helper", "hook"]), unique=True),
)
# 300 pages of 4 KiB: a report 18 times the size of a pipe's buffer
@example(entries={"n": 1}, n_pages=300, helpers=[])
@example(entries={"n": 1}, n_pages=2, helpers=["hook", "helper"])
@settings(max_examples=15, deadline=None)
def test_backends_agree_on_committed_state(entries, n_pages, helpers):
    initial = dict(entries)
    initial.update({f"page{i:03d}": bytes([i % 251]) * 4096 for i in range(n_pages)})
    initial.update({name: (lambda ws: None) for name in helpers})
    alts = [Alternative(_broken, name="broken"), Alternative(_commit, name="commit")]
    outcomes = {b: run_alternatives(alts, initial=initial, backend=b) for b in STATEFUL}
    states = {}
    for backend, outcome in outcomes.items():
        assert outcome.winner is not None, f"{backend} failed a winnable block"
        assert outcome.winner.name == "commit", backend
        assert outcome.value == len(initial), backend
        state = outcome.extras["state"]
        states[backend] = state if backend == "fork" else _as_shipped(state)
    reference = states["sequential"]
    assert reference["out"] == sorted(initial)
    assert reference.get("_unpicklable", []) == sorted(helpers)
    if n_pages:
        assert reference["page000"] == initial["page000"][::-1]
    for backend, state in states.items():
        assert state == reference, backend


@given(st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_backends_agree_on_block_bookkeeping(seed):
    """One fault plan, one journal: the same bookkeeping on every runner.

    Alternative 0 is rejected before spawn; every later one whose
    ``child``-site verdict fires has its guard fail by injection, and
    the block ends at the first that is spared — the forced winner, and
    the last alternative, so the in-order sequential runner decides as
    many faults as the runners that spawn everything up front.
    """
    block_id, limit = 7, 5
    plan_args = dict(seed=seed, rates={FaultKind.GUARD_EXCEPTION: 0.5})
    probe = FaultPlan(**plan_args)
    doomed = []
    for index in range(1, limit):
        if not probe.decide(CHILD_SITE, block_id, index, 0).fires:
            break
        doomed.append(index)
    winner_idx = len(doomed) + 1 if len(doomed) + 1 < limit else None
    n = limit if winner_idx is None else winner_idx + 1
    alts = [make_entry_rejected(0)] + [
        make_alt(i, succeeds=True, value=i * 10, mode="raise") for i in range(1, n)
    ]
    seen = {}
    for backend in OS_STYLE:
        journal = CommitJournal(MemoryJournalStorage())
        outcome = run_alternatives(
            alts, backend=backend, fault_plan=FaultPlan(**plan_args),
            block_id=block_id, journal=journal,
        )
        txns = [
            (intent["data"]["winner_index"], intent["data"]["winner_name"], applied["value"])
            for intent, applied in journal.applied_intents("block")
        ]
        seen[backend] = (
            outcome.extras.get("injected_faults", []),
            [l for l in outcome.losers if l.index == 0],
            txns,
        )
    injected, skipped, txns = seen["sequential"]
    assert [f["index"] for f in injected] == doomed
    assert [(l.error, l.guard_failed, l.elapsed_s) for l in skipped] == [
        ("guard rejected before spawn", True, 0.0)
    ]
    assert txns == (
        [] if winner_idx is None else [(winner_idx, f"alt{winner_idx}", winner_idx * 10)]
    )
    for backend, record in seen.items():
        assert record == seen["sequential"], backend


@pytest.mark.skipif("fork" not in BACKENDS, reason="needs os.fork")
def test_fork_elapsed_ends_at_parent_resume_not_after_the_reap(monkeypatch):
    """Asynchronous elimination: the reap of killed worlds is off the books.

    Every reap is slowed by ``delay``. The winner is reaped together
    with the killed loser, after the parent has resumed, so the call
    outlasts ``elapsed_s`` — and the block span — by it.
    """
    from repro.runtime import fork_backend

    delay, reap = 0.25, fork_backend._reap_verified

    def slow_reap(pids, *args):
        time.sleep(delay)
        return reap(pids, *args)

    monkeypatch.setattr(fork_backend, "_reap_verified", slow_reap)
    obs = Observability()
    t0 = time.perf_counter()
    outcome = run_alternatives(
        [make_alt(0, succeeds=True, value=1, mode="raise"), make_slow_winner(30.0, "late")],
        backend="fork", elimination=EliminationPolicy.ASYNCHRONOUS, obs=obs,
    )
    wall = time.perf_counter() - t0
    assert outcome.value == 1 and outcome.extras["eliminated"] == 1
    assert outcome.overhead.completion_s < delay  # signals sent, nothing awaited
    assert wall - outcome.elapsed_s >= delay
    (span,) = [s for s in obs.tracer.spans if s.cat == "alt-block"]
    assert span.attrs["elapsed_s"] == outcome.elapsed_s
    assert abs(span.duration - outcome.elapsed_s) < 1e-6


#: the members of BACKENDS that start every world at once and time each
#: from its own start
CONCURRENT = tuple(b for b in BACKENDS if b in ("fork", "thread", "async"))


@pytest.mark.parametrize("backend", CONCURRENT)
def test_backends_agree_that_elapsed_s_is_a_worlds_own_time(backend):
    """A world's ``elapsed_s`` starts when its world does: a SLOW_START
    world reads at least its delay, and a staggered world's stagger is
    not in it. Fork forks its children one after another, so it stamps
    each at its own fork; timing all from after the last fork read an
    early winner short."""
    slow = 0.2
    outcome = run_alternatives(
        [make_alt(i, succeeds=True, value=i, mode="raise") for i in range(6)],
        backend=backend,
        fault_plan=FaultPlan(seed=0, rates={FaultKind.SLOW_START: 1.0}, slow_start_s=slow),
    )
    assert outcome.winner is not None and outcome.winner.elapsed_s >= slow

    stagger = 0.3
    outcome = run_alternatives(
        [Alternative(lambda ws: "late", name="staggered", start_delay=stagger)],
        backend=backend,
    )
    assert outcome.value == "late"
    assert outcome.winner.elapsed_s < stagger / 2


class _PlacementSpy(Guard):
    """A guard that counts the reads of its ``placement``."""

    def __getattribute__(self, name):
        if name == "placement":
            object.__setattr__(self, "reads", object.__getattribute__(self, "reads") + 1)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("backend", OS_STYLE)
def test_a_guard_with_no_predicates_never_reads_its_placement(backend):
    """A Flag ``&`` builds its result in Python code, and between forks
    every page the parent writes is a copy-on-write fault: with no
    predicate to run, the parent asks nothing of the placement."""
    guard = _PlacementSpy(placement=GuardPlacement.BEFORE_SPAWN | GuardPlacement.AT_SYNC)
    guard.reads = 0
    alts = [Alternative(lambda ws: 1, guard=guard), Alternative(lambda ws: 2, guard=guard)]
    assert run_alternatives(alts, backend=backend).value in (1, 2)
    assert guard.reads == 0
