"""The world budget, explored by a hypothesis ``RuleBasedStateMachine``
against a dict model of who holds which slots.

The rules are a non-blocking reserve (tenant, want), a thread parked in
``reserve_blocking`` when nothing is free, a partial release and a full
release. The model grants ``min(want, free)`` and refuses when nothing
is free; a release hands what it frees to the parked waiters oldest
first, each head taking ``min(want, free)``. Each step waits until the
woken threads have run. After every step:

- ``in_use`` is the sum of the live grants and at most ``slots``;
- every live reservation holds at least one slot;
- ``high_watermark`` is at most ``slots``;
- a reserve was refused iff nothing was free;
- a holder's ``granted`` changed only by its own release;
- grants to parked waiters follow park order, each the model's grant;
- no slot stays free while a waiter is parked.

CI's fuzz smoke runs ``BUDGET_MACHINE_EXAMPLES=1000``.
"""

import os
import threading
import time

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.serve import WorldBudget

EXAMPLES = int(os.environ.get("BUDGET_MACHINE_EXAMPLES", "100"))
TENANTS = ("a", "b", "c")
#: parked threads an example may hold at once
MAX_PARKED = 6


class Held:
    """The model's view of one live reservation."""

    def __init__(self, res, granted):
        self.res = res
        self.granted = granted


class BudgetMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.budget = None
        #: live reservations, in grant order
        self.held: list[Held] = []
        #: (slots free before it, its grant) of the last step's reserve
        self.last_reserve = None
        #: threads started in reserve_blocking, and what each returned
        self.parks = 0
        self.threads: list[threading.Thread] = []
        self.returned: dict[int, object] = {}
        #: the model's parked waiters, oldest first: (park index, want)
        self.queue: list[tuple[int, int]] = []
        #: (park index, model grant) handed out but not yet checked
        self.woken: list[tuple[int, Held]] = []

    @initialize(slots=st.integers(1, 6))
    def build(self, slots):
        self.slots = slots
        self.budget = WorldBudget(slots)

    # -- the model ------------------------------------------------------------
    def _free(self):
        return self.slots - sum(h.granted for h in self.held)

    def _settle(self):
        """Wait until every thread the model says has been granted has
        returned, and check the grants: a prefix of park order, each the
        model's ``min(want, free)``."""
        parked = {index for index, _ in self.queue}
        deadline = time.monotonic() + 10
        while len(self.returned) < self.parks - len(parked):
            assert time.monotonic() < deadline, (
                f"{self.budget.free} slots free with {self.budget.waiting} "
                f"waiters parked; the model expects {len(parked)} parked"
            )
            time.sleep(0.0005)
        assert set(self.returned) == set(range(self.parks)) - parked
        assert self.budget.waiting == len(parked)
        for index, h in self.woken:
            h.res = self.returned[index]
            assert h.res.granted == h.granted, (index, h.res.granted, h.granted)
        self.woken = []

    def _serve_the_queue(self):
        """A release hands what it frees to the parked waiters, oldest first."""
        while self.queue and self._free() > 0:
            index, want = self.queue.pop(0)
            self.woken.append((index, Held(None, min(want, self._free()))))
            self.held.append(self.woken[-1][1])
        self._settle()

    # -- rules ----------------------------------------------------------------
    @rule(tenant=st.sampled_from(TENANTS), want=st.integers(1, 6))
    def reserve(self, tenant, want):
        free = self._free()
        res = self.budget.reserve(tenant, want=want)
        self.last_reserve = (free, res)
        if res is not None:
            assert res.granted == min(want, free)
            self.held.append(Held(res, res.granted))

    @precondition(lambda self: len(self.queue) < MAX_PARKED)
    @rule(tenant=st.sampled_from(TENANTS), want=st.integers(1, 6))
    def park(self, tenant, want):
        """A thread in ``reserve_blocking``: an arrival takes what is free
        at once, otherwise it parks behind the waiters before it."""
        index, free = self.parks, self._free()
        self.parks += 1

        def reserve():
            self.returned[index] = self.budget.reserve_blocking(tenant, want, timeout=60)

        self.threads.append(threading.Thread(target=reserve, daemon=True))
        self.threads[-1].start()
        if free > 0:
            self.woken.append((index, Held(None, min(want, free))))
            self.held.append(self.woken[-1][1])
        else:
            self.queue.append((index, want))
            deadline = time.monotonic() + 10
            while self.budget.waiting < len(self.queue):
                assert time.monotonic() < deadline, "the waiter never parked"
                time.sleep(0.0005)
        self._settle()
        self.last_reserve = None

    @precondition(lambda self: any(h.granted > 1 for h in self.held))
    @rule(pick=st.integers(0, 99), data=st.data())
    def release_part(self, pick, data):
        candidates = [h for h in self.held if h.granted > 1]
        h = candidates[pick % len(candidates)]
        n = data.draw(st.integers(1, h.granted - 1))
        h.res.release(n)
        h.granted -= n
        self.last_reserve = None
        self._serve_the_queue()

    @precondition(lambda self: self.held)
    @rule(pick=st.integers(0, 99))
    def release_all(self, pick):
        h = self.held.pop(pick % len(self.held))
        h.res.release()
        h.res.release()  # idempotent
        self.last_reserve = None
        self._serve_the_queue()

    def teardown(self):
        # every release grants the head, whose grant the next pass releases
        deadline = time.monotonic() + 10
        while any(t.is_alive() for t in self.threads) and time.monotonic() < deadline:
            for res in [h.res for h in self.held] + list(self.returned.values()):
                if res is not None:
                    res.release()
            time.sleep(0.001)

    # -- invariants -------------------------------------------------------------
    @invariant()
    def in_use_is_the_sum_of_the_grants(self):
        if self.budget is None:
            return
        assert self.budget.in_use == sum(h.res.granted for h in self.held)
        assert self.budget.in_use <= self.slots
        assert self.budget.high_watermark <= self.slots

    @invariant()
    def a_reserve_is_refused_iff_nothing_is_free(self):
        if self.last_reserve is not None:
            free, res = self.last_reserve
            assert (res is None) == (free == 0)

    @invariant()
    def no_slot_stays_free_while_a_waiter_is_parked(self):
        if self.budget is not None and self.budget.waiting:
            assert self.budget.free == 0

    @invariant()
    def a_grant_changes_only_by_its_holders_release(self):
        # the model moves ``granted`` in the release rules alone
        for h in self.held:
            assert h.res.granted >= 1
            assert h.res.granted == h.granted


BudgetMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None
)
TestBudgetMachine = BudgetMachine.TestCase
