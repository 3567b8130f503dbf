"""The world budget, explored by a hypothesis ``RuleBasedStateMachine``
against a dict model of who holds which slots.

The rules are a non-blocking reserve (tenant, want, priority), a partial
release and a full release. The model grants what is free; with nothing
free, it takes exactly one speculative slot from the lowest-priority
holder below the asker (ties: most speculative slots, then the earliest
holder), unless the asking tenant holds every slot. After every step:

- ``in_use`` is the sum of the live grants and at most ``slots``;
- every live reservation holds at least one slot;
- ``high_watermark`` is at most ``slots``;
- every reservation's ``granted`` and ``preempted`` match the model.

CI's fuzz smoke runs ``BUDGET_MACHINE_EXAMPLES=1000``.
"""

import os

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


class Held:
    """The model's view of one live reservation."""

    def __init__(self, res, tenant, priority, granted):
        self.res = res
        self.tenant = tenant
        self.priority = priority
        self.granted = granted
        self.preempted = 0


class BudgetMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.budget = None
        #: live reservations, in grant order
        self.held: list[Held] = []

    @initialize(slots=st.integers(1, 6))
    def build(self, slots):
        self.slots = slots
        self.budget = WorldBudget(slots)

    # -- the model ------------------------------------------------------------
    def _free(self):
        return self.slots - sum(h.granted for h in self.held)

    def _victim(self, tenant, priority):
        """The holder the model preempts for a grant with nothing free,
        or None when the grant must be refused."""
        if all(h.tenant == tenant for h in self.held):
            return None  # a tenant never preempts itself off a full pool
        below = [
            (h.priority, -(h.granted - 1), order, h)
            for order, h in enumerate(self.held)
            if h.priority < priority and h.granted > 1
        ]
        return min(below, key=lambda t: t[:3])[3] if below else None

    # -- rules ----------------------------------------------------------------
    @rule(
        tenant=st.sampled_from(TENANTS),
        want=st.integers(1, 6),
        priority=st.integers(0, 3),
    )
    def reserve(self, tenant, want, priority):
        free = self._free()
        victim = None if free else self._victim(tenant, priority)
        res = self.budget.reserve(tenant, want=want, priority=priority)
        if free:
            assert res is not None and res.granted == min(want, free)
        elif victim is None:
            assert res is None
            return
        else:
            assert res is not None and res.granted == 1
            assert victim.priority < priority and victim.granted > 1
            victim.granted -= 1
            victim.preempted += 1
        self.held.append(Held(res, tenant, priority, res.granted))

    @precondition(lambda self: any(h.granted > 1 for h in self.held))
    @rule(pick=st.integers(0, 99), data=st.data())
    def release_part(self, pick, data):
        candidates = [h for h in self.held if h.granted > 1]
        h = candidates[pick % len(candidates)]
        n = data.draw(st.integers(1, h.granted - 1))
        h.res.release(n)
        h.granted -= n

    @precondition(lambda self: self.held)
    @rule(pick=st.integers(0, 99))
    def release_all(self, pick):
        h = self.held.pop(pick % len(self.held))
        h.res.release()
        h.res.release()  # idempotent

    # -- invariants -------------------------------------------------------------
    @invariant()
    def in_use_is_the_sum_of_the_grants(self):
        if self.budget is None:
            return
        assert self.budget.in_use == sum(h.res.granted for h in self.held)
        assert self.budget.in_use <= self.slots
        assert self.budget.high_watermark <= self.slots

    @invariant()
    def every_live_reservation_holds_what_the_model_says(self):
        for h in self.held:
            assert h.res.granted >= 1
            assert (h.res.granted, h.res.preempted) == (h.granted, h.preempted)


BudgetMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None
)
TestBudgetMachine = BudgetMachine.TestCase
