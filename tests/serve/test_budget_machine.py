"""The world budget, explored by a hypothesis ``RuleBasedStateMachine``
against a dict model of who holds which slots.

The rules are a non-blocking reserve (tenant, want), a partial release
and a full release. The model grants ``min(want, free)`` and refuses
when nothing is free. After every step:

- ``in_use`` is the sum of the live grants and at most ``slots``;
- every live reservation holds at least one slot;
- ``high_watermark`` is at most ``slots``;
- a reserve was refused iff nothing was free;
- a holder's ``granted`` changed only by its own release.

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

    @initialize(slots=st.integers(1, 6))
    def build(self, slots):
        self.slots = slots
        self.budget = WorldBudget(slots)

    # -- the model ------------------------------------------------------------
    def _free(self):
        return self.slots - sum(h.granted for h in self.held)

    # -- rules ----------------------------------------------------------------
    @rule(tenant=st.sampled_from(TENANTS), want=st.integers(1, 6))
    def reserve(self, tenant, want):
        free = self._free()
        res = self.budget.reserve(tenant, want=want)
        self.last_reserve = (free, res)
        if res is not None:
            assert res.granted == min(want, free)
            self.held.append(Held(res, res.granted))

    @precondition(lambda self: any(h.granted > 1 for h in self.held))
    @rule(pick=st.integers(0, 99), data=st.data())
    def release_part(self, pick, data):
        candidates = [h for h in self.held if h.granted > 1]
        h = candidates[pick % len(candidates)]
        n = data.draw(st.integers(1, h.granted - 1))
        h.res.release(n)
        h.granted -= n
        self.last_reserve = None

    @precondition(lambda self: self.held)
    @rule(pick=st.integers(0, 99))
    def release_all(self, pick):
        h = self.held.pop(pick % len(self.held))
        h.res.release()
        h.res.release()  # idempotent
        self.last_reserve = None

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
    def a_grant_changes_only_by_its_holders_release(self):
        # the model moves ``granted`` in the release rules alone
        for h in self.held:
            assert h.res.granted >= 1
            assert h.res.granted == h.granted


BudgetMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None
)
TestBudgetMachine = BudgetMachine.TestCase
