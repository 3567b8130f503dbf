"""The kernel's one settle loop (DESIGN §5: drain facts -> wake -> pump -> resume).

A resolution must reach every world before anyone acts on it. These
tests watch the loop from outside — wrappers installed by the test, no
counters in ``src/`` — while the split-stress and chaos scenarios run.
"""

import pytest

from repro.core.predicates import PredicateSet, world_key
from repro.errors import DeadlockError, KernelError
from repro.kernel import Kernel, TIMEOUT

from tests.kernel import test_chaos, test_split_stress


def _run_split_stress_and_chaos():
    senders = test_split_stress.TestMultipleSenders()
    for winner_a, winner_b, expected in [
        (True, True, ["A-talker", "B-talker"]),
        (True, False, ["A-talker"]),
        (False, True, ["B-talker"]),
        (False, False, []),
    ]:
        senders.test_four_way_split_exactly_one_survivor(winner_a, winner_b, expected)
    transitive = test_split_stress.TestTransitiveSpeculation()
    transitive.test_receiver_of_a_receiver()
    transitive.test_transitive_speculation_pruned_on_failure()
    test_split_stress.TestSelfAndOrdering().test_fifo_preserved_across_ignored_messages()
    test_chaos.test_global_invariants_hold_after_any_run()


def test_settle_is_never_active_twice_and_nothing_acts_on_a_half_applied_fact(monkeypatch):
    depth = deepest = settles = 0
    settle = Kernel._settle

    def counted_settle(self):
        nonlocal depth, deepest, settles
        depth += 1
        settles += 1
        deepest = max(deepest, depth)
        try:
            settle(self)
        finally:
            depth -= 1

    monkeypatch.setattr(Kernel, "_settle", counted_settle)

    # no world is born, no program resumed and no message judged while a
    # recorded fact has yet to reach every world
    acted_early = []
    for name in ("_register", "_advance", "_try_receive"):
        def fully_applied(self, *args, _inner=getattr(Kernel, name), _name=name, **kw):
            if self._unapplied:
                acted_early.append((_name, list(self._unapplied)))
            return _inner(self, *args, **kw)

        monkeypatch.setattr(Kernel, name, fully_applied)

    _run_split_stress_and_chaos()

    assert settles > 100
    assert deepest == 1
    assert acted_early == []


def test_fact_settling_during_a_costed_send_reaches_the_message():
    """A message is stamped with its sender's assumptions as it leaves.

    The talker's outer rival aborts while the talker's send is still
    being paid for: ``¬complete(outer_b)`` is settled by the time the
    message is routed, and must not ride along into the receiver.
    """
    k = Kernel(cpus=8)

    def receiver(ctx):
        msg = yield ctx.recv(timeout=30.0)
        return "timeout" if msg is TIMEOUT else len(msg.data)

    rpid = k.spawn(receiver, name="recv")

    def outer(ctx):
        def outer_a(c):
            def talker(cc):
                yield cc.compute(1.0)
                yield cc.send(rpid, "x" * 200_000)  # ~30 us on the wire
                yield cc.compute(1.0)
                return "talker"

            def rival(cc):
                yield cc.compute(10.0)
                return "rival"

            out = yield from c.run_alternatives([talker, rival])
            return out.value

        def outer_b(c):
            yield c.compute(1.00012)  # lands inside the talker's send
            yield c.abort("no")

        out = yield from ctx.run_alternatives([outer_a, outer_b])
        return out.value

    opid = k.spawn(outer, name="outer")
    k.run()
    assert k.result_of(opid) == "talker"
    assert k.result_of(rpid) == 200_000


def _split_at_a_queued_recv(timeout, first_recv_timeout=None):
    """A receiver whose recv splits *inline* on a queued speculative message.

    The talker sends at t=0.1 and loses to its rival at t=5; the receiver
    computes until t=1, so its recv finds the message queued and splits at
    once (no block) while the talker still races, and only the rejecting
    clone survives. With ``first_recv_timeout`` the receiver first takes a
    message from a root sender through a blocked recv of that timeout.
    A second root sender posts ``late`` at t=150.
    """
    k = Kernel(cpus=8)

    def receiver(ctx):
        if first_recv_timeout is not None:
            yield ctx.recv(timeout=first_recv_timeout)
        yield ctx.compute(1.0)
        msg = yield ctx.recv(timeout=timeout)
        return "timeout" if msg is TIMEOUT else msg.data

    rpid = k.spawn(receiver, name="recv")

    def early(ctx):
        yield ctx.send(rpid, "early")

    def late(ctx):
        yield ctx.sleep(150.0)
        yield ctx.send(rpid, "late")

    if first_recv_timeout is not None:
        k.spawn(early, name="early")
    k.spawn(late, name="late")

    def parent(ctx):
        def talker(c):
            yield c.compute(0.1)
            yield c.send(rpid, "speculative")
            yield c.compute(10.0)
            return "talker"

        def rival(c):
            yield c.compute(5.0)
            return "rival"

        out = yield from ctx.run_alternatives([talker, rival])
        return out.value

    ppid = k.spawn(parent, name="parent")
    k.run()
    assert k.result_of(ppid) == "rival"
    return k.result_of(rpid)


def test_a_clone_split_off_an_unblocked_recv_keeps_its_timeout():
    assert _split_at_a_queued_recv(timeout=5.0) == "timeout"


def test_a_clone_split_off_an_unblocked_recv_gets_no_stale_deadline():
    # the first recv's deadline (t=100) belonged to that recv, not this one
    assert _split_at_a_queued_recv(timeout=None, first_recv_timeout=100.0) == "late"


def _one_stuck_receiver(assumption: PredicateSet) -> Kernel:
    k = Kernel()

    def lonely(ctx):
        yield ctx.recv()

    k.spawn(lonely, name="lonely")
    (world,) = k.worlds.values()
    world.predicates = assumption
    return k


def test_deadlock_lists_each_stuck_worlds_open_literals():
    k = _one_stuck_receiver(PredicateSet.of(must=[world_key(7)], cant=[3]))
    with pytest.raises(DeadlockError) as err:
        k.run()
    assert "lonely) blocked-recv assuming complete(w7) [open], ¬complete(3) [open]" in str(err.value)


def test_a_lost_resolution_is_reported_as_that_not_as_a_deadlock():
    k = _one_stuck_receiver(PredicateSet.of(must=[world_key(7)]))
    k.facts[world_key(7)] = True  # settled, yet the world still holds it
    with pytest.raises(KernelError) as err:
        k.run()
    assert not isinstance(err.value, DeadlockError)
    assert "references a settled fact" in str(err.value)
    assert "complete(w7) [settled True]" in str(err.value)
