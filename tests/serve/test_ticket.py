"""``ServeTicket.add_done_callback``: the one way a result travels.

A callback runs exactly once — on the resolving thread, or at once on
the caller's if the ticket is already done — and a raising one stops
neither the others nor the thread that resolved the ticket.
"""

import os
import sys
import threading

import pytest

from repro.cluster.router import ClusterTicket
from repro.serve import SpeculationService, WorldBudget
from repro.serve.service import ServeTicket

#: rounds of the add-while-resolving race (CI's fuzz smoke runs more)
RACE_ROUNDS = int(os.environ.get("TICKET_RACE_ROUNDS", "200"))


def quick(ws):
    return "ok"


@pytest.mark.parametrize("Ticket", [ServeTicket, ClusterTicket])
def test_a_callback_added_before_or_after_resolve_runs_once(Ticket):
    ticket = Ticket("t", 1)
    calls = []
    ticket.add_done_callback(
        lambda r: calls.append(("before", r, threading.current_thread()))
    )
    resolver = threading.Thread(target=ticket._resolve, args=("the result",))
    resolver.start()
    resolver.join()
    ticket.add_done_callback(
        lambda r: calls.append(("after", r, threading.current_thread()))
    )
    assert calls == [
        ("before", "the result", resolver),
        ("after", "the result", threading.current_thread()),
    ]
    assert ticket.done and ticket.result(timeout=0) == "the result"


class _ReadThenYield(threading.Event):
    """An event whose first ``is_set`` loses the CPU to ``intruder``
    between reading the flag and returning what it read."""

    def __init__(self, intruder):
        super().__init__()
        self.intruder = intruder

    def is_set(self):
        value = super().is_set()
        intruder, self.intruder = self.intruder, None
        if intruder is not None:
            intruder()
        return value


def test_a_resolve_between_adding_and_checking_still_runs_the_callback():
    """The forced interleave: an adder that checked ``done`` before it
    queued the callback would lose it to a resolve landing in between."""
    ticket = ServeTicket("t", 1)
    ticket._done = _ReadThenYield(lambda: ticket._resolve("the result"))
    ran = []
    ticket.add_done_callback(ran.append)
    assert ran == ["the result"]


def test_a_raising_callback_stops_neither_the_others_nor_the_worker():
    gate = threading.Event()

    def gated(ws):
        assert gate.wait(10)
        return "ok"

    def boom(result):
        raise RuntimeError("a broken subscriber")

    ran = []
    with SpeculationService(WorldBudget(1), workers=1) as svc:
        ticket = svc.submit("t", [gated])
        ticket.add_done_callback(boom)
        ticket.add_done_callback(
            lambda r: ran.append((threading.current_thread().name, r.status))
        )
        gate.set()
        assert ticket.result(timeout=10).committed
        # the one worker ran both callbacks before it took this one
        assert svc.submit("t", [quick]).result(timeout=10).committed
    assert ran == [("serve-worker-0", "committed")]


def test_callbacks_added_while_another_thread_resolves_each_run_once():
    adders, per_adder = 4, 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(RACE_ROUNDS):
            ticket = ServeTicket("t", round_no)
            ran = []
            start = threading.Barrier(adders + 1)

            def add(adder):
                start.wait()
                for i in range(per_adder):
                    ticket.add_done_callback(
                        lambda r, key=(adder, i): ran.append((key, r))
                    )

            def resolve():
                start.wait()
                ticket._resolve(round_no)

            threads = [threading.Thread(target=add, args=(a,)) for a in range(adders)]
            threads.append(threading.Thread(target=resolve))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert not any(thread.is_alive() for thread in threads)
            expected = sorted(
                ((a, i), round_no) for a in range(adders) for i in range(per_adder)
            )
            assert sorted(ran) == expected, f"round {round_no}"
    finally:
        sys.setswitchinterval(interval)
