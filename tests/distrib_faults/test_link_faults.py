"""Fault-injected SimulatedLink: behaviour, determinism, accounting."""

import threading

import pytest

from repro.analysis.calibration import NetworkProfile

from netmodel.faults import LinkPartitioned, NetFaultKind, NetFaultPlan, TransferDropped
from netmodel.netsim import SimulatedLink, corrupt_payload

FAST = NetworkProfile("fast", latency_s=0.001, bandwidth_bytes_s=1e8)


def make_link(rates, seed=0, **knobs):
    plan = NetFaultPlan(seed=seed, rates=rates, **knobs)
    return SimulatedLink(FAST, fault_plan=plan, seed=seed)


class TestFaultBehaviour:
    def test_drop_raises_and_charges_the_timeout(self):
        link = make_link({NetFaultKind.XFER_DROP: 1.0})
        with pytest.raises(TransferDropped):
            link.transfer(1000)
        # the sender paid for discovering the loss
        assert link.busy_seconds > 0
        assert link.ledger[0].ok is False
        assert link.ledger[0].fault == "transfer-drop"
        assert link.drops == 1

    def test_slow_multiplies_transfer_time(self):
        slow = make_link({NetFaultKind.LINK_SLOW: 1.0}, slow_factor=5.0)
        clean = SimulatedLink(FAST)
        assert slow.transfer(4096) == pytest.approx(5.0 * clean.transfer(4096))
        assert slow.fault_events[0].kind == "link-slow"

    def test_corrupt_ship_flips_exactly_one_byte(self):
        link = make_link({NetFaultKind.XFER_CORRUPT: 1.0})
        payload = b"all my worlds are belong to us" * 10
        delivery = link.ship(payload)
        assert delivery.corrupted
        diff = [i for i, (x, y) in enumerate(zip(payload, delivery.payload)) if x != y]
        assert len(diff) == 1
        assert delivery.payload == corrupt_payload(payload)

    def test_duplicate_ship_charges_twice(self):
        link = make_link({NetFaultKind.XFER_DUP: 1.0})
        payload = b"z" * 2048
        delivery = link.ship(payload)
        assert delivery.copies == 2
        assert delivery.payload == payload  # both copies intact
        assert link.bytes_moved == 2 * len(payload)

    def test_reorder_swaps_arrival_order(self):
        link = make_link({NetFaultKind.XFER_REORDER: 1.0})
        first = link.ship(b"a" * 100)
        second = link.ship(b"b" * 100)
        assert first.reordered
        # seq 1 lands before the held seq 0
        assert link.arrival_order[:2] == [second.seq, first.seq]

    def test_partition_window_blocks_then_heals(self):
        link = make_link(
            {NetFaultKind.LINK_FLAP: 1.0}, partition_window_s=1.0, flap_s=0.25
        )
        with pytest.raises(LinkPartitioned):
            link.transfer(100)
        # waiting out the flap heals the link
        link.wait(0.3)
        assert link.transfer(100) > 0

    def test_faultless_plan_is_the_old_link(self):
        link = SimulatedLink(FAST, fault_plan=NetFaultPlan.quiet())
        for _ in range(50):
            link.transfer(1000)
        assert link.fault_events == []
        assert link.drops == 0
        assert link.bytes_moved == 50_000


class TestDeterminism:
    def run_schedule(self, seed):
        link = SimulatedLink(
            FAST,
            jitter=0.5,
            seed=seed,
            fault_plan=NetFaultPlan(
                seed=seed,
                rates={
                    NetFaultKind.XFER_DROP: 0.2,
                    NetFaultKind.XFER_DUP: 0.1,
                    NetFaultKind.XFER_CORRUPT: 0.1,
                    NetFaultKind.LINK_SLOW: 0.1,
                },
            ),
        )
        events = []
        for i in range(80):
            try:
                d = link.ship(bytes([i % 256]) * (100 + i))
                events.append(("ok", d.seq, d.copies, d.corrupted, d.seconds))
            except TransferDropped:
                events.append(("drop", i))
        return link, events

    def test_same_seed_identical_event_and_ledger_sequence(self):
        la, ea = self.run_schedule(seed=13)
        lb, eb = self.run_schedule(seed=13)
        assert ea == eb
        assert la.ledger == lb.ledger
        assert la.fault_events == lb.fault_events
        assert la.arrival_order == lb.arrival_order

    def test_different_seeds_differ(self):
        _, ea = self.run_schedule(seed=1)
        _, eb = self.run_schedule(seed=2)
        assert ea != eb


class TestJitterDeterminismAndAccounting:
    def test_same_seed_identical_transfer_ledgers(self):
        # satellite: same seed => byte-identical TransferRecord ledgers
        a = SimulatedLink(FAST, jitter=0.8, seed=21)
        b = SimulatedLink(FAST, jitter=0.8, seed=21)
        for n in (100, 5000, 1, 70 * 1024, 333):
            a.transfer(n)
            b.transfer(n)
        assert a.ledger == b.ledger
        assert a.busy_seconds == b.busy_seconds
        assert a.clock == b.clock

    def test_concurrent_transfers_account_exactly(self):
        # satellite: bytes_moved / busy_seconds stay exact when real
        # threads share one link
        link = SimulatedLink(FAST, jitter=0.3, seed=5)
        threads = [
            threading.Thread(
                target=lambda: [link.transfer(1000) for _ in range(50)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(link.ledger) == 400
        assert link.bytes_moved == 400 * 1000
        assert link.clock == pytest.approx(link.busy_seconds)
        # every transfer got a unique sequence number despite the race
        assert len({r.seq for r in link.ledger}) == 400
