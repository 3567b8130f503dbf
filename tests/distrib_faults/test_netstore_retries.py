"""NetworkStore on an unreliable link: retries, CRC gate, idempotent puts."""

import pytest

from repro.analysis.calibration import NetworkProfile
from repro.errors import RetriesExhausted
from repro.memory.store import SingleLevelStore

from netmodel.faults import NetFaultKind, NetFaultPlan
from netmodel.netsim import SimulatedLink
from netmodel.netstore import DemandPagedImage, NetworkStore

FAST = NetworkProfile("fast", latency_s=0.001, bandwidth_bytes_s=1e8)


def make_netstore(rates, seed=0, page_size=256):
    plan = NetFaultPlan(seed=seed, rates=rates)
    link = SimulatedLink(FAST, fault_plan=plan, seed=seed)
    return NetworkStore(SingleLevelStore(page_size=page_size), link)


class TestLossyWrites:
    @pytest.mark.parametrize("seed", range(8))
    def test_write_survives_thirty_percent_drop(self, seed):
        ns = make_netstore({NetFaultKind.XFER_DROP: 0.3}, seed=seed)
        payload = bytes(range(256)) * 4
        seconds = ns.write_file("f", payload)
        assert ns.store.read_file("f") == payload
        assert seconds > 0
        # backoff is part of the caller-visible price
        assert seconds >= ns.stats["backoff_s"]

    def test_duplicate_write_applies_once(self):
        ns = make_netstore({NetFaultKind.XFER_DUP: 1.0})
        ns.write_file("f", b"once")
        ns.write_file("f", b"once")  # identical content re-sent
        assert ns.store.read_file("f") == b"once"
        assert ns.stats["duplicates_suppressed"] >= 2

    def test_corrupt_delivery_rejected_and_retried(self):
        # corruption fires on the first attempt only for this seed/rate
        ns = make_netstore({NetFaultKind.XFER_CORRUPT: 0.5}, seed=1)
        ns.write_file("f", b"precious" * 100)
        assert ns.store.read_file("f") == b"precious" * 100
        if ns.stats["corrupt_rejected"]:
            assert ns.stats["retries"] >= ns.stats["corrupt_rejected"]

    def test_total_corruption_exhausts(self):
        ns = make_netstore({NetFaultKind.XFER_CORRUPT: 1.0})
        with pytest.raises(RetriesExhausted):
            ns.write_file("f", b"never lands" * 50)
        # the store was never poisoned with a corrupt payload
        assert not ns.store.exists("f")
        assert ns.stats["corrupt_rejected"] == ns.retry.max_attempts


class TestLossyReads:
    @pytest.mark.parametrize("seed", range(8))
    def test_read_file_retries_to_success(self, seed):
        ns = make_netstore({NetFaultKind.XFER_DROP: 0.3}, seed=seed)
        ns.store.write_file("f", b"stable bytes" * 64)  # server-side state
        data, seconds = ns.read_file("f")
        assert data == b"stable bytes" * 64
        assert seconds > 0

    def test_read_page_verified(self):
        ns = make_netstore({NetFaultKind.XFER_DROP: 0.3}, seed=2, page_size=128)
        blob = bytes(i % 251 for i in range(1024))
        ns.store.write_file("img", blob)
        for page in range(ns.pages_of("img")):
            data, _ = ns.read_page("img", page)
            assert data == blob[page * 128 : (page + 1) * 128]


class TestDemandPagingUnderFaults:
    def test_reader_correct_at_thirty_percent_loss(self):
        ns = make_netstore({NetFaultKind.XFER_DROP: 0.3}, seed=4, page_size=128)
        blob = bytes(i % 13 for i in range(4096))
        image, _ = DemandPagedImage.publish(ns, "img", blob)
        reader = image.reader()
        assert reader.read(1000, 300) == blob[1000:1300]
        assert reader.read(0, 64) == blob[:64]
        acct = reader.accounting()
        assert 0 < acct.pages_fetched < acct.pages_total
        assert acct.transfer_s > 0

    def test_stats_accumulate_across_operations(self):
        ns = make_netstore({NetFaultKind.XFER_DROP: 0.5}, seed=6)
        ns.write_file("a", b"x" * 500)
        ns.write_file("b", b"y" * 500)
        ns.read_file("a")
        assert ns.stats["retries"] > 0
        assert ns.stats["backoff_s"] > 0


class TestDeterminism:
    def run_once(self, seed):
        ns = make_netstore(
            {NetFaultKind.XFER_DROP: 0.3, NetFaultKind.XFER_CORRUPT: 0.2}, seed=seed
        )
        times = [ns.write_file(f"f{i}", bytes([i]) * 400) for i in range(10)]
        return times, dict(ns.stats), ns.link.ledger

    def test_same_seed_identical_exchange_history(self):
        ta, sa, la = self.run_once(9)
        tb, sb, lb = self.run_once(9)
        assert ta == tb
        assert sa == sb
        assert la == lb
