"""Tests for the network store and demand-paged images."""

import pytest

from repro.analysis.calibration import NetworkProfile
from repro.errors import NetworkError
from repro.memory.store import SingleLevelStore

from netmodel.netsim import SimulatedLink
from netmodel.netstore import (
    DemandPagedImage,
    NetworkStore,
    breakeven_fraction,
)


def make_netstore(latency=0.01, bandwidth=1e6, page_size=1024):
    return NetworkStore(
        SingleLevelStore(page_size=page_size),
        SimulatedLink(NetworkProfile("lan", latency, bandwidth)),
    )


class TestNetworkStore:
    def test_roundtrip_charges_link(self):
        ns = make_netstore()
        up = ns.write_file("f", b"x" * 5000)
        data, down = ns.read_file("f")
        assert data == b"x" * 5000
        assert up > 0 and down > 0
        assert ns.link.bytes_moved == 10_000

    def test_read_page(self):
        ns = make_netstore(page_size=1024)
        ns.write_file("f", bytes(range(256)) * 10)  # 2560 bytes, 3 pages
        page, seconds = ns.read_page("f", 1)
        assert page == (bytes(range(256)) * 10)[1024:2048]
        assert seconds > 0

    def test_read_page_out_of_range(self):
        ns = make_netstore()
        ns.write_file("f", b"abc")
        with pytest.raises(NetworkError):
            ns.read_page("f", 5)


class TestDemandPagedImage:
    def _published(self, image_bytes=64 * 1024, page_size=1024):
        ns = make_netstore(page_size=page_size)
        image, upload_s = DemandPagedImage.publish(ns, "ckpt", bytes(image_bytes))
        return ns, image, upload_s

    def test_publish_uploads_once(self):
        ns, image, upload_s = self._published()
        assert upload_s > 0
        assert image.pages == 64

    def test_reader_fetches_only_touched_pages(self):
        _, image, _ = self._published()
        reader = image.reader()
        reader.read(0, 100)  # one page
        reader.read(10_000, 100)  # another
        acct = reader.accounting()
        assert acct.pages_fetched == 2
        assert acct.fetch_fraction == pytest.approx(2 / 64)
        assert acct.transfer_s > 0

    def test_cache_avoids_refetch(self):
        _, image, _ = self._published()
        reader = image.reader()
        reader.read(0, 50)
        t1 = reader.transfer_s
        reader.read(10, 50)  # same page
        assert reader.transfer_s == t1

    def test_cross_page_read(self):
        ns = make_netstore(page_size=1024)
        payload = bytes(range(256)) * 8  # 2048 bytes
        image, _ = DemandPagedImage.publish(ns, "x", payload)
        reader = image.reader()
        assert reader.read(1000, 100) == payload[1000:1100]
        assert reader.accounting().pages_fetched == 2

    def test_lazy_beats_eager_when_sparse(self):
        _, image, _ = self._published()
        reader = image.reader()
        reader.read(0, 100)
        assert reader.accounting().transfer_s < image.eager_fetch_time()

    def test_eager_beats_lazy_when_dense(self):
        # high latency link: per-page faults are expensive
        ns = make_netstore(latency=0.05, bandwidth=1e7, page_size=1024)
        image, _ = DemandPagedImage.publish(ns, "ckpt", bytes(32 * 1024))
        reader = image.reader()
        for page in range(32):
            reader.read(page * 1024, 1)
        assert reader.accounting().transfer_s > image.eager_fetch_time()


class TestBreakeven:
    def test_fraction_in_unit_range(self):
        link = SimulatedLink(NetworkProfile("l", 0.05, 200 * 1024))
        frac = breakeven_fraction(70 * 1024, link, 2048)
        assert 0 < frac <= 1.0

    def test_latency_dominated_links_favor_eager(self):
        slow_latency = SimulatedLink(NetworkProfile("l", 1.0, 1e9))
        fast_latency = SimulatedLink(NetworkProfile("l", 0.0001, 1e6))
        f_slow = breakeven_fraction(1 << 20, slow_latency, 4096)
        f_fast = breakeven_fraction(1 << 20, fast_latency, 4096)
        # with huge per-fault latency, lazy only wins if you touch almost
        # nothing; with negligible latency, lazy wins almost always
        assert f_slow < f_fast
