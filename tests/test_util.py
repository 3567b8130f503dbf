"""Tests for shared utilities (ids, replayable RNG, the frame codec)."""

import struct
import zlib

import pytest

from repro.util import framing
from repro.util.ids import IdAllocator
from repro.util.rng import ReplayableRNG


class TestIdAllocator:
    def test_monotonic_from_first(self):
        alloc = IdAllocator(10)
        assert [alloc.next() for _ in range(3)] == [10, 11, 12]

    def test_peek_does_not_consume(self):
        alloc = IdAllocator()
        assert alloc.peek() == 1
        assert alloc.next() == 1

    def test_independent_allocators(self):
        a, b = IdAllocator(), IdAllocator()
        a.next()
        assert b.peek() == 1


class TestReplayableRNG:
    def test_seed_determinism(self):
        assert ReplayableRNG(5).uniform() == ReplayableRNG(5).uniform()
        assert ReplayableRNG(5).uniform() != ReplayableRNG(6).uniform()

    def test_snapshot_restore_mid_stream(self):
        rng = ReplayableRNG(0)
        rng.uniform()
        snap = rng.snapshot()
        expected = [rng.uniform() for _ in range(3)]
        restored = ReplayableRNG.from_snapshot(snap)
        assert [restored.uniform() for _ in range(3)] == expected

    def test_clone_is_independent(self):
        rng = ReplayableRNG(1)
        clone = rng.clone()
        assert rng.uniform() == clone.uniform()
        rng.uniform()
        # streams stay in lockstep only if both draw; clone is behind now
        assert rng.snapshot() != clone.snapshot()

    def test_angle_range(self):
        import math

        rng = ReplayableRNG(3)
        for _ in range(100):
            angle = rng.angle()
            assert 0 <= angle < 2 * math.pi

    def test_integers_bounds(self):
        rng = ReplayableRNG(4)
        draws = {rng.integers(2, 5) for _ in range(100)}
        assert draws == {2, 3, 4}

    def test_shuffle_in_place_deterministic(self):
        a = list(range(10))
        b = list(range(10))
        ReplayableRNG(9).shuffle(a)
        ReplayableRNG(9).shuffle(b)
        assert a == b
        assert sorted(a) == list(range(10))


class TestFraming:
    def test_frames_read_back_in_sequence(self):
        buf = b"junk" + framing.frame(b"first") + framing.frame(b"") + framing.frame(b"x" * 300)
        offset, bodies = 4, []
        while offset < len(buf):
            body, offset = framing.read_frame(buf, offset)
            bodies.append(body)
        assert bodies == [b"first", b"", b"x" * 300]

    def test_header_is_length_then_crc_little_endian(self):
        blob = framing.frame(b"payload")
        assert blob[: framing.HEADER_SIZE] == struct.pack("<II", 7, zlib.crc32(b"payload"))
        assert framing.parse_header(blob) == (7, zlib.crc32(b"payload"))

    @pytest.mark.parametrize(
        "damage, verdict, crcs",
        [
            (lambda b: b[:5], framing.TORN_HEADER, (None, None)),
            (lambda b: b[:-2], framing.TORN_BODY, (zlib.crc32(b"payload"), None)),
            (lambda b: b[:-1] + b"!", framing.BAD_CRC,
             (zlib.crc32(b"payload"), zlib.crc32(b"payloa!"))),
        ],
    )
    def test_damage_is_a_verdict_never_a_body(self, damage, verdict, crcs):
        with pytest.raises(framing.FrameDamage) as caught:
            framing.read_frame(damage(framing.frame(b"payload")))
        assert caught.value.verdict == verdict
        assert (caught.value.crc_expected, caught.value.crc_got) == crcs

    def test_declared_length_is_bounded_before_the_body_is_looked_at(self):
        header = struct.pack("<II", 1 << 30, 0)
        with pytest.raises(framing.FrameDamage) as caught:
            framing.parse_header(header, bound=1 << 20)
        assert caught.value.verdict == framing.OVER_BOUND
        assert framing.parse_header(header) == (1 << 30, 0)  # unbounded: caller's call
