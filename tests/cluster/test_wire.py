"""The framed RPC wire: CRC-before-unpickle, bounds, stream transport."""

import pickle
import socket
import threading

import pytest

from repro.cluster.wire import (
    MAGIC,
    MAX_FRAME_BYTES,
    pack_frame,
    recv_frame,
    send_frame,
    unpack_frame,
)
from repro.errors import WireCorrupt
from repro.util import framing


class TestFrameCodec:
    def test_round_trip(self):
        for body in (None, 42, "x", {"op": "ping", "args": {"n": [1, 2]}}):
            assert unpack_frame(pack_frame(body)) == body

    def test_magic_leads_every_frame(self):
        assert pack_frame({}).startswith(MAGIC)

    def test_layout_is_the_shared_codec(self):
        # <II>(body_len, crc32) + body, little-endian: the bytes, pinned
        assert framing.frame(b"abc") == bytes.fromhex("03000000c2412435616263")
        assert framing.frame(b"abc", b"M") == b"M" + framing.frame(b"abc")
        for body in (None, {"op": "ping", "args": {"n": [1, 2]}}):
            assert pack_frame(body) == MAGIC + framing.frame(pickle.dumps(body))

    def test_bad_magic_rejected(self):
        frame = bytearray(pack_frame({"op": "ping"}))
        frame[0] ^= 0xFF
        with pytest.raises(WireCorrupt, match="magic"):
            unpack_frame(bytes(frame))

    def test_truncated_header_rejected(self):
        with pytest.raises(WireCorrupt, match="truncated"):
            unpack_frame(pack_frame({"op": "ping"})[:10])

    def test_truncated_body_rejected(self):
        with pytest.raises(WireCorrupt, match="carries"):
            unpack_frame(pack_frame({"op": "ping"})[:-3])

    def test_corrupt_body_fails_crc_before_unpickle(self):
        frame = bytearray(pack_frame({"op": "ping"}))
        frame[-1] ^= 0xFF
        with pytest.raises(WireCorrupt, match="CRC"):
            unpack_frame(bytes(frame))

    def test_declared_length_bound_enforced(self):
        # a frame whose header *claims* an absurd length must be refused
        # before any allocation happens
        frame = bytearray(pack_frame(b"x" * 64))
        import struct

        struct.pack_into("<I", frame, len(MAGIC), MAX_FRAME_BYTES + 1)
        with pytest.raises(WireCorrupt, match="bound"):
            unpack_frame(bytes(frame))


class TestSocketTransport:
    def _pair(self):
        return socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)

    def test_send_recv_round_trip(self):
        a, b = self._pair()
        try:
            send_frame(a, {"op": "ping", "id": 1})
            assert recv_frame(b) == {"op": "ping", "id": 1}
        finally:
            a.close()
            b.close()

    def test_many_frames_keep_boundaries(self):
        a, b = self._pair()
        try:
            bodies = [{"i": i, "pad": "x" * (i * 37)} for i in range(20)]
            done = threading.Event()

            def sender():
                for body in bodies:
                    send_frame(a, body)
                done.set()

            t = threading.Thread(target=sender, daemon=True)
            t.start()
            got = [recv_frame(b) for _ in bodies]
            assert got == bodies
            assert done.wait(5)
        finally:
            a.close()
            b.close()

    def test_torn_frame_poisons_stream(self):
        a, b = self._pair()
        try:
            frame = bytearray(pack_frame({"op": "submit"}))
            frame[-1] ^= 0xFF  # body bit-flip: CRC must catch it
            a.sendall(bytes(frame))
            with pytest.raises(WireCorrupt, match="CRC"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_peer_close_mid_frame_is_connection_error(self):
        a, b = self._pair()
        try:
            frame = pack_frame({"op": "ping", "pad": "y" * 1000})
            a.sendall(frame[: len(frame) // 2])
            a.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_recv_timeout(self):
        a, b = self._pair()
        try:
            with pytest.raises((TimeoutError, socket.timeout)):
                recv_frame(b, timeout=0.05)
        finally:
            a.close()
            b.close()
