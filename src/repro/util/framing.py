"""The one frame codec: ``<II>(body_len, crc32) + body``.

Every byte stream this library must survive damage on — the commit
journal's record and snapshot frames (:mod:`repro.journal.wal`) and the
shard RPC socket (:mod:`repro.cluster.wire`) — carries its pickled
bodies in this frame. The format decides four things, here and nowhere
else:

- the header: little-endian ``uint32`` body length, then the ``uint32``
  CRC32 of the body;
- the length is *bounded* before anything is allocated or read: by the
  caller's ``bound`` on a stream, by the buffer's own end in memory;
- the CRC is verified **before** the body is handed back, so a caller
  can only ever ``pickle.loads`` bytes whose checksum matched;
- the torn-tail verdict: which way a frame is unusable
  (:class:`FrameDamage`), so a file scanner can truncate or step over
  it and a stream receiver can reset the connection.

The codec moves bytes only: what the body is (pickle protocol, the magic
before the frame) and what damage costs stay with the caller.
:mod:`repro.runtime.checkpoint`'s ``<QdI`` image is a different format —
its CRC also covers header fields — and does not ride this one.
"""

from __future__ import annotations

import struct
import zlib

_HEADER = struct.Struct("<II")
HEADER_SIZE = _HEADER.size

#: The :attr:`FrameDamage.verdict` values.
TORN_HEADER = "torn-header"  # fewer than HEADER_SIZE bytes where a header starts
OVER_BOUND = "over-bound"    # the header declares more than the caller's bound
TORN_BODY = "torn-body"      # the body present is not the length declared
BAD_CRC = "bad-crc"          # the body does not hash to the header's CRC


class FrameDamage(Exception):
    """A frame that must not be decoded.

    ``verdict`` is one of the module's four constants; ``crc_expected``
    / ``crc_got`` are what the header promised and what the body hashed
    to (None where the damage left none to read).
    """

    def __init__(self, verdict, message, crc_expected=None, crc_got=None) -> None:
        super().__init__(message)
        self.verdict = verdict
        self.crc_expected = crc_expected
        self.crc_got = crc_got


def frame(body: bytes, prefix: bytes = b"") -> bytes:
    """``prefix + header + body``: one frame, built in one concatenation."""
    return prefix + _HEADER.pack(len(body), zlib.crc32(body)) + body


def parse_header(buf: bytes, offset: int = 0, bound: int | None = None) -> tuple[int, int]:
    """``(body_len, crc)`` of the frame header at ``buf[offset:]``.

    Raises :class:`FrameDamage` when the header is torn or declares a
    body longer than ``bound`` — before the caller allocates or reads a
    byte of that body.
    """
    if offset + HEADER_SIZE > len(buf):
        raise FrameDamage(
            TORN_HEADER,
            f"frame truncated: {len(buf) - offset} bytes is shorter than the header",
        )
    body_len, crc = _HEADER.unpack_from(buf, offset)
    if bound is not None and body_len > bound:
        raise FrameDamage(
            OVER_BOUND, f"frame declares {body_len} bytes (bound exceeded)", crc
        )
    return body_len, crc


def verify(body: bytes, body_len: int, crc: int) -> bytes:
    """``body`` itself, once it is the declared length and hashes to ``crc``."""
    if len(body) != body_len:
        raise FrameDamage(
            TORN_BODY,
            f"frame declares {body_len} body bytes but carries {len(body)}", crc,
        )
    got = zlib.crc32(body)
    if got != crc:
        raise FrameDamage(
            BAD_CRC, f"frame CRC mismatch: expected {crc:#010x}, got {got:#010x}",
            crc, got,
        )
    return body


def read_frame(buf: bytes, offset: int = 0, bound: int | None = None) -> tuple[bytes, int]:
    """The verified body of the frame at ``buf[offset:]`` and the offset
    just past it; raises :class:`FrameDamage` otherwise."""
    body_len, crc = parse_header(buf, offset, bound)
    start = offset + HEADER_SIZE
    return verify(buf[start : start + body_len], body_len, crc), start + body_len
