"""Framed RPC wire protocol for out-of-process shards.

The shard transport needs exactly what the journal (``MWJRNL1``)
already settled on: a length-prefixed frame whose CRC32 is verified
**before** the payload is unpickled. A stream socket gives no message
boundaries and no integrity — this module supplies both:

``MAGIC +`` one :mod:`repro.util.framing` frame of ``pickle(body)``

per message, the journal's own codec. Unlike the journal (an
append-only file scanned once at open), a socket frame that fails
validation poisons the *stream*: a
torn length header makes every later byte unframeable, so the receiver
raises :class:`~repro.errors.WireCorrupt`, the connection is reset, and
the sender retries over a fresh connect — the same discipline TCP
applications use, made explicit.

Frames carry plain picklable envelopes (dicts). The RPC semantics —
request ids, idempotency tokens, retry/backoff, pushes — live one layer
up in :mod:`repro.cluster.remote`; this module only moves validated
frames.
"""

from __future__ import annotations

import pickle
import socket
from typing import Any

from repro.errors import WireCorrupt
from repro.util.framing import HEADER_SIZE, FrameDamage, frame, parse_header, verify

__all__ = [
    "MAGIC",
    "MAX_FRAME_BYTES",
    "pack_frame",
    "recv_frame",
    "send_frame",
    "unpack_frame",
]

MAGIC = b"MWRPC01\n"
_HEADER_END = len(MAGIC) + HEADER_SIZE

#: Upper bound on one frame's pickled body. Checkpoints of world state
#: ride the submit RPC, so this is generous — but a corrupt length
#: header must never convince the receiver to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def pack_frame(body: Any) -> bytes:
    """Serialize ``body`` into one framed, CRC-protected message."""
    payload = pickle.dumps(body)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireCorrupt(
            f"frame body of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    return frame(payload, MAGIC)


def unpack_frame(blob: bytes) -> Any:
    """Validate and unpickle one complete frame (the test/debug hook).

    Raises :class:`~repro.errors.WireCorrupt` on any framing damage —
    wrong magic, truncation, length out of bounds, CRC mismatch — and
    only unpickles bytes whose checksum matched.
    """
    if len(blob) < _HEADER_END:
        raise WireCorrupt(
            f"frame truncated: {len(blob)} bytes is shorter than the header"
        )
    return _loads(blob[_HEADER_END:], *_declared(blob))


def _declared(header: bytes) -> tuple[int, int]:
    """``(body_len, crc)`` a frame's first ``_HEADER_END`` bytes declare,
    once the magic matched and the length passed the bound."""
    if header[: len(MAGIC)] != MAGIC:
        raise WireCorrupt(f"bad frame magic {header[:len(MAGIC)]!r}")
    try:
        return parse_header(header, len(MAGIC), MAX_FRAME_BYTES)
    except FrameDamage as damage:
        raise WireCorrupt(str(damage)) from None


def _loads(payload: bytes, body_len: int, crc: int) -> Any:
    """Unpickle ``payload`` — only after it verified against its header."""
    try:
        verify(payload, body_len, crc)
    except FrameDamage as damage:
        raise WireCorrupt(str(damage)) from None
    return pickle.loads(payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionResetError(
                f"peer closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, body: Any) -> None:
    """Send ``body`` as one frame (atomic from the peer's viewpoint)."""
    sock.sendall(pack_frame(body))


def recv_frame(sock: socket.socket, timeout: float | None = None) -> Any:
    """Receive and validate one frame.

    ``timeout`` bounds the wait for the *first* byte (socket timeout);
    raises ``TimeoutError`` past it, ``ConnectionError`` on EOF, and
    :class:`~repro.errors.WireCorrupt` on framing damage. The CRC is
    checked before any unpickling, exactly like checkpoint wire v2.
    """
    if timeout is not None:
        sock.settimeout(timeout)
    body_len, crc = _declared(_recv_exact(sock, _HEADER_END))
    return _loads(_recv_exact(sock, body_len), body_len, crc)
