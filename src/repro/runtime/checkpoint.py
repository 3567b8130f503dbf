"""Checkpoint/restart: the substrate of the paper's remote fork.

Smith & Ioannidis [19] implemented ``rfork()`` without kernel changes by
dumping the process into a file "in such a way that the file is
executable; a bootstrapping routine restores the registers and data
segments and returns control to the caller of the checkpoint routine when
this file is executed. A return value is used to distinguish between
return of control in the checkpoint and in the calling process."

The Python equivalent checkpoints a *task* — a top-level callable plus its
workspace state — into one self-contained byte image. Restarting the
image re-enters the callable with the saved state; the setjmp-style
return-value convention is preserved by :func:`checkpoint_here`.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import CheckpointError
from repro.runtime.report_channel import ReportChannel, ReportLost

#: The wire format: magic + <QdI>(name_len, created_at, crc) + name +
#: payload. The CRC32 covers the other header fields, the name and the
#: payload, so a corrupt or torn image is rejected *before* anything
#: reaches ``pickle.loads`` — there is no unverified way in.
_MAGIC = b"MWCKPT2\n"
_HEAD = struct.Struct("<QdI")


@dataclass
class CheckpointImage:
    """A self-contained, restartable process image."""

    name: str
    payload: bytes  # pickled (fn, state)
    created_at: float

    @property
    def size_bytes(self) -> int:
        return len(self.payload)

    # -- construction ------------------------------------------------------
    @classmethod
    def capture(cls, fn: Callable[[dict], Any], state: dict, name: str = "task") -> "CheckpointImage":
        """Serialize ``fn`` + ``state`` into an image.

        ``fn`` must be picklable (an importable top-level function); the
        state must be a picklable dict. Raises
        :class:`~repro.errors.CheckpointError` otherwise.
        """
        try:
            payload = pickle.dumps((fn, state), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(f"cannot checkpoint {name!r}: {exc}") from exc
        return cls(name=name, payload=payload, created_at=time.time())

    # -- the "executable file" format -------------------------------------------
    def to_bytes(self) -> bytes:
        header = self.name.encode()
        # the CRC must cover every mutable field, created_at included — an
        # uncovered header byte is a hole a corrupt delivery slips through
        crc = zlib.crc32(
            struct.pack("<Qd", len(header), self.created_at) + header + self.payload
        )
        return (
            _MAGIC
            + _HEAD.pack(len(header), self.created_at, crc)
            + header
            + self.payload
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CheckpointImage":
        """Parse a wire image, verifying structure and checksum.

        Every malformation — bad magic, truncated header, a
        ``name_len`` pointing past the blob, a checksum mismatch from a
        flipped byte or a torn tail — raises
        :class:`~repro.errors.CheckpointError` without touching the
        (pickled, therefore dangerous) payload.
        """
        if not blob.startswith(_MAGIC):
            raise CheckpointError("not a checkpoint image (bad magic)")
        offset = len(_MAGIC) + _HEAD.size
        if len(blob) < offset:
            raise CheckpointError(
                f"truncated checkpoint header: {len(blob)} bytes, "
                f"need at least {offset}"
            )
        name_len, created_at, crc = _HEAD.unpack_from(blob, len(_MAGIC))
        if name_len > len(blob) - offset:
            raise CheckpointError(
                f"corrupt checkpoint header: name_len={name_len} exceeds "
                f"remaining {len(blob) - offset} bytes"
            )
        body = blob[offset:]
        actual = zlib.crc32(struct.pack("<Qd", name_len, created_at) + body)
        if actual != crc:
            raise CheckpointError(
                f"checkpoint checksum mismatch: header says {crc:#010x}, "
                f"body is {actual:#010x} (corrupt or torn image)"
            )
        try:
            name = body[:name_len].decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint name: {exc}") from exc
        return cls(name=name, payload=bytes(body[name_len:]), created_at=created_at)

    def write_file(self, path: str) -> int:
        blob = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(blob)
        return len(blob)

    @classmethod
    def read_file(cls, path: str) -> "CheckpointImage":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    # -- restart --------------------------------------------------------------------
    def load(self) -> tuple[Callable[[dict], Any], dict]:
        """The (fn, state) pair the bootstrap reconstructs."""
        try:
            fn, state = pickle.loads(self.payload)
        except Exception as exc:
            raise CheckpointError(f"corrupt checkpoint {self.name!r}: {exc}") from exc
        return fn, state

    def restart(self) -> Any:
        """Resume the task in this process; returns its result."""
        fn, state = self.load()
        return fn(state)

    def restart_in_fork(self, journal=None) -> Any:
        """Resume the task in a forked child (local remote-execution).

        The child runs the continuation and ships the result back on a
        ``ReportChannel`` — the degenerate (same-host) case of the paper's rfork.

        With a ``journal`` (a :class:`~repro.journal.CommitJournal`) the
        restart is exactly-once per image: completed restarts are sealed
        as ``restart`` transactions keyed by (name, payload CRC), and a
        repeat call — e.g. after a crash between the child finishing and
        the caller consuming the value — replays the recorded result
        instead of running the task again.
        """
        if journal is not None:
            crc = zlib.crc32(self.payload)
            hit = journal.find_applied("restart", name=self.name, crc=crc)
            if hit is not None and "value" in hit[1]:
                return hit[1]["value"]
            seq = journal.begin("restart", name=self.name, crc=crc)
            journal.seal(seq)
            value = self._restart_in_fork()
            journal.mark_applied(seq, value=value)
            return value
        return self._restart_in_fork()

    def _restart_in_fork(self) -> Any:
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            return self.restart()
        pid, channel = ReportChannel.fork()
        if pid == 0:
            try:
                result = ("ok", self.restart())
            except BaseException as exc:  # noqa: BLE001
                result = ("err", repr(exc))
            try:
                channel.send(result)
            finally:
                os._exit(0)
        try:
            status, value = channel.recv()
        except ReportLost as lost:
            if lost.expected is None:
                raise CheckpointError(
                    "restart pipe broke mid-header: got 0 of 8 bytes (child died before reporting)"
                ) from None
            raise CheckpointError(
                f"restart pipe broke mid-report: {lost.held} of {lost.expected} bytes arrived"
            ) from None
        except Exception as exc:
            raise CheckpointError(f"unreadable restart report: {exc}") from exc
        finally:
            channel.close()
            os.waitpid(pid, 0)
        if status == "err":
            raise CheckpointError(f"restarted task failed: {value}")
        return value


def capture_checkpoint(fn: Callable[[dict], Any], state: dict, name: str = "task") -> CheckpointImage:
    """Module-level convenience for :meth:`CheckpointImage.capture`."""
    return CheckpointImage.capture(fn, state, name)


def checkpoint_here(fn: Callable[[dict], Any], state: dict, name: str = "task"):
    """The paper's return-value convention, as a pair.

    Returns ``(image, is_restart)``: the caller that *created* the
    checkpoint sees ``is_restart=False``; running ``image.restart()``
    re-enters ``fn`` (the restart path) instead. This mirrors "a return
    value is used to distinguish between return of control in the
    checkpoint and in the calling process."
    """
    return CheckpointImage.capture(fn, state, name), False
