"""How a forked child's report reaches its parent.

The body travels in an anonymous file the child inherits and the parent
maps — any size, pickled straight into the file, where a pipe holds
64 KiB. The pipe beside it carries the event: an 8-byte length header
written *after* the body says "the report is complete", and EOF — which
the kernel delivers however the child dies — says it never will be.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import tempfile
from typing import Any

_HEADER = struct.Struct("<Q")


class ReportLost(Exception):
    """The child is gone and its report is not whole.

    ``expected`` is the length its header promised (None: no header
    arrived); ``held`` is how many bytes its file holds.
    """

    def __init__(self, expected: int | None, held: int) -> None:
        super().__init__(expected, held)
        self.expected, self.held = expected, held


def _anonymous_file() -> int:
    if hasattr(os, "memfd_create"):
        return os.memfd_create("mw-report")
    with tempfile.TemporaryFile(buffering=0) as unlinked:
        return os.dup(unlinked.fileno())


class ReportChannel:
    """One side's ends of one child's channel: a pipe end and the file."""

    def __init__(self, pipe_fd: int, file_fd: int) -> None:
        self.pipe_fd = pipe_fd
        self.file_fd = file_fd

    @classmethod
    def fork(cls) -> tuple[int, "ReportChannel"]:
        """Open a channel and ``os.fork()``; return ``(pid, this side)``.

        The child keeps the pipe's write end, the parent its read end;
        if the fork fails, nothing opened for it stays open.
        """
        fds = list(os.pipe())
        try:
            fds.append(_anonymous_file())
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        read_fd, write_fd, file_fd = fds
        mine, theirs = (write_fd, read_fd) if pid == 0 else (read_fd, write_fd)
        os.close(theirs)
        return pid, cls(mine, file_fd)

    def send(self, report: Any, claimed: int | None = None) -> None:
        """Child side: ``report`` into the file, then its length as the header.

        ``report`` is pickled straight into the file, with no ``bytes``
        copy of the whole pickle in between; ``bytes`` are taken to be a
        pickle already and written as they are. A report that will not
        pickle leaves the file empty and writes no header; the error
        propagates. ``claimed`` is for fault injection: a header that
        promises another length than the file holds.
        """
        try:
            with open(self.file_fd, "wb", closefd=False) as file:
                if isinstance(report, bytes):
                    file.write(report)
                else:
                    pickle.dump(report, file, protocol=pickle.HIGHEST_PROTOCOL)
                length = file.tell()
        except BaseException:
            os.ftruncate(self.file_fd, 0)
            os.lseek(self.file_fd, 0, os.SEEK_SET)
            raise
        os.write(self.pipe_fd, _HEADER.pack(length if claimed is None else claimed))

    def fileno(self) -> int:
        """Parent side: readable once the header or EOF awaits ``recv``."""
        return self.pipe_fd

    def recv(self) -> Any:
        """Parent side: the report, unpickled from a mapping of the file.

        Raises :class:`ReportLost` on EOF with no header and on a header
        longer than the file, and whatever ``pickle.loads`` raises on a
        body that is not a pickle.
        """
        header = os.read(self.pipe_fd, _HEADER.size)
        held = os.fstat(self.file_fd).st_size
        if len(header) < _HEADER.size:
            raise ReportLost(None, held)
        (length,) = _HEADER.unpack(header)
        if length > held:
            raise ReportLost(length, held)
        with mmap.mmap(self.file_fd, length, access=mmap.ACCESS_READ) as body:
            return pickle.loads(body)

    def close(self) -> None:
        """Release this side's descriptors; a second call does nothing."""
        for fd in (self.pipe_fd, self.file_fd):
            if fd >= 0:
                os.close(fd)
        self.pipe_fd = self.file_fd = -1
