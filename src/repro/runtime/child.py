"""A forked child that outlives the call that forked it.

A fork world lives for one block; a shard host lives until it is stopped.
Both start the same way: :meth:`ReportChannel.fork
<repro.runtime.report_channel.ReportChannel.fork>`, and one report back.
A world reports its result as it leaves; a long-lived child reports
once, when it is *ready*, and then goes on running. :class:`ChildProcess`
is the parent's handle on such a child, and every wait it does is the
fork backend's: the pidfd wait for an exit, and the verified SIGKILL
reap.
"""

from __future__ import annotations

import os
import selectors
import sys
import time
from typing import Callable

from repro.errors import SpawnError
from repro.runtime.fork_backend import _await_exit, _reap_verified
from repro.runtime.report_channel import ReportChannel, ReportLost


def _run_child(channel: ReportChannel, main: Callable[..., None], args: tuple) -> None:
    """The child's side: run ``main``, report readiness or why not; never returns."""

    def ready() -> None:
        channel.send(("ok", os.getpid()))
        channel.close()

    status = 1
    try:
        main(*args, ready=ready)
        status = 0
    except BaseException as exc:  # noqa: BLE001 - reported, then the child exits
        try:
            if channel.pipe_fd >= 0:  # not ready yet: the error is the report
                channel.send(("fail", f"{type(exc).__name__}: {exc}"))
            else:
                sys.excepthook(*sys.exc_info())
        except Exception:  # noqa: BLE001 - nothing left to tell it to
            pass
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except Exception:  # noqa: BLE001 - a closed or missing stream
                pass
        os._exit(status)


class ChildProcess:
    """A forked child this process owns until it reaps it."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._reaped = False

    @classmethod
    def fork(
        cls, main: Callable[..., None], *args, timeout_s: float
    ) -> "ChildProcess":
        """Fork a child that runs ``main(*args, ready=...)``; return once it is ready.

        The child calls ``ready()`` when it can be used, and the parent
        returns then. If ``main`` raises first, returns first, or no
        ``ready()`` comes within ``timeout_s``, the child is killed and
        reaped and :class:`~repro.errors.SpawnError` carries the reason:
        the child's own exception, for one that raised. The child leaves
        through ``os._exit`` (status 0 when ``main`` returns), after
        flushing stdio, and never runs this process's exit handlers.
        """
        pid, channel = ReportChannel.fork()
        if pid == 0:
            _run_child(channel, main, args)
        child = cls(pid)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(channel, selectors.EVENT_READ)
                if sel.select(timeout_s):
                    report = channel.recv()
                else:
                    report = ("fail", f"not ready within {timeout_s:g} s")
        except ReportLost:
            report = ("fail", "exited before it was ready")
        except Exception as exc:  # noqa: BLE001 - whatever unpickling raises
            report = ("fail", f"unreadable report: {exc!r}")
        finally:
            channel.close()
        if report[0] != "ok":
            child.kill()
            raise SpawnError(report[1])
        return child

    def alive(self) -> bool:
        """Whether the child still runs (stopped counts); reaps it if not."""
        if not self._reaped:
            try:
                self._reaped = os.waitpid(self.pid, os.WNOHANG)[0] != 0
            except ChildProcessError:
                self._reaped = True
        return not self._reaped

    def signal(self, sig: int) -> None:
        """Send ``sig``; a child already gone needs none."""
        if not self._reaped:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:
                pass

    def wait(self, timeout_s: float) -> bool:
        """Wait up to ``timeout_s`` for the child to exit; True once reaped."""
        deadline = time.monotonic() + timeout_s
        while self.alive():
            left = deadline - time.monotonic()
            if left <= 0:
                return False
            _await_exit([self.pid], left)
        return True

    def kill(self) -> None:
        """SIGKILL the child and reap it (a no-op once it is reaped)."""
        if not self._reaped:
            self._reaped = not _reap_verified([self.pid])
