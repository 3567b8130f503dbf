"""ChildProcess: fork, wait for readiness, drive and reap a long-lived child."""

import os
import signal
import time

import pytest

from repro.errors import SpawnError
from repro.runtime.child import ChildProcess


def _serve_until_signalled(path, ready):
    with open(path, "w") as fh:
        fh.write(str(os.getpid()))
    ready()
    signal.pause()


def _raise_before_ready(ready):
    raise ValueError("no journal here")


def _return_before_ready(ready):
    return None


def _never_ready(ready):
    time.sleep(30)


def _exit_when_ready(ready):
    ready()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_returns_once_the_child_is_ready(tmp_path):
    marker = tmp_path / "pid"
    child = ChildProcess.fork(_serve_until_signalled, str(marker), timeout_s=10)
    try:
        assert marker.read_text() == str(child.pid)  # ready came after the write
        assert child.alive()
        child.signal(signal.SIGSTOP)
        assert child.alive()  # stopped is not dead
        assert not child.wait(0.05)
    finally:
        child.kill()
    assert not child.alive()
    child.kill()  # a second kill is a no-op
    child.signal(signal.SIGTERM)  # so is a signal to a reaped child
    _no_child_left()


def test_wait_reaps_a_child_that_exits():
    child = ChildProcess.fork(_exit_when_ready, timeout_s=10)
    assert child.wait(10)
    assert not child.alive()
    _no_child_left()


@pytest.mark.parametrize(
    "main, reason",
    [
        (_raise_before_ready, "ValueError: no journal here"),
        (_return_before_ready, "exited before it was ready"),
    ],
)
def test_a_child_that_is_never_ready_raises_its_reason(main, reason):
    with pytest.raises(SpawnError, match=reason):
        ChildProcess.fork(main, timeout_s=10)
    _no_child_left()


def test_a_child_silent_past_the_timeout_is_killed():
    t0 = time.monotonic()
    with pytest.raises(SpawnError, match="not ready within 0.2 s"):
        ChildProcess.fork(_never_ready, timeout_s=0.2)
    assert time.monotonic() - t0 < 5
    _no_child_left()
