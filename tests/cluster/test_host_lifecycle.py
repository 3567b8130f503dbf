"""A shard host's whole life under its process handle, with nothing left behind.

Every round forks real host processes and drives each exit a host can
take: a graceful stop, a crash, a ``kill -9`` and a restart, a freeze
and a thaw. After every round the parent must hold no child and no
descriptor it did not hold before the first one. The baseline is taken
once earlier tests' leftovers are gone: their shard-client reader threads
have exited and their unreachable objects are collected, so nothing of
theirs opens or closes a descriptor during the rounds.
"""

import gc
import os
import threading
import time

import pytest

from repro.cluster import RemoteShardClient, ShardState
from repro.errors import ClusterError

ROUNDS = 10


def _open_fds() -> dict[int, str]:
    """Each open descriptor and what it points at. The listing's own
    descriptor is closed by the time each is checked, so it drops out."""
    fds = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            fds[int(name)] = os.readlink(f"/proc/self/fd/{name}")
        except OSError:
            continue
    return fds


def _settle_earlier_tests(timeout_s=10.0):
    """Wait out earlier tests' shard-client readers, then collect."""
    deadline = time.monotonic() + timeout_s
    for thread in threading.enumerate():
        if thread.name.startswith("shard-client-") and thread.name.endswith("-reader"):
            thread.join(max(0.0, deadline - time.monotonic()))
    gc.collect()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_every_exit_leaves_no_child_and_no_descriptor(tmp_path):
    shard = RemoteShardClient(0, workdir=str(tmp_path), slots=1, workers=1)
    _settle_earlier_tests()
    baseline = _open_fds()
    for _ in range(ROUNDS):
        shard.start()
        assert shard.answers_heartbeat()
        shard.stop()
        assert shard.state is ShardState.DEAD and not shard.process_alive()

        shard.start()
        pid = shard.pid
        shard.crash()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

        shard.start()
        shard.sigkill()
        assert not shard.process_alive()
        shard.start()  # a restart after the kill
        shard.sigstop()
        assert shard.process_alive()
        shard.sigcont()
        assert shard.answers_heartbeat()
        shard.stop()

        _no_child_left()
        opened = {fd: target for fd, target in _open_fds().items()
                  if baseline.get(fd) != target}
        # the threads alive say whose socket or pipe an extra one is
        assert not opened, (
            f"descriptors a round left open: {opened}, before the rounds "
            f"{ {fd: baseline.get(fd) for fd in opened} }; threads alive: "
            f"{threading.enumerate()}"
        )
    assert shard.incarnation == 4 * ROUNDS - 1


def test_a_host_whose_setup_raises_reports_why(tmp_path):
    """The journal path is a directory, so the host's shard cannot open
    it: ``start`` raises with the host's own error, not a connect timeout."""
    shard = RemoteShardClient(0, workdir=str(tmp_path))
    os.mkdir(shard.journal_path)
    with pytest.raises(ClusterError, match="IsADirectoryError"):
        shard.start()
    assert shard.state is ShardState.DEAD and not shard.process_alive()
    _no_child_left()
