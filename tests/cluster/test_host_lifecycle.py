"""A shard host's whole life under its process handle, with nothing left behind.

Every round forks real host processes and drives each exit a host can
take: a graceful stop, a crash, a ``kill -9`` and a restart, a freeze
and a thaw. After every round the parent must hold no child and no
descriptor it did not hold before the first one.
"""

import os

import pytest

from repro.cluster import RemoteShardClient, ShardState
from repro.errors import ClusterError

ROUNDS = 10


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_every_exit_leaves_no_child_and_no_descriptor(tmp_path):
    shard = RemoteShardClient(0, workdir=str(tmp_path), slots=1, workers=1)
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
        assert _open_fds() == baseline
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
