"""Migration over a dying link: clean refusal, source keeps the process."""

import pytest

from repro.analysis.calibration import NetworkProfile
from repro.distrib.retry import RetryPolicy
from repro.errors import NetworkError
from repro.kernel import Kernel
from repro.kernel.process import ProcState

from netmodel.faults import NetFaultKind, NetFaultPlan
from netmodel.migration import migrate_process
from netmodel.netsim import SimulatedLink

FAST = NetworkProfile("fast", latency_s=0.001, bandwidth_bytes_s=1e8)


def _echo_server(ctx):
    total = 0
    while True:
        msg = yield ctx.recv()
        if msg.data == "stop":
            return total
        total += msg.data


def park_server(kernel):
    pid = kernel.spawn(_echo_server, name="server")
    kernel.run(until=0.001)
    return pid


def lossy_link(rate, seed=0):
    plan = NetFaultPlan(seed=seed, rates={NetFaultKind.XFER_DROP: rate})
    return SimulatedLink(FAST, fault_plan=plan, seed=seed)


class TestLinkDeathMidShip:
    def test_dead_link_aborts_with_network_error(self):
        src, dst = Kernel(cpus=2), Kernel(cpus=2)
        pid = park_server(src)
        link = lossy_link(rate=1.0)
        with pytest.raises(NetworkError, match="source kernel keeps the process"):
            migrate_process(src, pid, dst, link, retry=RetryPolicy(max_retries=2))

    def test_source_keeps_process_and_target_untouched(self):
        src, dst = Kernel(cpus=2), Kernel(cpus=2)
        pid = park_server(src)
        dst_pids_before = set(dst.pid_worlds)
        with pytest.raises(NetworkError):
            migrate_process(src, pid, dst, lossy_link(rate=1.0))
        # the source still owns a live, recv-parked copy...
        world = next(w for w in src.worlds_of(pid) if w.alive)
        assert world.state is ProcState.BLOCKED_RECV
        # ...and the target registered nothing
        assert set(dst.pid_worlds) == dst_pids_before

    def test_aborted_migration_is_retryable_later(self):
        src, dst = Kernel(cpus=2), Kernel(cpus=2)
        pid = park_server(src)
        with pytest.raises(NetworkError):
            migrate_process(src, pid, dst, lossy_link(rate=1.0))
        # the link heals (a clean one stands in): the same call now works
        record = migrate_process(src, pid, dst, SimulatedLink(FAST))
        assert record.src_pid == pid

        def driver(ctx, server):
            yield ctx.send(server, 42)
            yield ctx.send(server, "stop")

        dst.spawn(driver, record.dst_pid)
        dst.run()
        assert dst.result_of(record.dst_pid) == 42


class TestLossyButSurvivable:
    @pytest.mark.parametrize("seed", range(6))
    def test_migration_retries_through_loss(self, seed):
        src, dst = Kernel(cpus=2), Kernel(cpus=2)
        pid = park_server(src)
        record = migrate_process(src, pid, dst, lossy_link(rate=0.3, seed=seed))
        assert record.dst_pid in dst.pid_worlds
        assert record.transfer_s > 0
        # retries and their backoff are visible in the record
        assert record.retries >= 0
        assert record.transfer_s >= record.backoff_s

    def test_clean_link_records_no_retries(self):
        src, dst = Kernel(cpus=2), Kernel(cpus=2)
        pid = park_server(src)
        record = migrate_process(src, pid, dst, SimulatedLink(FAST))
        assert record.retries == 0
        assert record.backoff_s == 0.0

    def test_retry_accounting_deterministic(self):
        def run(seed):
            src, dst = Kernel(cpus=2), Kernel(cpus=2)
            pid = park_server(src)
            r = migrate_process(src, pid, dst, lossy_link(rate=0.5, seed=seed))
            return (r.retries, r.backoff_s)

        assert run(11) == run(11)
