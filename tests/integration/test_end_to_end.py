"""Cross-subsystem scenarios: the library working as one system.

These integration tests exercise multiple packages in one story —
speculative transactions over sink devices, a recovery block whose
alternates message an auditor, OR-parallel Prolog committing real state,
and the distributed pipeline (checkpoint → link → restart → migrate).
"""

import pytest

from apps.prolog import Database, ORParallelEngine
from apps.recovery import RecoveryBlock
from repro.core import Alternative, EliminationPolicy
from repro.devices.backing_store import BackingStoreDevice
from repro.kernel import Kernel, TIMEOUT


class TestSpeculativeTransactions:
    """Alternatives as competing transactions against one database page
    (the paper's transaction analogy, section 2.1 + section 5)."""

    def test_competing_writers_one_commit(self):
        kernel = Kernel(cpus=4)
        disk = BackingStoreDevice("db", size=256)
        disk.write(b"balance=100", offset=0)
        kernel.add_device(disk)

        def parent(ctx):
            def txn_fast(c):
                current = yield c.device_read("db", 11, 0)
                assert current == b"balance=100"
                yield c.device_write("db", b"balance=150", 0)
                yield c.compute(0.1)
                return "fast-txn"

            def txn_slow(c):
                yield c.device_write("db", b"balance=999", 0)
                yield c.compute(5.0)
                return "slow-txn"

            out = yield from ctx.run_alternatives([txn_fast, txn_slow])
            return out.value

        pid = kernel.spawn(parent)
        kernel.run()
        assert kernel.result_of(pid) == "fast-txn"
        # exactly one transaction's effect is visible; no partial mixes
        assert disk.read(11) == b"balance=150"
        assert disk.discarded_writes == 1

    def test_failed_block_leaves_database_untouched(self):
        kernel = Kernel(cpus=4)
        disk = BackingStoreDevice("db", size=64)
        disk.write(b"original", offset=0)
        kernel.add_device(disk)

        def parent(ctx):
            def doomed(c):
                yield c.device_write("db", b"SCRIBBLE", 0)
                yield c.abort("changed my mind")

            out = yield from ctx.run_alternatives([doomed])
            return out.failed

        pid = kernel.spawn(parent)
        kernel.run()
        assert kernel.result_of(pid) is True
        assert disk.read(8) == b"original"


class TestRecoveryWithAudit:
    """A recovery block whose spares report to an auditor process: the
    auditor's world splits per speculative report and only the winning
    spare's report survives to the log."""

    def test_only_winning_spare_is_audited(self):
        kernel = Kernel(cpus=6)

        def auditor(ctx):
            msg = yield ctx.recv(timeout=30.0)
            if msg is TIMEOUT:
                return "nothing-to-audit"
            yield ctx.device_write("tty", f"audit: {msg.data}\n".encode())
            return msg.data

        auditor_pid = kernel.spawn(auditor, name="auditor")

        def parent(ctx):
            def primary(c):
                yield c.compute(0.1)
                yield c.send(auditor_pid, "primary computed 42")
                yield c.compute(0.1)
                yield c.put("answer", 42)
                return "primary"

            def spare(c):
                yield c.compute(5.0)
                yield c.send(auditor_pid, "spare computed 41")
                yield c.put("answer", 41)
                return "spare"

            out = yield from ctx.run_alternatives([primary, spare])
            snap = yield ctx.snapshot()
            return (out.value, snap["answer"])

        pid = kernel.spawn(parent, name="block")
        kernel.run()
        assert kernel.result_of(pid) == ("primary", 42)
        assert kernel.result_of(auditor_pid) == "primary computed 42"
        assert kernel.device("tty").text == "audit: primary computed 42\n"


class TestPrologToState:
    """OR-parallel Prolog driving real committed state on the kernel."""

    def test_first_proof_commits_bindings_to_heap(self):
        db = Database.from_source(
            """
            slow(0).
            slow(N) :- N > 0, M is N - 1, slow(M).
            pick(expensive) :- slow(300).
            pick(cheap).
            """
        )
        engine = ORParallelEngine(db)
        solution, outcome = engine.solve_first_sim("pick(X)", per_inference_s=1e-3)
        # cheap's branch wins the race even though expensive also succeeds
        assert str(solution["X"]) == "cheap"
        assert outcome.extras["state"]["bindings"] == solution.bindings


class TestDistributedPipeline:
    """Checkpoint a worker, ship it, restart it, keep talking to it."""

    def test_checkpoint_ship_restart_migrate(self):
        from repro.analysis.calibration import NetworkProfile
        from netmodel.migration import migrate_process
        from netmodel.netsim import SimulatedLink

        node_a, node_b = Kernel(cpus=2), Kernel(cpus=2)
        link = SimulatedLink(NetworkProfile("lan", 0.005, 10e6))

        def accumulator(ctx):
            total = 0
            while True:
                msg = yield ctx.recv()
                if msg.data == "report":
                    return total
                total += msg.data
                yield ctx.put("total", total)

        pid = node_a.spawn(accumulator, name="acc")

        def feeder_a(ctx, target):
            for value in (10, 20):
                yield ctx.send(target, value)

        node_a.spawn(feeder_a, pid)
        node_a.run(until=5.0)

        record = migrate_process(node_a, pid, node_b, link)
        assert record.transfer_s > 0
        # the wire carried the image plus the target's fixed-size ack
        from netmodel.migration import _ACK_BYTES

        assert link.bytes_moved == record.image_bytes + _ACK_BYTES

        def feeder_b(ctx, target):
            yield ctx.send(target, 12)
            yield ctx.send(target, "report")

        node_b.spawn(feeder_b, record.dst_pid)
        node_b.run()
        assert node_b.result_of(record.dst_pid) == 42


class TestRecoveryAcrossBackends:
    """The same recovery block gives equivalent answers everywhere."""

    @pytest.mark.parametrize("backend", ["sim", "thread", "fork"])
    def test_backend_equivalence(self, backend):
        import os

        if backend == "fork" and not hasattr(os, "fork"):
            pytest.skip("needs fork")

        def good(ws):
            ws["x"] = sum(ws["input"])
            return "good"

        def bad(ws):
            ws["x"] = -1
            return "bad"

        block = RecoveryBlock(lambda ws, v: ws["x"] > 0, bad, good)
        kwargs = {"sim_costs": [0.1, 0.2]} if backend == "sim" else {}
        result = block.run_parallel({"input": [1, 2, 3]}, backend=backend, **kwargs)
        assert result.alternate == "good"
        assert result.state["x"] == 6


class TestElimCascadeStress:
    """Deep nesting + cross-block messaging resolves without leaks."""

    def test_three_level_nesting_with_messages(self):
        kernel = Kernel(cpus=8, trace=True)

        def observer(ctx):
            seen = []
            while True:
                msg = yield ctx.recv(timeout=20.0)
                if msg is TIMEOUT:
                    return seen
                seen.append(msg.data)

        obs = kernel.spawn(observer, name="observer")

        def parent(ctx):
            def outer_a(c):
                def inner_fast(cc):
                    yield cc.compute(0.1)
                    yield cc.send(obs, "inner-fast")
                    yield cc.compute(0.1)
                    return "if"

                def inner_slow(cc):
                    yield cc.compute(9.0)
                    return "is"

                out = yield from c.run_alternatives([inner_fast, inner_slow])
                yield c.compute(0.1)
                return f"A:{out.value}"

            def outer_b(c):
                yield c.compute(10.0)
                return "B"

            out = yield from ctx.run_alternatives(
                [outer_a, outer_b], elimination=EliminationPolicy.SYNCHRONOUS
            )
            return out.value

        pid = kernel.spawn(parent, name="parent")
        kernel.run()
        assert kernel.result_of(pid) == "A:if"
        # the observer's surviving world saw the inner winner's message
        assert kernel.result_of(obs) == ["inner-fast"]
        # memory hygiene: only completed worlds' heaps remain
        for world in kernel.worlds.values():
            if world.state.name in ("ABORTED", "KILLED"):
                assert world.heap.space.table.released
