"""The journal wired through the simulation kernel's commit path."""

import pytest

from repro.devices.backing_store import BackingStoreDevice
from repro.devices.buffered import BufferedSource
from repro.devices.teletype import Teletype
from repro.journal import (
    CommitJournal,
    MemoryJournalStorage,
    SourceGate,
    recover,
)
from repro.kernel import Kernel


def K(**kw):
    kw.setdefault("cpus", 8)
    return Kernel(**kw)


def racing_block(ctx):
    """Two alternatives race through the gate; `a` is faster and wins."""

    def a(c):
        yield c.compute(0.5)
        yield c.device_write("tty", b"<a>")
        return "a"

    def b(c):
        yield c.compute(2.0)
        yield c.device_write("tty", b"<b>")
        return "b"

    yield ctx.device_write("tty", b"[start]")
    out = yield from ctx.run_alternatives([a, b])
    yield ctx.device_write("tty", b"[done]")
    return out.value


class TestKernelTransactions:
    def run_block(self, journal=None):
        # the gate always has *a* journal (it cannot work without one);
        # `journal` controls whether the KERNEL journals its transitions
        k = K(journal=journal)
        tty = Teletype("tty")
        k.add_device(SourceGate(tty, journal if journal is not None else CommitJournal()))
        pid = k.spawn(racing_block)
        k.run()
        return k, tty, pid

    def test_commit_eliminate_sync_all_journaled(self):
        j = CommitJournal()
        k, tty, pid = self.run_block(journal=j)
        assert k.result_of(pid) == "a"
        assert tty.output == b"[start]<a>[done]"
        kinds = [r["kind"] for r in j.records() if r["t"] == "intent"]
        assert "sync" in kinds
        assert "commit" in kinds
        assert "eliminate" in kinds
        assert "release" in kinds
        # every decision both sealed and applied: a clean shutdown
        assert recover(CommitJournal(MemoryJournalStorage(j.storage.load()))).clean

    def test_journal_disabled_behaviour_unchanged(self):
        j = CommitJournal()
        k1, tty1, p1 = self.run_block(journal=j)
        k2, tty2, p2 = self.run_block(journal=None)
        assert k1.result_of(p1) == k2.result_of(p2)
        assert tty1.output == tty2.output

    def test_split_journaled_on_predicated_message(self):
        # a receiver accepting a speculative message splits: that split
        # must leave an applied "split" txn with the clone's wid
        j = CommitJournal()
        k = K(journal=j, trace=True)

        def receiver(ctx):
            msg = yield ctx.recv(timeout=60.0)
            return "got" if msg else "timeout"

        def parent(ctx, dst):
            def talker(c):
                yield c.compute(0.1)
                yield c.send(dst, "news")
                yield c.compute(0.4)
                return "talker"

            out = yield from ctx.run_alternatives([talker])
            return out.value

        rpid = k.spawn(receiver, name="receiver")
        k.spawn(parent, rpid, name="parent")
        k.run()
        assert k.result_of(rpid) == "got"
        splits = [
            r for r in j.records()
            if r["t"] == "intent" and r["kind"] == "split"
        ]
        assert splits
        seq = splits[0]["seq"]
        assert j.status(seq) == "applied"
        applied = {i["seq"]: data for i, data in j.applied_intents("split")}
        assert "clone_wid" in applied[seq]


class TestDoubleCommitGuard:
    def test_backing_store_repeat_commit_is_noop(self):
        disk = BackingStoreDevice("disk", size=64)
        disk.stage_write(7, b"DATA", 0)
        disk.commit_world(7)
        assert disk.read(4) == b"DATA"
        assert disk.committed_writes == 1
        disk.commit_world(7)  # the kernel's second path reaches here
        assert disk.committed_writes == 1
        assert disk.double_commits == 1

    def test_recommit_after_restaging_applies(self):
        disk = BackingStoreDevice("disk", size=64)
        disk.stage_write(7, b"A", 0)
        disk.commit_world(7)
        disk.stage_write(7, b"B", 1)
        disk.commit_world(7)
        assert disk.read(2) == b"AB"
        assert disk.double_commits == 0

    def test_kernel_block_commits_each_sink_write_once(self):
        k = K()
        disk = BackingStoreDevice("disk", size=64)
        k.add_device(disk)

        def parent(ctx):
            def writer(c):
                yield c.compute(0.1)
                yield c.device_write("disk", b"WINNER", 0)
                return "writer"

            out = yield from ctx.run_alternatives([writer])
            return out.value

        pid = k.spawn(parent)
        k.run()
        assert k.result_of(pid) == "writer"
        assert disk.read(6) == b"WINNER"
        assert disk.committed_writes == 1


class TestEliminationForgetsDeviceState:
    def test_gate_ledger_and_positions_dropped_for_losers(self):
        j = CommitJournal()
        k = K(journal=j)
        tty = Teletype("tty", input_script=b"0123456789")
        gate = SourceGate(tty, j)
        k.add_device(gate)

        def parent(ctx):
            def fast(c):
                yield c.compute(0.1)
                data = yield c.device_read("tty", 2)
                return data

            def slow(c):
                data = yield c.device_read("tty", 2)
                yield c.device_write("tty", b"loser noise")
                yield c.compute(9.0)
                return data

            out = yield from ctx.run_alternatives([fast, slow])
            return out.value

        pid = k.spawn(parent)
        k.run()
        assert k.result_of(pid) == b"01"
        assert tty.output == b""  # the loser's staged write evaporated
        # the loser's ledger and read position were forgotten at its
        # elimination; the winner's position migrated to the parent world
        # (wid 1), so the parent resumes reading where the winner stopped
        assert gate.staged_worlds() == []
        assert gate._read_pos == {1: 2}

    def test_buffered_source_positions_dropped_for_eliminated_pids(self):
        k = K()
        raw = Teletype("raw", input_script=b"0123456789")
        buffered = BufferedSource(raw, name="input")
        k.add_device(buffered)
        box = {}

        def parent(ctx):
            def fast(c):
                yield c.compute(0.1)
                data = yield c.device_read("input", 4)
                return data

            def slow(c):
                data = yield c.device_read("input", 4)
                yield c.compute(9.0)
                return data

            out = yield from ctx.run_alternatives([fast, slow])
            box["losers"] = [rec.index for rec in out.children if rec.status != "committed"]
            return out.value

        pid = k.spawn(parent)
        k.run()
        assert k.result_of(pid) == b"0123"
        # satellite regression: the eliminated alternative's pid must not
        # pin a per-client read position forever (only committed pids may)
        committed = {p for p in k.pid_worlds if p in k._committed}
        assert set(buffered._read_pos) <= committed


class TestCrashRecoverRerun:
    def test_crash_mid_block_then_recover_and_rerun(self):
        from repro.errors import JournalCrash
        from repro.faults import FaultKind, FaultPlan

        storage = MemoryJournalStorage()
        tty = Teletype("tty", input_script=b"XY")

        def program(ctx):
            yield ctx.device_write("tty", b"[start]")
            data = yield ctx.device_read("tty", 2)

            def a(c):
                yield c.compute(0.5)
                yield c.device_write("tty", b"<a>")
                return "a"

            def b(c):
                yield c.compute(2.0)
                yield c.device_write("tty", b"<b>")
                return "b"

            out = yield from ctx.run_alternatives([a, b])
            yield ctx.device_write("tty", b"[done]")
            return (data, out.value)

        # incarnation 1: the plan tears the first intent record
        plan = FaultPlan(seed=0, rates={FaultKind.TORN_RECORD: 1.0})
        j1 = CommitJournal(storage, fault_plan=plan)
        k1 = K(journal=j1)
        k1.add_device(SourceGate(tty, j1))
        k1.spawn(program)
        with pytest.raises(JournalCrash):
            k1.run()

        # incarnation 2: recover, then a full deterministic re-run
        j2 = CommitJournal(MemoryJournalStorage(storage.load()))
        gate2 = SourceGate(tty, j2)
        recover(j2, gates=[gate2])
        k2 = K(journal=j2)
        k2.add_device(gate2)
        pid = k2.spawn(program)
        k2.run()
        assert k2.result_of(pid) == (b"XY", "a")
        # exactly-once on the real device, despite the full re-run
        assert tty.output == b"[start]<a>[done]"
        assert tty.input_remaining == 0
