"""Process migration between simulation kernels.

The paper's rfork was built "to implement a process migration scheme"
(Smith & Ioannidis [19]). Here we migrate a simulated process from one
:class:`~repro.kernel.Kernel` (machine) to another: checkpoint its
program + syscall log + heap contents, ship the image over a simulated
link, and reconstruct the process on the target by deterministic replay —
the same mechanism world-splitting uses.

Restrictions (checked): the process must be unpredicated (migrating a
speculative world would tear it out of its resolution web), have exactly
one live world, be parked in ``recv`` (the natural quiescent point of a
server process), and have no live alternative children.

On an unreliable link the protocol is conservative: the image ship and
the target's acknowledgement both retry under a
:class:`~repro.distrib.retry.RetryPolicy`, and the source kernel keeps
the process — completely untouched — until the ack lands. A link that
dies mid-ship (or swallows every ack) aborts the migration with
:class:`~repro.errors.NetworkError`: nothing was registered on the
target, nothing was torn down on the source, and the caller may simply
retry later.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.distrib.retry import RetryPolicy, call_with_retries
from repro.errors import NetworkError, RetriesExhausted
from repro.kernel.kernel import Kernel
from repro.kernel.process import ProcState, SimProcess
from repro.memory.heap import PagedHeap

from .faults import CheckpointError
from .netsim import SimulatedLink

#: The ack is a tiny fixed-size frame (dst pid + status), not the image.
_ACK_BYTES = 64


@dataclass(frozen=True)
class MigrationRecord:
    """What one migration cost and produced."""

    src_pid: int
    dst_pid: int
    image_bytes: int
    transfer_s: float
    queued_messages: int
    retries: int = 0
    backoff_s: float = 0.0


def _image_size(world: SimProcess) -> int:
    """Approximate checkpoint size: heap contents + replay log."""
    try:
        heap_blob = pickle.dumps(world.heap.as_dict(), protocol=pickle.HIGHEST_PROTOCOL)
        log_blob = pickle.dumps(world.log, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(f"process state not serializable: {exc}") from exc
    return len(heap_blob) + len(log_blob) + 256  # header/registers allowance


def migrate_process(
    src: Kernel,
    pid: int,
    dst: Kernel,
    link: SimulatedLink | None = None,
    retry: RetryPolicy | None = None,
) -> MigrationRecord:
    """Move process ``pid`` from kernel ``src`` to kernel ``dst``.

    Returns a :class:`MigrationRecord`; the process continues on ``dst``
    under a new pid, blocked at the same ``recv`` with its queued
    messages carried along. If the link dies mid-ship or never delivers
    the target's ack, raises :class:`~repro.errors.NetworkError` with
    both kernels unchanged (the source keeps the process).
    """
    live = [w for w in src.worlds_of(pid) if w.alive]
    if len(live) != 1:
        raise CheckpointError(
            f"pid {pid} has {len(live)} live worlds; need exactly one to migrate"
        )
    world = live[0]
    if world.state is not ProcState.BLOCKED_RECV:
        raise CheckpointError(
            f"pid {pid} is {world.state.value}; only recv-parked processes migrate"
        )
    if world.predicates.unresolved:
        raise CheckpointError(f"pid {pid} is speculative; resolve before migrating")
    for child_pid in world.child_pids:
        for wid in src.pid_worlds.get(child_pid, []):
            if src.worlds[wid].alive:
                raise CheckpointError(
                    f"pid {pid} has a live alternative child (pid {child_pid})"
                )

    image_bytes = _image_size(world)
    transfer_s = 0.0
    retries = 0
    backoff_s = 0.0
    if link is not None:
        policy = retry if retry is not None else RetryPolicy()
        before = link.busy_seconds
        try:
            # phase 1: ship the image; phase 2: the target acks receipt.
            # Only after the ack does either kernel mutate — a dead link
            # aborts here with the process still owned by the source.
            _, ship_stats = call_with_retries(
                lambda attempt: link.transfer(image_bytes, attempt=attempt),
                policy=policy, token=f"migrate:{pid}:image", link=link,
            )
            _, ack_stats = call_with_retries(
                lambda attempt: link.transfer(_ACK_BYTES, attempt=attempt),
                policy=policy, token=f"migrate:{pid}:ack", link=link,
            )
        except RetriesExhausted as exc:
            raise NetworkError(
                f"migration of pid {pid} aborted, link died mid-ship: {exc} "
                "(source kernel keeps the process)"
            ) from exc
        retries = ship_stats.retries + ack_stats.retries
        backoff_s = ship_stats.backoff_s + ack_stats.backoff_s
        transfer_s = (link.busy_seconds - before) + backoff_s

    # reconstruct on the destination machine
    new_pid = dst._pids.next()
    heap = PagedHeap(pool=dst.pool)
    heap.update(world.heap.as_dict())
    clone = SimProcess(
        wid=dst._wids.next(),
        pid=new_pid,
        name=world.name,
        program=world.program,
        args=world.args,
        heap=heap,
        cloned_from=world.wid,
    )
    clone.log = list(world.log)
    dst._replay(clone)
    clone.state = ProcState.BLOCKED_RECV
    queued = list(world.mailbox)
    dst._register(clone)
    for msg in queued:
        clone.mailbox.deliver(
            type(msg)(
                sender=msg.sender, dest=new_pid, data=msg.data,
                predicate=msg.predicate, msg_id=msg.msg_id, sent_at=msg.sent_at,
                sender_world=msg.sender_world,
            )
        )
    if queued:
        dst._pump_blocked_receiver(clone)

    # tear down the source copy without emitting a completion fact — the
    # process did not fail, it moved.
    world.state = ProcState.KILLED
    world.error = f"migrated to {dst!r} as pid {new_pid}"
    world.bump_dispatch()
    world.bump_timer()
    world.heap.release()
    src.trace.record(src.now, "migrate-out", pid, wid=world.wid, dst_pid=new_pid)
    dst.trace.record(dst.now, "migrate-in", new_pid, wid=clone.wid, src_pid=pid)

    return MigrationRecord(
        src_pid=pid,
        dst_pid=new_pid,
        image_bytes=image_bytes,
        transfer_s=transfer_s,
        queued_messages=len(queued),
        retries=retries,
        backoff_s=backoff_s,
    )
