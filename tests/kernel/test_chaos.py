"""Randomized whole-kernel invariant checking ("chaos" tests).

Hypothesis generates arbitrary topologies of blocks, speculative senders
and outside receivers; after every run the kernel must satisfy the
global invariants from DESIGN.md §5, whatever happened:

- no live world's predicates reference a resolved fact;
- at most one DONE world per logical pid;
- every block settles with at most one committed child;
- dead worlds hold no frames (no memory leaks);
- the simulation terminates (no deadlock) because every receiver has a
  timeout.
"""

import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernel import Kernel, ProcState, TIMEOUT

#: tier-1 draws 60 topologies; CI's fuzz-smoke step asks for more
MAX_EXAMPLES = int(os.environ.get("KERNEL_CHAOS_EXAMPLES", "60"))

block_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=2.0),  # talker pre-send compute
        st.floats(min_value=0.05, max_value=2.0),  # talker post-send compute
        st.floats(min_value=0.05, max_value=2.0),  # rival compute
        st.booleans(),  # talker sends at all?
    ),
    min_size=1,
    max_size=3,
)


# The receiver's timeout must outlast the worst case the strategy can
# generate: on 1 CPU every world serializes, so up to 3 blocks x
# (2.0 + 2.0 talker + 2.0 rival) = 18 virtual seconds of compute can
# precede the last talker's send. A shorter timeout makes the receiver
# give up before a legitimately winning talker gets to send, breaking
# the observed-iff-won invariant below.
RECV_TIMEOUT_S = 30.0


def _build(kernel: Kernel, specs, n_receivers: int):
    receiver_pids = []

    def receiver(ctx):
        got = []
        while True:
            msg = yield ctx.recv(timeout=RECV_TIMEOUT_S)
            if msg is TIMEOUT:
                return got
            got.append(msg.data)

    for i in range(n_receivers):
        receiver_pids.append(kernel.spawn(receiver, name=f"recv{i}"))

    parent_pids = []
    for index, (pre, post, rival_cost, sends) in enumerate(specs):
        target = receiver_pids[index % n_receivers]

        def parent(ctx, _pre=pre, _post=post, _rival=rival_cost,
                   _sends=sends, _target=target, _index=index):
            def talker(c):
                yield c.compute(_pre)
                if _sends:
                    yield c.send(_target, f"block{_index}")
                yield c.compute(_post)
                return "talker"

            def rival(c):
                yield c.compute(_rival)
                return "rival"

            out = yield from ctx.run_alternatives([talker, rival])
            return out.value

        parent.__name__ = f"parent{index}"
        parent_pids.append(kernel.spawn(parent, name=f"parent{index}"))
    return receiver_pids, parent_pids


@given(
    specs=block_specs,
    n_receivers=st.integers(min_value=1, max_value=2),
    cpus=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=99),
)
# once a deadlock (recv0 ended blocked-sync): a receiver split inside a
# half-applied resolution and the clone kept a literal already settled
@example(
    specs=[(0.25, 0.5, 1.0, True), (0.25, 1.0, 1.0, True), (0.25, 1.0, 1.0, True)],
    n_receivers=1, cpus=1, seed=0,
)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_global_invariants_hold_after_any_run(specs, n_receivers, cpus, seed):
    kernel = Kernel(cpus=cpus, seed=seed)
    receiver_pids, parent_pids = _build(kernel, specs, n_receivers)
    kernel.run()  # must terminate without DeadlockError

    # every parent selected exactly one alternative
    for pid in parent_pids:
        assert kernel.result_of(pid) in ("talker", "rival")

    # at most one DONE world per logical pid
    for pid, wids in kernel.pid_worlds.items():
        done = [w for w in wids if kernel.worlds[w].state is ProcState.DONE]
        assert len(done) <= 1, f"pid {pid} committed twice"

    # every receiver completed with a consistent transcript: a block's
    # message is observed iff its talker won
    for i, rpid in enumerate(receiver_pids):
        got = kernel.result_of(rpid)
        for index, (_, _, _, sends) in enumerate(specs):
            if index % n_receivers != i:
                continue
            expected = sends and kernel.result_of(parent_pids[index]) == "talker"
            assert (f"block{index}" in got) == expected

    # no live worlds remain, and predicates never reference settled facts
    assert not kernel.live_worlds()
    for world in kernel.worlds.values():
        if world.alive:
            assert not (world.predicates.all_pids() & set(kernel.facts))

    # dead worlds hold no frames; total live frames equal the sum of the
    # completed worlds' resident pages
    for world in kernel.worlds.values():
        if world.state in (ProcState.ABORTED, ProcState.KILLED):
            assert world.heap.space.table.released

    # every group settled with exactly one committed record at most
    for group in kernel.groups.values():
        committed = [
            r for r in group.records.values() if r.status == "committed"
        ]
        assert group.settled
        assert len(committed) <= 1
