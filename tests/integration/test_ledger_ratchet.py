"""Ratchets for what ROADMAP's ledger table counts by hand.

The measurements are plain functions, so ``python -m tests.ratchet_counts``
prints the same counts the ceilings below hold them to.
"""

import ast
import dataclasses
import functools
import inspect
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import threading
import time
import tokenize
from unittest import mock

from repro.cluster import (
    ClusterRouter,
    ClusterShard,
    RemoteShardClient,
    ShardState,
    remote,
    wire,
)
from repro.core.alternative import Alternative
from repro.core.policy import EliminationPolicy
from repro.core.worlds import run_alternatives
from repro.journal import CommitJournal, FileJournalStorage, settle
from repro.runtime.report_channel import ReportChannel
from repro.serve import (
    AdaptiveSpeculationPolicy,
    AdmissionQueue,
    AlternativeStats,
    SpeculationService,
    WorldBudget,
)
from tests.journal.test_group import CountingStorage
from tests.serve.test_budget import release_in_turn

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: ROADMAP's "locks / conditions in `serve/` + `cluster/`" row
LOCKS_CEILING = 11
#: ROADMAP's "re-entrant locks in `serve/` + `cluster/`" row
RLOCKS_CEILING = 0
#: ROADMAP's "`serve/` + `cluster/` lines" row (`wc -l`)
LINES_CEILING = 3937
#: ROADMAP's "`src/` lines" row (`git ls-files 'src/*.py' | xargs wc -l`)
SRC_LINES_CEILING = 17583
#: ROADMAP's "settable values on the serving path" row
SETTABLE_VALUES_CEILING = 40
#: ROADMAP's "shard states" row
SHARD_STATES = ("up", "draining", "dead")
#: ROADMAP's "`fsync`s per `cluster_remote` op" row
APPENDS_PER_REQUEST_CEILING = 2
#: ROADMAP's "durable appends made while the request holds its slots" row
APPENDS_ON_HELD_SLOTS_CEILING = 0
#: ROADMAP's "threads started per thread-backend block, warm pool" row
THREAD_STARTS_PER_BLOCK_CEILING = 0
#: ROADMAP's "journal bytes appended per journalled request" row
JOURNAL_BYTES_PER_REQUEST_CEILING = 489
#: ROADMAP's "admit RPC frame bytes per `cluster_remote`-shaped request" row
ADMIT_FRAME_BYTES_CEILING = 729
#: ROADMAP's "through a real host, per request" row: durable appends,
#: journal records, journal file bytes, and bytes the client receives
HOST_APPENDS_PER_REQUEST_CEILING = 2
HOST_RECORDS_PER_REQUEST_CEILING = 6
HOST_JOURNAL_BYTES_PER_REQUEST_CEILING = 487
HOST_RECEIVED_BYTES_PER_REQUEST_CEILING = 903
#: ROADMAP's "budget wake-ups that find nothing free" row
BUDGET_WAITER_MISSES_CEILING = 0
#: ROADMAP's "lone slots granted to the head while its gang is out" row
BUDGET_LONE_SLOTS_TO_THE_HEAD_CEILING = 0
#: ROADMAP's "per fork block" row: forks, children reaped before the call
#: returns (item 17 moves it), the winner's report bytes (item 8 moves it)
FORKS_PER_BLOCK_CEILING = 3
REAPED_ON_THE_CALLERS_PATH_CEILING = 3
WINNER_REPORT_BYTES_CEILING = 262_591


def _serve_and_cluster_lines_matching(pattern: str) -> list[str]:
    return [
        f"{path.relative_to(SRC)}:{lineno}"
        for package in ("serve", "cluster")
        for path in sorted((SRC / package).glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]


def serve_and_cluster_locks() -> list[str]:
    return _serve_and_cluster_lines_matching(r"threading\.(Lock|RLock|Condition)\(")


def serve_and_cluster_lines() -> int:
    return sum(
        len(path.read_text().splitlines())
        for package in ("serve", "cluster")
        for path in (SRC / package).glob("*.py")
    )


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))


def test_serve_and_cluster_lock_count_does_not_rise():
    built = serve_and_cluster_locks()
    assert len(built) <= LOCKS_CEILING, (
        f"{len(built)} locks / conditions in serve/ + cluster/ (ceiling "
        f"{LOCKS_CEILING}): fold one away, or update ROADMAP's ledger row "
        f"and this ceiling together — {built}"
    )


def test_serve_and_cluster_take_no_reentrant_lock():
    """A re-entrant lock is how a callback comes to run while the lock
    is held: resolve outside the lock instead."""
    built = _serve_and_cluster_lines_matching(r"RLock\(")
    assert len(built) <= RLOCKS_CEILING, (
        f"{len(built)} re-entrant locks in serve/ + cluster/ (ceiling "
        f"{RLOCKS_CEILING}): release the lock before calling out, or "
        f"update ROADMAP's ledger row and this ceiling together — {built}"
    )


def test_serve_and_cluster_line_count_does_not_rise():
    lines = serve_and_cluster_lines()
    assert lines <= LINES_CEILING, (
        f"{lines} lines in serve/ + cluster/ (ceiling {LINES_CEILING}): "
        "remove what the change made unnecessary, or update ROADMAP's "
        "ledger row and this ceiling together"
    )


def test_src_line_count_does_not_rise():
    lines = src_lines()
    assert lines <= SRC_LINES_CEILING, (
        f"{lines} lines in src/ (ceiling {SRC_LINES_CEILING}): remove what "
        "the change made unnecessary, or update ROADMAP's ledger row and "
        "this ceiling together"
    )


def settable_values() -> list[str]:
    """Every constructor parameter of the router, both shard transports,
    the service, the budget, the queue and the win statistics, every
    parameter of the budget's grant, and every field of the adaptive
    policy, is a value a caller can set and a test must cover."""
    return [
        f"{fn.__qualname__}.{name}"
        for fn in (
            ClusterRouter.__init__, ClusterShard.__init__,
            RemoteShardClient.__init__, SpeculationService.__init__,
            WorldBudget.__init__, AdmissionQueue.__init__,
            AlternativeStats.__init__, WorldBudget.reserve_blocking,
        )
        for name in inspect.signature(fn).parameters
        if name != "self"
    ] + [
        f"AdaptiveSpeculationPolicy.{f.name}"
        for f in dataclasses.fields(AdaptiveSpeculationPolicy)
    ]


def test_the_serving_path_has_no_more_settable_values():
    settable = settable_values()
    assert len(settable) <= SETTABLE_VALUES_CEILING, (
        f"{len(settable)} settable values on the serving path (ceiling "
        f"{SETTABLE_VALUES_CEILING}): derive the new one from an existing "
        f"one, or update ROADMAP's ledger row and this ceiling together — "
        f"{settable}"
    )


def test_a_shard_has_only_its_own_lifecycle_states():
    """The detector's suspicion is its miss count, and a takeover kills
    a live shard with the same ``crash()`` as a dead one: neither leaves
    a state of its own on the shard."""
    assert tuple(s.value for s in ShardState) == SHARD_STATES


def test_a_journalled_request_costs_at_most_two_durable_appends():
    """ROADMAP's "`fsync`s per `cluster_remote` op: 6 -> 3 -> 2" row: the
    admit's intent + seal is one ``storage.append`` (one write, one
    fsync), and the block win's three phases with the admit's settle
    are the other."""
    storage = CountingStorage()
    shard = ClusterShard(
        0, journal=CommitJournal(storage=storage), journal_admission=True
    )
    storage.appends = 0  # the magic is per journal, not per request
    with ClusterRouter([shard]).start(detect=False) as router:
        assert router.submit("t", [lambda ws: 1], spec={}).result(10).committed
    assert len(shard.journal.records()) == 6
    assert storage.appends <= APPENDS_PER_REQUEST_CEILING, (
        f"{storage.appends} durable appends for one journalled request "
        f"(ceiling {APPENDS_PER_REQUEST_CEILING}): phases of one txn with "
        "nothing between them belong in one CommitJournal.group()"
    )


def test_no_durable_append_is_made_while_the_request_holds_its_slots():
    """The block win's frames are queued while the world runs and reach
    storage only after ``reservation.release()``: no fsync on a slot."""
    storage = CountingStorage()
    shard = ClusterShard(
        0, journal=CommitJournal(storage=storage), journal_admission=True
    )
    in_use = []
    storage.during_append = lambda: in_use.append(shard.budget.in_use)
    with ClusterRouter([shard]).start(detect=False) as router:
        assert router.submit("t", [lambda ws: 1], spec={}).result(10).committed
    assert len(in_use) == 2  # admit | block win + admit settle
    held = sum(1 for slots in in_use if slots)
    assert held <= APPENDS_ON_HELD_SLOTS_CEILING, (
        f"{held} of {len(in_use)} durable appends ran on held slots "
        f"(ceiling {APPENDS_ON_HELD_SLOTS_CEILING}; slots in use at each: "
        f"{in_use}): write after reservation.release()"
    )


def test_a_journalled_request_appends_no_more_bytes():
    """One request served single-threaded (the test takes the worker's
    step itself) over an in-memory journal: the admit's intent + seal,
    then the block win with the admit's settle."""
    storage = CountingStorage()
    svc = SpeculationService(
        WorldBudget(2), workers=1, journal=CommitJournal(storage=storage),
        journal_admission=True,
    )
    svc._running = True  # no workers
    storage.blobs.clear()  # the magic is per journal, not per request
    ticket = svc.submit("t0000abcd", [lambda ws: 1], spec={"n": 1}, seq=1)
    svc._work(*svc.queue.take(timeout=0))
    assert ticket.result(timeout=0).committed
    appended = sum(len(blob) for blob in storage.blobs)
    assert appended <= JOURNAL_BYTES_PER_REQUEST_CEILING, (
        f"{appended} journal bytes for one journalled request (ceiling "
        f"{JOURNAL_BYTES_PER_REQUEST_CEILING}): keep the admit record to the "
        "fields a restore needs, or update ROADMAP's ledger row and this "
        "ceiling together"
    )


def op_alt0(ws):
    return 0


def op_alt1(ws):
    return 1


def op_alt2(ws):
    return 2


def admit_frame_sizes(workdir) -> list[int]:
    """A request shaped like ``cluster_remote``'s (a ``t%08x`` tenant,
    three named module-level alternatives, the op's workspace) admitted
    to a real shard host: the size of each admit frame it sent."""
    sizes = []
    pack_frame = remote.pack_frame

    def packed(body):
        frame = pack_frame(body)
        if body.get("op") == "admit":
            sizes.append(len(frame))
        return frame

    alternatives = [
        Alternative(fn, name=f"op1000.{pos}")
        for pos, fn in enumerate((op_alt0, op_alt1, op_alt2))
    ]
    initial = {"op": 1000, "costs_ms": (4.0, 20.0, 20.0), "kernel_at": -1}
    host = RemoteShardClient(0, workdir=str(workdir))
    with mock.patch.object(remote, "pack_frame", packed):
        with ClusterRouter([host]).start(detect=False) as router:
            ticket = router.submit("t0000abcd", alternatives, initial=initial, seq=1000)
            assert ticket.result(10).committed
    return sizes


def test_a_remote_admit_sends_one_frame_of_no_more_bytes(tmp_path):
    """One admit RPC, its frame no larger than before."""
    (size,) = admit_frame_sizes(tmp_path)
    assert size <= ADMIT_FRAME_BYTES_CEILING, (
        f"{size}-byte admit frame (ceiling {ADMIT_FRAME_BYTES_CEILING}): keep "
        "the wire record to the fields a shard host needs, or update "
        "ROADMAP's ledger row and this ceiling together"
    )


def host_value(ws, n):
    return n


def per_request_through_a_host(workdir) -> dict[str, float]:
    """Eight sequential requests through one shard-host process. The
    host is forked after the journal storage's ``append`` is wrapped, so
    it inherits the wrapper, which counts each call as one byte in an
    ``O_APPEND`` file. The client's received bytes are every frame its
    reader takes: the admit replies and the result pushes."""
    workdir = pathlib.Path(workdir)
    requests = 8
    counter = workdir / "appends"
    append = FileJournalStorage.append

    def counted_append(storage, blob):
        fd = os.open(counter, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, b"+")
        finally:
            os.close(fd)
        append(storage, blob)

    received = []
    recv_exact = wire._recv_exact

    def counted_recv(sock, n):
        data = recv_exact(sock, n)
        received.append(len(data))
        return data

    host = RemoteShardClient(0, workdir=str(workdir / "host"))
    with (
        mock.patch.object(FileJournalStorage, "append", counted_append),
        mock.patch.object(wire, "_recv_exact", counted_recv),
    ):
        with ClusterRouter([host]).start(detect=False) as router:
            appends_at_start = counter.stat().st_size
            bytes_at_start = os.path.getsize(host.journal_path)
            received.clear()
            for n in range(requests):
                ticket = router.submit(
                    "t%08x" % n, [functools.partial(host_value, n=n)],
                    spec={"n": 1}, seq=1000 + n,
                )
                assert ticket.result(10).committed
            received_bytes = sum(received)
    appends = counter.stat().st_size - appends_at_start
    journal_bytes = os.path.getsize(host.journal_path) - bytes_at_start
    records = len(CommitJournal(
        storage=FileJournalStorage(host.journal_path)
    ).records())
    return {
        "appends": appends / requests,
        "records": records / requests,
        "journal bytes": journal_bytes / requests,
        "received bytes": received_bytes / requests,
    }


def test_a_request_through_a_real_host_costs_no_more(tmp_path):
    per_request = per_request_through_a_host(tmp_path)
    ceilings = {
        "appends": HOST_APPENDS_PER_REQUEST_CEILING,
        "records": HOST_RECORDS_PER_REQUEST_CEILING,
        "journal bytes": HOST_JOURNAL_BYTES_PER_REQUEST_CEILING,
        "received bytes": HOST_RECEIVED_BYTES_PER_REQUEST_CEILING,
    }
    over = {k: v for k, v in per_request.items() if v > ceilings[k]}
    assert not over, (
        f"per request through a real host: {per_request} (ceilings "
        f"{ceilings}): keep a request's journal and wire cost, or update "
        "ROADMAP's ledger row and these ceilings together"
    )


def budget_waiter_misses() -> int:
    """A 4-slot pool, fully held; six ``want=3`` waiters parked in order;
    then the holder and the waiters release in turn, with no arrivals.
    The reservation attempts of parked waiters that find nothing free:
    each is a wake-up spent on a waiter that cannot use it."""
    return release_in_turn(waiters=6, slots=4, want=3).misses


def test_a_budget_release_wakes_only_a_waiter_it_can_grant():
    misses = budget_waiter_misses()
    assert misses <= BUDGET_WAITER_MISSES_CEILING, (
        f"{misses} parked waiters woke to find nothing free (ceiling "
        f"{BUDGET_WAITER_MISSES_CEILING}): a release wakes the oldest "
        "waiter alone, and a woken head keeps its place"
    )


def budget_lone_slots_to_the_head() -> int:
    """The same scenario: the lone slots granted to the oldest of two or
    more waiters while the slots held in multi-slot grants, with that
    slot, could fill its want. Each one runs the longest waiter as one
    world (Scheme B) when its gang was coming back."""
    return release_in_turn(waiters=6, slots=4, want=3).lone_slots_to_the_head


def test_a_lone_slot_does_not_go_to_a_head_whose_gang_is_out():
    lone = budget_lone_slots_to_the_head()
    assert lone <= BUDGET_LONE_SLOTS_TO_THE_HEAD_CEILING, (
        f"{lone} lone slots went to the longest waiter while its gang was "
        f"out (ceiling {BUDGET_LONE_SLOTS_TO_THE_HEAD_CEILING}): a lone "
        "free slot goes to the newest waiter then"
    )


def fork_pages(ws):
    """Write 64 pages of 4 KiB into the workspace and return."""
    ws["pages"] = [bytes([page]) * 4096 for page in range(64)]
    return "pages"


def fork_sleeper(ws):
    time.sleep(30)


def fork_block_counts() -> dict[str, int]:
    """One fixed ``run_alternatives(backend="fork")`` block: one
    alternative writes 64 pages and returns, two sleep until killed.
    Counts the ``os.fork`` calls, the children ``os.waitpid`` reaps before
    the call returns, and the bytes of the reports the parent reads (the
    winner's alone: the sleepers are killed unread)."""
    counts = {"forks": 0, "reaped": 0, "report bytes": 0}
    forked = set()
    fork, waitpid, recv = os.fork, os.waitpid, ReportChannel.recv

    def counted_fork():
        pid = fork()
        if pid:
            forked.add(pid)
            counts["forks"] += 1
        return pid

    def counted_waitpid(pid, options):
        done = waitpid(pid, options)
        counts["reaped"] += done[0] in forked
        return done

    def counted_recv(channel):
        report = recv(channel)
        counts["report bytes"] += os.fstat(channel.file_fd).st_size
        return report

    alternatives = [
        Alternative(fork_pages, name="pages"),
        Alternative(fork_sleeper, name="sleeper.1"),
        Alternative(fork_sleeper, name="sleeper.2"),
    ]
    with (
        mock.patch.object(os, "fork", counted_fork),
        mock.patch.object(os, "waitpid", counted_waitpid),
        mock.patch.object(ReportChannel, "recv", counted_recv),
    ):
        outcome = run_alternatives(alternatives, backend="fork")
    assert outcome.value == "pages"
    return counts


def test_a_fork_block_costs_no_more_forks_reaps_or_report_bytes():
    counts = fork_block_counts()
    ceilings = {
        "forks": FORKS_PER_BLOCK_CEILING,
        "reaped": REAPED_ON_THE_CALLERS_PATH_CEILING,
        "report bytes": WINNER_REPORT_BYTES_CEILING,
    }
    over = {k: v for k, v in counts.items() if v > ceilings[k]}
    assert not over, (
        f"one three-alternative fork block: {counts} (ceilings {ceilings}): "
        "one fork per alternative, and no more reaps or report bytes on the "
        "caller's path, or update ROADMAP's ledger row and these ceilings "
        "together"
    )


def test_a_warm_thread_pool_starts_no_thread_per_block(monkeypatch):
    alts = [lambda ws: 1, lambda ws: 2, lambda ws: 3]

    def block():
        # synchronous: every world is parked again before the block returns
        run_alternatives(
            alts, backend="thread", elimination=EliminationPolicy.SYNCHRONOUS
        )

    for _ in range(20):
        block()
    starts = 0
    start = threading.Thread.start

    def counted_start(thread):
        nonlocal starts
        starts += 1
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    blocks = 200
    for _ in range(blocks):
        block()
    assert starts <= THREAD_STARTS_PER_BLOCK_CEILING * blocks, (
        f"{starts} threads started over {blocks} warm K=3 thread blocks "
        f"(ceiling {THREAD_STARTS_PER_BLOCK_CEILING} per block): a world "
        "runs on a parked pool thread"
    )


#: Fault decisions of the two plans below, as numpy drew them when the
#: serving stack still imported it at module level: moving the import must
#: not move a decision.
PINNED_CHILD_DECISIONS = [
    "crash-before-report", "crash-before-report", None, "crash-before-report",
    None, None, "crash-before-report", None,
    None, "slow-start", "crash-before-report", None,
]
PINNED_JOURNAL_DECISIONS = [
    "crash-after-seal", "crash-after-seal", "crash-after-seal",
    "crash-after-seal", None, "torn-record", None, None,
    "crash-after-seal", "torn-record",
]

_NO_NUMPY_PROBE = textwrap.dedent("""
    import json, sys
    import repro, repro.serve, repro.cluster, repro.journal, repro.obs
    import repro.runtime.fork_backend
    from repro import run_alternatives, Supervisor
    from repro.faults.plan import FaultKind, FaultPlan
    serving = "numpy" in sys.modules
    child = FaultPlan(seed=7, rates={
        FaultKind.CRASH: 0.3, FaultKind.HANG: 0.2, FaultKind.SLOW_START: 0.25,
    })
    built = "numpy" in sys.modules
    kinds = [child.decide("child", 11, i, a).kind
             for a in range(3) for i in range(4)]
    journal = FaultPlan(seed=3, rates={
        FaultKind.TORN_RECORD: 0.4, FaultKind.CRASH_AFTER_SEAL: 0.4,
    })
    kinds += [journal.decide("journal", s).kind for s in range(1, 11)]
    print(json.dumps({
        "serving": serving, "built": built, "decided": "numpy" in sys.modules,
        "kinds": [k and k.value for k in kinds],
    }))
""")


def _run_probe(source):
    """The last stdout line of ``source`` run in a fresh interpreter, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", source],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_the_serving_and_fork_stack_loads_no_numpy():
    """ROADMAP's "numpy loaded by the serving + fork stack: yes -> no" row.

    Every fork copies a page-table entry per anonymous page of its parent,
    so what the router, shard hosts and fork worlds import is paid on each
    spawn and exit. The check runs in a fresh interpreter, because this
    test process already holds numpy.
    """
    probe = _run_probe(_NO_NUMPY_PROBE)
    assert not probe["serving"], (
        "importing repro / serve / cluster / journal / obs / the fork backend "
        "loaded numpy: import it inside the function that computes with it"
    )
    assert not probe["built"], "building a FaultPlan loaded numpy"
    assert probe["decided"], "a FaultPlan decides with numpy's default_rng"
    assert probe["kinds"] == PINNED_CHILD_DECISIONS + PINNED_JOURNAL_DECISIONS


#: ROADMAP's "simulation modules loaded by the serving + fork stack" row
SIMULATION_MODULES_CEILING = 0
_SIMULATION_MODULE = re.compile(
    r"repro\.(kernel|memory|ipc)(\..*)?"
    r"|repro\.distrib\.(netsim|rfork|migration|netstore|lease)"
    r"|repro\.analysis\.(domain|experiment|granularity)"
)

_NO_SIMULATION_PROBE = textwrap.dedent("""
    import json, sys
    import repro, repro.serve, repro.cluster, repro.journal, repro.obs
    import repro.runtime.fork_backend
    from repro import run_alternatives, Supervisor
    serving = sorted(sys.modules)
    import repro.analysis, repro.distrib
    names = (repro.Kernel, repro.PerformanceModel, repro.analysis.pi_from_ratios)
    print(json.dumps({
        "serving": serving,
        "resolved": [f"{x.__module__}.{x.__qualname__}" for x in names],
    }))
""")


def test_the_serving_and_fork_stack_loads_no_simulation_module():
    """The public surfaces of ``repro`` and ``repro.analysis`` import
    their simulation names on first access (the network model has left
    ``src/`` for ``benchmarks/netmodel``), so the router, shard hosts and
    fork worlds carry only the serving stack."""
    probe = _run_probe(_NO_SIMULATION_PROBE)
    loaded = [m for m in probe["serving"] if _SIMULATION_MODULE.fullmatch(m)]
    assert len(loaded) <= SIMULATION_MODULES_CEILING, (
        f"importing the serving and fork stack loaded {len(loaded)} simulation "
        f"modules (ceiling {SIMULATION_MODULES_CEILING}): {loaded}"
    )
    assert probe["resolved"] == [
        "repro.kernel.kernel.Kernel",
        "repro.analysis.model.PerformanceModel",
        "repro.analysis.model.pi_from_ratios",
    ]


_NO_OPENSSL_PROBE = textwrap.dedent("""
    import json, sys, tempfile
    import repro, repro.serve, repro.cluster, repro.journal, repro.obs
    import repro.runtime.fork_backend
    from repro import run_alternatives, Supervisor
    from repro.cluster import HashRing, RemoteShardClient
    HashRing([0, 1, 2]).route("tenant")
    with tempfile.TemporaryDirectory() as workdir:
        host = RemoteShardClient(0, workdir=workdir).start()
        alive = host.process_alive()
        host.stop()
    print(json.dumps({"alive": alive, "loaded": sorted(sys.modules)}))
""")
_OPENSSL_OR_MULTIPROCESSING = re.compile(r"_hashlib|_ssl|multiprocessing(\..*)?")


def test_the_serving_and_fork_stack_loads_no_openssl_or_multiprocessing():
    """ROADMAP's "OpenSSL / multiprocessing loaded by the serving + fork
    stack: yes -> no" row. The ring hashes with the builtin ``_blake2``,
    and a shard host forks through the fork backend's fork-and-report
    path, so starting and stopping a host loads neither."""
    probe = _run_probe(_NO_OPENSSL_PROBE)
    assert probe["alive"]
    loaded = [m for m in probe["loaded"] if _OPENSSL_OR_MULTIPROCESSING.fullmatch(m)]
    assert not loaded, (
        f"the serving and fork stack loaded {loaded}: hash with _blake2, "
        "fork with repro.runtime.child.ChildProcess"
    )


def _code_only(path, sep=""):
    """``path``'s source with comments and string literals dropped, its
    tokens joined by ``sep``."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return sep.join(
        tok.string for tok in tokens
        if tok.type not in (tokenize.COMMENT, tokenize.STRING)
    )


#: ROADMAP's "optional-telemetry branches in `src/` outside the kernel" row
#: (64 before the null plane)
TELEMETRY_BRANCHES_CEILING = 0
#: a None test on a plane, a tracer or a metric slot (``self._txn_c``)
_TELEMETRY_BRANCH = re.compile(
    r"\b(?:obs|tracer|plane|_\w+_[cgh])\s+is\s+(?:not\s+)?None\b"
)


def test_only_repro_obs_decides_whether_telemetry_is_on():
    """A layer built without a plane records into ``repro.obs.NULL_OBS``,
    so none asks whether it has one. The sim kernel keeps its optional
    ``KernelObserver``, built only over a real plane."""
    branches = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] not in ("obs", "kernel")
        for _ in _TELEMETRY_BRANCH.finditer(_code_only(path, sep=" "))
    ]
    assert len(branches) <= TELEMETRY_BRANCHES_CEILING, (
        f"{len(branches)} None tests on a plane or a metric slot outside "
        f"repro/obs and repro/kernel (ceiling {TELEMETRY_BRANCHES_CEILING}): "
        f"take the plane through repro.obs.or_null and write unconditionally "
        f"— {branches}"
    )


_NO_TELEMETRY_PROBE = textwrap.dedent("""
    import json, sys
    import repro, repro.serve, repro.cluster, repro.journal, repro.obs
    import repro.runtime.fork_backend
    from repro import run_alternatives, Supervisor
    from repro.cluster import ClusterRouter, ClusterShard
    shard = ClusterShard(0, journal_admission=True)
    with ClusterRouter([shard]).start(detect=False) as router:
        served = router.submit("t", [lambda ws: 1], spec={}).result(10).value
    forked = run_alternatives([lambda ws: 2], backend="fork").value
    print(json.dumps({"values": [served, forked], "loaded": sorted(sys.modules)}))
""")
_TELEMETRY_MODULE = re.compile(r"repro\.obs\.(metrics|spans|integrate)")


def test_the_serving_and_fork_stack_loads_no_telemetry_module_without_a_plane():
    """ROADMAP's "``repro.obs.metrics`` / ``.spans`` / ``.integrate``
    loaded by the serving + fork stack with no plane" row: the null plane
    imports nothing, and ``repro.obs`` resolves its other names on first
    access."""
    probe = _run_probe(_NO_TELEMETRY_PROBE)
    assert probe["values"] == [1, 2]
    loaded = [m for m in probe["loaded"] if _TELEMETRY_MODULE.fullmatch(m)]
    assert not loaded, (
        f"serving one request and one fork block with no plane loaded {loaded}: "
        "import them only where a real plane is built"
    )


#: ROADMAP's "`mark_applied(..., status=)` calls outside `repro.journal.settle`" row
FATE_WRITES_OUTSIDE_SETTLE_CEILING = 0


def test_a_request_fate_is_written_only_by_settle():
    """Every ``admit`` settle passes ``repro.journal.settle``, which holds
    the fate to ``FATES`` and applies the ledger's one move, sealed ->
    fate: no other ``mark_applied(`` call passes ``status=``."""
    body, first = inspect.getsourcelines(settle)
    allowed = {f"journal/wal.py:{n}" for n in range(first, first + len(body))}
    found = [
        f"{path.relative_to(SRC)}:{call.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for call in ast.walk(ast.parse(path.read_text()))
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "mark_applied"
        and any(k.arg in ("status", None) for k in call.keywords)
    ]
    found = [site for site in found if site not in allowed]
    assert len(found) <= FATE_WRITES_OUTSIDE_SETTLE_CEILING, (
        f"mark_applied(status=) outside repro.journal.settle (ceiling "
        f"{FATE_WRITES_OUTSIDE_SETTLE_CEILING}): settle the admit through "
        f"it — {found}"
    )


def test_router_lands_through_one_ledger_question_and_one_shard_surface():
    code = _code_only(SRC / "cluster" / "router.py")
    asks = code.count("replay_block_win(")
    assert asks <= 1, (
        f"{asks} replay_block_win( calls in cluster/router.py: the landing "
        "side decides replay-or-run in one place (_replay_from)"
    )
    assert ".service." not in code, (
        "cluster/router.py reaches through shard.service: use the flat "
        "shard surface (admit, which returns the ticket)"
    )
    from repro.cluster.remote import SHARD_OPS

    assert SHARD_OPS == ("admit", "stop"), (
        f"host RPC ops {SHARD_OPS}: a landed request moves only through a "
        "takeover, so the host answers admit and stop (plus ping)"
    )


def test_a_result_reaches_the_cluster_only_through_its_ticket():
    hooked = [
        path.name for path in sorted((SRC / "cluster").glob("*.py"))
        if "on_resolve" in _code_only(path)
    ]
    assert not hooked, (
        f"on_resolve in {hooked}: subscribe to the ticket admit returns "
        "(ServeTicket.add_done_callback) instead of setting a hook"
    )


#: ROADMAP's "fault sites no `src/` module decides" row
UNDECIDED_SITES_CEILING = 0


def test_every_fault_site_is_decided_by_the_library():
    """A site in ``SITE_KINDS`` is passed to a call by some ``src/``
    module besides the plan: directly (``plan.decide(KILL_SITE, ...)``,
    ``run.site_fault(CHILD_SITE, ...)``) or through a plan function that
    decides it (``heartbeat_lost``). A site only a bench decides belongs
    to a ``FaultPlan`` subclass beside that bench."""
    from repro.faults import plan

    constants = {name: getattr(plan, name) for name in dir(plan) if name.endswith("_SITE")}
    plan_path = pathlib.Path(plan.__file__)
    helpers = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in constants}
        for node in ast.parse(plan_path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    decided = set()
    for path in SRC.rglob("*.py"):
        if path == plan_path:
            continue
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            func = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", "")
            decided |= helpers.get(func, set())
            if call.args and isinstance(call.args[0], ast.Name) and call.args[0].id in constants:
                decided.add(call.args[0].id)
    undecided = sorted(set(plan.SITE_KINDS) - {constants[name] for name in decided})
    assert len(undecided) <= UNDECIDED_SITES_CEILING, (
        f"fault sites no src/ module decides (ceiling {UNDECIDED_SITES_CEILING}): "
        f"{undecided} — move them to a FaultPlan subclass beside their only user"
    )
