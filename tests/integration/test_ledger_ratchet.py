"""Ratchets for what ROADMAP's ledger table counts by hand."""

import io
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import threading
import tokenize

from repro.cluster import ClusterRouter, ClusterShard
from repro.core.policy import EliminationPolicy
from repro.core.worlds import run_alternatives
from repro.journal import CommitJournal
from tests.journal.test_group import CountingStorage

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: ROADMAP's "locks / conditions in `serve/` + `cluster/`" row
LOCKS_CEILING = 12
#: ROADMAP's "`serve/` + `cluster/` lines" row (`wc -l`)
LINES_CEILING = 4810
#: ROADMAP's "`fsync`s per `cluster_remote` op" row
APPENDS_PER_REQUEST_CEILING = 3
#: ROADMAP's "durable appends made while the request holds its slots" row
APPENDS_ON_HELD_SLOTS_CEILING = 0
#: ROADMAP's "threads started per thread-backend block, warm pool" row
THREAD_STARTS_PER_BLOCK_CEILING = 0


def test_serve_and_cluster_lock_count_does_not_rise():
    built = [
        f"{path.relative_to(SRC)}:{lineno}"
        for package in ("serve", "cluster")
        for path in sorted((SRC / package).glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"threading\.(Lock|RLock|Condition)\(", line)
    ]
    assert len(built) <= LOCKS_CEILING, (
        f"{len(built)} locks / conditions in serve/ + cluster/ (ceiling "
        f"{LOCKS_CEILING}): fold one away, or update ROADMAP's ledger row "
        f"and this ceiling together — {built}"
    )


def test_serve_and_cluster_line_count_does_not_rise():
    lines = sum(
        len(path.read_text().splitlines())
        for package in ("serve", "cluster")
        for path in (SRC / package).glob("*.py")
    )
    assert lines <= LINES_CEILING, (
        f"{lines} lines in serve/ + cluster/ (ceiling {LINES_CEILING}): "
        "remove what the change made unnecessary, or update ROADMAP's "
        "ledger row and this ceiling together"
    )


def test_a_journalled_request_costs_at_most_three_durable_appends():
    """ROADMAP's "`fsync`s per `cluster_remote` op: 6 -> 3" row: the
    admit's intent + seal, the block win's three phases and the admit's
    settle are each one ``storage.append`` (one write, one fsync)."""
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
    assert len(in_use) == 3  # admit, block win, admit settle
    held = sum(1 for slots in in_use if slots)
    assert held <= APPENDS_ON_HELD_SLOTS_CEILING, (
        f"{held} of {len(in_use)} durable appends ran on held slots "
        f"(ceiling {APPENDS_ON_HELD_SLOTS_CEILING}; slots in use at each: "
        f"{in_use}): write after reservation.release()"
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
    r"|repro\.distrib\.(netsim|rfork|migration|netstore)"
    r"|repro\.analysis\.(domain|experiment|granularity)"
)

_NO_SIMULATION_PROBE = textwrap.dedent("""
    import json, sys
    import repro, repro.serve, repro.cluster, repro.journal, repro.obs
    import repro.runtime.fork_backend
    from repro import run_alternatives, Supervisor
    serving = sorted(sys.modules)
    import repro.analysis, repro.distrib
    names = (repro.Kernel, repro.PerformanceModel, repro.analysis.pi_from_ratios,
             repro.distrib.SimulatedLink)
    print(json.dumps({
        "serving": serving,
        "resolved": [f"{x.__module__}.{x.__qualname__}" for x in names],
    }))
""")


def test_the_serving_and_fork_stack_loads_no_simulation_module():
    """The public surfaces of ``repro``, ``repro.analysis`` and
    ``repro.distrib`` import their simulation names on first access, so
    the router, shard hosts and fork worlds carry only the serving stack."""
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
        "repro.distrib.netsim.SimulatedLink",
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


def _code_only(path):
    """``path``'s source with comments and string literals dropped."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return "".join(
        tok.string for tok in tokens
        if tok.type not in (tokenize.COMMENT, tokenize.STRING)
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
        "shard surface (admit, which returns the ticket / steal_requests / "
        "confirm_stolen)"
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
