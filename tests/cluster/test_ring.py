"""The consistent-hash ring: determinism, order independence, minimal remap."""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ring import HashRing
from repro.errors import ClusterError

shard_sets = st.lists(
    st.integers(min_value=0, max_value=31), min_size=1, max_size=8, unique=True
)
tenants = st.text(min_size=1, max_size=12)


class TestMembership:
    def test_add_duplicate_rejected(self):
        ring = HashRing([0, 1])
        with pytest.raises(ClusterError):
            ring.add(1)

    def test_remove_unknown_rejected(self):
        ring = HashRing([0])
        with pytest.raises(ClusterError):
            ring.remove(7)

    def test_empty_ring_cannot_route(self):
        with pytest.raises(ClusterError):
            HashRing().route("t")

    def test_len_and_contains(self):
        ring = HashRing([3, 5])
        assert len(ring) == 2
        assert 3 in ring and 5 in ring and 4 not in ring
        assert ring.shards == [3, 5]


class TestRingProperties:
    @given(shards=shard_sets, tenant=tenants)
    @settings(max_examples=80, deadline=None)
    def test_route_is_deterministic(self, shards, tenant):
        a = HashRing(shards)
        b = HashRing(shards)
        assert a.route(tenant) == b.route(tenant)
        assert a.preference(tenant) == b.preference(tenant)

    @given(shards=st.permutations(list(range(6))), tenant=tenants)
    @settings(max_examples=60, deadline=None)
    def test_insertion_order_independent(self, shards, tenant):
        shuffled = HashRing(shards)
        canonical = HashRing(sorted(shards))
        assert shuffled.route(tenant) == canonical.route(tenant)
        assert shuffled.preference(tenant) == canonical.preference(tenant)

    @given(shards=shard_sets, tenant=tenants)
    @settings(max_examples=80, deadline=None)
    def test_preference_starts_at_home_and_covers_all(self, shards, tenant):
        ring = HashRing(shards)
        pref = ring.preference(tenant)
        assert pref[0] == ring.route(tenant)
        assert sorted(pref) == sorted(shards)
        assert len(set(pref)) == len(pref)

    @given(shards=shard_sets, new=st.integers(min_value=100, max_value=131))
    @settings(max_examples=40, deadline=None)
    def test_add_remaps_only_onto_the_new_shard(self, shards, new):
        corpus = [f"tenant-{i}" for i in range(150)]
        before = HashRing(shards)
        owners = {t: before.route(t) for t in corpus}
        before.add(new)
        for t in corpus:
            after = before.route(t)
            # a tenant either kept its home or moved onto the new shard
            assert after == owners[t] or after == new

    @given(shards=shard_sets)
    @settings(max_examples=40, deadline=None)
    def test_remove_remaps_only_the_dead_shards_tenants(self, shards):
        corpus = [f"tenant-{i}" for i in range(150)]
        ring = HashRing(shards)
        victim = sorted(shards)[0]
        owners = {t: ring.route(t) for t in corpus}
        ring.remove(victim)
        if not len(ring):
            return
        for t in corpus:
            if owners[t] == victim:
                assert ring.route(t) != victim
            else:
                assert ring.route(t) == owners[t]

    @given(shards=shard_sets, tenant=tenants)
    @settings(max_examples=40, deadline=None)
    def test_failover_order_is_surviving_preference(self, shards, tenant):
        # killing the home shard lands the tenant exactly on its next
        # preference — the property the router's re-land path relies on
        ring = HashRing(shards)
        pref = ring.preference(tenant)
        if len(pref) < 2:
            return
        ring.remove(pref[0])
        assert ring.route(tenant) == pref[1]


class TestRemapFraction:
    def test_add_moves_about_one_over_n(self):
        corpus = [f"tenant-{i}" for i in range(4000)]
        ring = HashRing(range(4), vnodes=64)
        owners = {t: ring.route(t) for t in corpus}
        ring.add(4)
        moved = sum(1 for t in corpus if ring.route(t) != owners[t])
        # ideal is 1/5 = 800; vnode variance allowed for, stampede not
        assert moved / len(corpus) < 0.40

    def test_balance_is_reasonable(self):
        corpus = [f"tenant-{i}" for i in range(4000)]
        ring = HashRing(range(4), vnodes=64)
        counts = {s: 0 for s in range(4)}
        for t in corpus:
            counts[ring.route(t)] += 1
        assert max(counts.values()) / max(1, min(counts.values())) < 3.0


#: Fixed tenant names: short ones, ``mw-e2e``-style hex draws, and edge cases
PINNED_TENANTS = [
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "t2a917468", "t67972442", "t6774a62c", "t82867630",
    "t0acd4080", "t9425f87b", "t72df4949", "td7b6f865",
    "", "tenant-0", "ü-tenant", "alpha",
]
#: ``route`` and ``preference`` of each pinned tenant, as the ring placed
#: them when it hashed through ``hashlib``: a hash swap must move nothing
#: (``mw-e2e`` draws the ``cluster_remote`` tenants by ring placement)
PINNED_PLACEMENT = {
    2: ("00010000100110011011", [
        "01", "01", "01", "10", "01", "01", "01", "01", "10", "01",
        "01", "10", "10", "01", "01", "10", "10", "01", "10", "10",
    ]),
    3: ("20012020202110012012", [
        "201", "012", "012", "120", "201", "012", "201", "012", "210", "012",
        "201", "102", "102", "012", "021", "102", "210", "012", "102", "210",
    ]),
}


@pytest.mark.parametrize("n_shards", sorted(PINNED_PLACEMENT))
def test_placement_is_pinned(n_shards):
    ring = HashRing(range(n_shards))
    routes, preferences = PINNED_PLACEMENT[n_shards]
    assert "".join(str(ring.route(t)) for t in PINNED_TENANTS) == routes
    assert [
        "".join(map(str, ring.preference(t))) for t in PINNED_TENANTS
    ] == preferences


def test_routing_is_stable_across_processes():
    # blake2b (not the per-process-salted hash()) means another python
    # process maps the same tenants to the same shards
    code = textwrap.dedent(
        """
        from repro.cluster.ring import HashRing
        ring = HashRing([0, 1, 2, 3])
        print(",".join(str(ring.route(f"tenant-{i}")) for i in range(32)))
        """
    )
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="random")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env, cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    ).stdout.strip()
    ring = HashRing([0, 1, 2, 3])
    assert out == ",".join(str(ring.route(f"tenant-{i}")) for i in range(32))
