"""Cache tier: policies, block cache, edge streams, hot boost, scenarios."""

import hashlib
import random
from functools import lru_cache

import pytest

from repro.cache import block as block_module
from repro.cache import hotspot as hotspot_module
from repro.cache import tier as tier_module
from repro.cache import (
    BlockCache,
    CacheTier,
    CostAwarePolicy,
    LRUPolicy,
    content_stamp,
    make_policy,
    span_blocks,
)
from repro.cache.scenarios import churn, zipf_crowd
from repro.cluster import ClusterPlacementManager, StorageNode
from repro.cluster.scenarios import Blob
from repro.errors import CacheError
from repro.obs import scoped
from repro.sim import Delay
from repro.watch.invariants import InvariantMonitor


def make_cluster(sim, nodes=3, replication=2):
    cluster = ClusterPlacementManager(sim, replication=replication)
    for i in range(nodes):
        cluster.add_node(StorageNode(sim, f"node-{i}"))
    return cluster


def make_tier(sim, cluster, **kwargs):
    kwargs.setdefault("edges", 2)
    kwargs.setdefault("hot_threshold", 10_000)  # hot path off by default
    return CacheTier(sim, cluster, **kwargs)


def versions_of(cache, key):
    """The version tags of ``key`` resident in ``cache``, by a full scan."""
    return sorted({tag for (k, _), tag in cache.resident() if k == key})


def read_all(sim, stream, chunk_bits=240_000):
    """Drive a stream to the end of its value; return the digest."""
    total = stream.placement.nbytes * 8

    def client():
        while stream.bits_read < total:
            yield from stream.read(min(chunk_bits, total - stream.bits_read))

    sim.run_until_complete(sim.spawn(client(), name=f"read:{stream.label}"))
    return stream.digest


class TestEvictionPolicies:
    def test_lru_evicts_least_recently_touched(self):
        policy = LRUPolicy()
        for key in ("a", "b", "c"):
            policy.admitted(key, 1.0)
        policy.touched("a")  # b is now the coldest
        assert policy.victim() == "b"
        assert policy.victim() == "c"
        assert policy.victim() == "a"

    def test_cost_aware_keeps_frequent_blocks(self):
        policy = CostAwarePolicy()
        policy.admitted("hot", 1.0)
        policy.admitted("cold", 1.0)
        for _ in range(5):
            policy.touched("hot")
        assert policy.victim() == "cold"

    def test_cost_aware_aging_lets_new_blocks_win(self):
        # GDSF: the clock advances with each eviction, so a once-popular
        # block cannot pin the cache forever against fresh admissions.
        policy = CostAwarePolicy()
        policy.admitted("old", 1.0)
        for _ in range(3):
            policy.touched("old")
        for i in range(10):
            policy.admitted(f"n{i}", 1.0)
            policy.victim()
        assert "old" not in policy._blocks

    def test_make_policy(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("cost-aware"), CostAwarePolicy)
        with pytest.raises(CacheError, match="unknown eviction policy"):
            make_policy("clairvoyant")


class TestBlockCache:
    def test_fill_then_hit_and_span_geometry(self, sim):
        cache = BlockCache(sim, "c", capacity_bytes=300_000)
        assert cache.block_bytes == 30_000
        assert not cache.get("k", 0, 60_000, version=0)
        assert cache.put("k", 0, 60_000, version=0) == 2
        assert cache.get("k", 0, 60_000, version=0)
        assert cache.get("k", 30_000, 30_000, version=0)
        # A span partially resident is a miss (all-or-nothing).
        assert not cache.get("k", 30_000, 60_000, version=0)
        assert list(span_blocks(30_000, 45_000, 30_000)) == [1, 2]

    def test_version_mismatch_is_a_miss(self, sim):
        cache = BlockCache(sim, "c", 300_000)
        cache.put("k", 0, 30_000, version=0)
        assert not cache.get("k", 0, 30_000, version=1)
        assert versions_of(cache, "k") == [0]

    def test_invalidate_drops_stale_and_blocks_late_fills(self, sim):
        cache = BlockCache(sim, "c", 300_000)
        cache.put("k", 0, 90_000, version=0)
        assert cache.invalidate("k", min_version=1) == 3
        assert cache.resident_blocks == 0
        # A fill that raced the bump arrives late: refused by the floor.
        assert cache.put("k", 0, 30_000, version=0) == 0
        assert cache.put("k", 0, 30_000, version=1) == 1

    def test_capacity_evicts_but_never_overflows(self, sim):
        cache = BlockCache(sim, "c", capacity_bytes=90_000)
        for i in range(10):
            cache.put("k", i * 30_000, 30_000, version=0)
        assert cache.resident_blocks == 3
        assert cache.bytes_used <= cache.capacity_bytes
        assert sim.obs.metrics.counter("cache.evictions").value == 7

    def test_capacity_below_one_block_rejected(self, sim):
        with pytest.raises(CacheError, match="below one"):
            BlockCache(sim, "c", capacity_bytes=10)

    def test_content_stamp_is_version_sensitive(self):
        assert content_stamp("k", 0, 0) != content_stamp("k", 1, 0)
        assert content_stamp("k", 0, 0) == content_stamp("k", 0, 0)


class TestPerKeyIndex:
    """The per-key view must equal a scan of ``resident()`` after every
    mutation, under both policies, at a capacity that evicts."""

    KEYS = ("a", "b", "c", "d", "e")
    BLOCK = 1_000

    def _check(self, cache):
        assert cache.bytes_used == cache.resident_blocks * cache.block_bytes
        assert cache.bytes_used <= cache.capacity_bytes
        assert all(cache._by_key.values()), "empty per-key entry left behind"
        assert sorted(((key, index), tag)
                      for key, of_key in cache._by_key.items()
                      for index, tag in of_key.items()) == cache.resident()

    @pytest.mark.parametrize("policy", ["lru", "cost-aware"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_mutations_keep_index_equal_to_scan(self, sim, policy,
                                                       seed, monkeypatch):
        monkeypatch.setattr(block_module, "BLOCK_BYTES", self.BLOCK)
        rng = random.Random(seed)
        cache = BlockCache(sim, "c", capacity_bytes=12 * self.BLOCK,
                           policy=make_policy(policy))
        version = dict.fromkeys(self.KEYS, 0)
        evictions = sim.obs.metrics.counter("cache.evictions")
        dropped = 0
        for _ in range(5_000):
            key = rng.choice(self.KEYS)
            off = rng.randrange(0, 20) * self.BLOCK + rng.randrange(self.BLOCK)
            nbytes = rng.randrange(1, 4 * self.BLOCK)
            op = rng.random()
            if op < 0.55:
                # Mostly current fills, some late (stale) and early ones.
                tag = version[key] + rng.choice((0, 0, 0, -1, 1))
                cache.put(key, off, nbytes, max(tag, 0))
            elif op < 0.85:
                cache.get(key, off, nbytes, version[key])
            elif op < 0.99:
                version[key] += rng.choice((0, 1, 2))
                expected = sum(1 for (k, _), tag in cache.resident()
                               if k == key and tag < version[key])
                assert cache.invalidate(key, version[key]) == expected
                dropped += expected
            else:
                cache.clear()
                assert cache.resident_blocks == 0 and not cache._by_key
            self._check(cache)
        assert evictions.value > 100 and dropped > 100


class TestCoherenceProbeAgainstItsOldSelf:
    """The probe walks residency; the sweep it replaced asked every
    placement x cache x key.  The old body is kept here as the reference
    and the two must report the same evidence after every step of a walk
    that also corrupts state behind the API."""

    BLOCK = 1_000

    @staticmethod
    def _reference(cluster, tier):
        stale = {}
        for placement in cluster.placements:
            version = placement.version
            keys = {placement.key} | {s.key for s in placement.shards}
            for cache in tier.all_caches:
                for key in sorted(keys):
                    tags = [tag for tag in versions_of(cache, key)
                            if tag != version]
                    if tags:
                        stale.setdefault(cache.name, []).append(
                            f"{key}@{tags}")
        return {k: sorted(v) for k, v in sorted(stale.items())}

    @pytest.mark.parametrize("policy", ["lru", "cost-aware"])
    def test_random_walk_reports_what_the_triple_loop_did(self, sim, policy,
                                                          monkeypatch):
        monkeypatch.setattr(block_module, "BLOCK_BYTES", self.BLOCK)
        monkeypatch.setattr(tier_module, "NODE_CACHE_BYTES", 6 * self.BLOCK)
        rng = random.Random(7)
        cluster = make_cluster(sim, nodes=2, replication=1)
        tier = make_tier(sim, cluster, policy=policy,
                         edge_capacity_bytes=12 * self.BLOCK)
        values = [Blob(20 * self.BLOCK) for _ in "abc"]
        placements = [cluster.place(value, key=key)
                      for value, key in zip(values, "abc")]
        # An edge holds placement keys and a node cache shard keys, as
        # the tier fills them; "stray" is nobody's and neither sweep
        # judges it.
        edge_caches = [edge.cache for edge in tier.edges]
        owner = {key: p for p in placements
                 for key in (p.key, *(s.key for s in p.shards))}
        monitor = InvariantMonitor(sim).arm(cluster=cluster, tier=tier)
        breached = refused = 0
        for _ in range(5_000):
            cache = rng.choice(tier.all_caches)
            key = rng.choice("abc") + ("" if cache in edge_caches else "#0")
            if rng.random() < 0.05:
                key = "stray"
            now = owner[key].version if key in owner else 0
            off = rng.randrange(0, 20) * self.BLOCK
            op = rng.random()
            if op < 0.50:
                # Mostly current fills; late ones land under the floor
                # once the key was invalidated, early ones are stale too.
                tag = max(now + rng.choice((0,) * 12 + (-1, -1, 1)), 0)
                refused += cache.put(key, off, 2 * self.BLOCK, tag) == 0
            elif op < 0.70:
                cache.get(key, off, self.BLOCK, now)
            elif op < 0.88:
                cluster.bump_version(rng.choice(values))  # listeners fire
            elif op < 0.90:
                rng.choice(placements).version += 1  # behind the tier's back
            elif op < 0.96:
                cache.invalidate(key, now)
            elif op < 0.99:
                edge = rng.choice(tier.edges)
                edge.kill() if edge.live else edge.restore()
            else:
                cache.clear()
            found = []
            monitor._probe_cache_coherence(found)
            expected = self._reference(cluster, tier)
            assert [b.evidence["stale"] for b in found] == (
                [expected] if expected else [])
            breached += bool(expected)
        assert 1_000 < breached < 4_000 and refused > 100, (breached, refused)
        assert sum(edge.deaths for edge in tier.edges) > 10


class TestEdgeStreams:
    def test_digest_is_the_chain_of_content_stamps(self, sim, monkeypatch):
        # The memo in front of content_stamp, at a size every stream
        # below overflows: the digest must still be the direct chain.
        from repro.cache import edge as edge_module
        tiny = lru_cache(maxsize=2)(edge_module._stamp_bytes.__wrapped__)
        monkeypatch.setattr(edge_module, "_stamp_bytes", tiny)
        cluster = make_cluster(sim)
        tier = make_tier(sim, cluster)
        value = Blob(300_000)
        placement = cluster.place(value, key="v")

        def chained(stream, bump_after=None):
            direct, total = hashlib.sha256(), placement.nbytes * 8

            def client():
                reads = 0
                while stream.bits_read < total:
                    if reads == bump_after:
                        cluster.bump_version(value)
                    bits = min(240_000, total - stream.bits_read)
                    at_version = placement.version
                    for index in span_blocks(block_module.BLOCK_BYTES,
                                             stream.bits_read // 8, bits // 8):
                        direct.update(content_stamp(
                            "v", at_version, index).encode())
                    yield from stream.read(bits)
                    reads += 1

            sim.run_until_complete(sim.spawn(client(), name=stream.label))
            assert stream.digest == direct.hexdigest()
            return stream

        cold = chained(tier.open_read(value, 6e6, label="cold"))
        warm = chained(tier.open_read(value, 6e6, label="warm"))
        assert cold.misses and warm.hits and not warm.misses
        evicted = chained(CacheTier(
            sim, cluster, edges=1, edge_capacity_bytes=60_000,
            hot_threshold=10_000).open_read(value, 6e6, label="evicted"))
        assert evicted.misses
        bumped = chained(tier.open_read(value, 6e6, label="bumped"),
                         bump_after=4)
        assert bumped.hits and bumped.misses and bumped.digest != warm.digest
        for edge in tier.edges:
            edge.kill()
        orphan = chained(tier.open_read(value, 6e6, label="orphan"))
        assert orphan.passthroughs and not orphan.hits
        info = tiny.cache_info()
        assert info.currsize == 2 and info.misses > 10 * info.currsize

    def test_cold_warm_evicted_reads_are_byte_identical(self, sim):
        cluster = make_cluster(sim)
        tier = make_tier(sim, cluster)
        value = Blob(300_000)
        cluster.place(value, key="v")

        cold = tier.open_read(value, 6e6, label="cold")
        warm = tier.open_read(value, 6e6, label="warm")
        cold_digest = read_all(sim, cold)
        warm_digest = read_all(sim, warm)
        assert cold.misses > 0 and warm.hits > 0  # distinct paths...
        assert cold_digest == warm_digest  # ...same bytes

        # A cache too small for the value forces evictions mid-read and
        # still serves identical content.
        tiny_cluster_sim = sim  # same kernel, fresh tier over new nodes
        evicted = CacheTier(tiny_cluster_sim, cluster, edges=1,
                            edge_capacity_bytes=60_000,
                            hot_threshold=10_000).open_read(
                                value, 6e6, label="evicted")
        assert read_all(sim, evicted) == cold_digest
        for stream in (cold, warm, evicted):
            stream.close()

    def test_coherence_after_version_bump(self, sim):
        cluster = make_cluster(sim)
        tier = make_tier(sim, cluster)
        value = Blob(120_000)
        cluster.place(value, key="v")
        before = read_all(sim, tier.open_read(value, 6e6, label="r0"))
        cluster.bump_version(value)
        # Eager invalidation: nothing stale is resident anywhere.
        for cache in tier.all_caches:
            assert all(tag >= 1 for key in ("v", "v#0")
                       for tag in versions_of(cache, key))
        after = tier.open_read(value, 6e6, label="r1")
        after_digest = read_all(sim, after)
        assert after_digest != before  # new version, new bytes
        assert read_all(sim, tier.open_read(value, 6e6,
                                            label="r2")) == after_digest

    def test_all_edges_dead_degrades_to_passthrough(self, sim):
        cluster = make_cluster(sim)
        tier = make_tier(sim, cluster)
        value = Blob(120_000)
        cluster.place(value, key="v")
        for edge in tier.edges:
            edge.kill()
            assert edge.cache.resident_blocks == 0  # RAM died with it
        stream = tier.open_read(value, 6e6, label="orphan")
        digest = read_all(sim, stream)
        assert stream.passthroughs > 0 and stream.hits == 0
        assert stream.serving_edge is None
        # Pass-through serves the same bytes the cached path would.
        tier.edge("edge-0").restore()
        assert read_all(sim, tier.open_read(value, 6e6,
                                            label="back")) == digest

    def test_mid_stream_edge_kill_switches_or_passes_through(self, sim):
        cluster = make_cluster(sim)
        tier = make_tier(sim, cluster)
        value = Blob(600_000)
        cluster.place(value, key="v")
        stream = tier.open_read(value, 6e6, label="viewer")
        total = stream.placement.nbytes * 8

        def client():
            while stream.bits_read < total:
                yield from stream.read(240_000)

        def killer():
            yield Delay(0.05)
            for edge in tier.edges:
                edge.kill()

        sim.spawn(client(), name="client")
        sim.spawn(killer(), name="killer")
        sim.run()
        assert stream.bits_read == total
        assert stream.passthroughs > 0


class TestHotBoostLifecycle:
    def test_crowd_boosts_then_restores_replication(self, sim, monkeypatch):
        monkeypatch.setattr(hotspot_module, "WINDOW_S", 0.2)
        cluster = make_cluster(sim, nodes=3, replication=1)
        cluster.repair.start()
        tier = make_tier(sim, cluster, hot_threshold=4)
        value = Blob(120_000)
        placement = cluster.place(value, key="viral")
        monitor = InvariantMonitor(sim).arm(cluster=cluster, tier=tier)
        seen = {}

        def crowd():
            streams = [tier.open_read(value, 6e6, label=f"fan-{i}")
                       for i in range(6)]
            # Chunked reads: each is one detector note, so the window
            # sees a burst well past hot_threshold.
            for stream in streams:
                for _ in range(4):
                    yield from stream.read(240_000)
            seen["mid"] = placement.replication
            for stream in streams:
                stream.close()

        sim.spawn(crowd(), name="crowd")
        sim.run()
        assert seen["mid"] == 2  # boosted past declared R while hot
        assert placement.declared_replication == 1
        tier.shutdown()
        cluster.shutdown()
        sim.run()
        # The crowd passed: R restored, no inflated replicas, no leaked
        # extents — exactly what the teardown probe asserts.
        assert placement.replication == 1
        assert [b.invariant for b in monitor.check_teardown()] == []
        metrics = sim.obs.metrics
        assert (metrics.counter("cluster.replica_boosts").value
                == metrics.counter("cluster.replica_unboosts").value >= 1)

    def test_leaked_boost_is_a_teardown_breach(self, sim):
        cluster = make_cluster(sim, nodes=3, replication=1)
        tier = make_tier(sim, cluster)
        value = Blob(60_000)
        placement = cluster.place(value, key="v")
        monitor = InvariantMonitor(sim).arm(cluster=cluster, tier=tier)
        cluster.repair.boost(placement)
        breaches = monitor.check_teardown()
        assert any("leaked boost" in b.detail for b in breaches)
        cluster.repair.unboost(placement)

    def test_stale_cache_is_a_coherence_breach(self, sim):
        cluster = make_cluster(sim)
        tier = make_tier(sim, cluster)
        value = Blob(60_000)
        cluster.place(value, key="v")
        read_all(sim, tier.open_read(value, 6e6, label="r"))
        monitor = InvariantMonitor(sim).arm(cluster=cluster, tier=tier)
        assert monitor.check_now() == []
        # Bump the version behind the tier's back (no listener fired):
        # resident blocks now carry stale tags the probe must catch.
        cluster.placement_of(value).version += 1
        breaches = monitor.check_now()
        assert [b.invariant for b in breaches] == ["cache-coherence"]


class TestCacheScenarios:
    def test_zipf_crowd_caching_wins_and_is_deterministic(self):
        with scoped(tracing=False):
            cached = zipf_crowd(seed=3, sessions=300)
        with scoped(tracing=False):
            again = zipf_crowd(seed=3, sessions=300)
        with scoped(tracing=False):
            bare = zipf_crowd(seed=3, sessions=300, cached=False)
        assert cached == again  # same seed, same facts, same digest
        assert cached["goodput_mbps"] > bare["goodput_mbps"]
        assert cached["interactive_violations"] == 0
        assert cached["hit_ratio"] > 0.5
        assert cached["stranded_processes"] == 0
        assert cached["boosted_at_end"] == 0

    def test_churn_serves_no_stale_bytes(self):
        with scoped(tracing=False):
            facts = churn(seed=0)
        with scoped(tracing=False):
            again = churn(seed=0)
        assert facts == again
        assert facts["stale_tags"] == 0
        assert facts["wave_agreement"] is True
        assert facts["a_changed_after_bump"] is True
        assert facts["b_stable"] is True
        assert facts["edge_deaths"] == 1
        assert facts["stranded_processes"] == 0

    def test_policies_differ_but_stay_correct(self):
        with scoped(tracing=False):
            lru = zipf_crowd(seed=1, sessions=200, policy="lru")
        with scoped(tracing=False):
            gdsf = zipf_crowd(seed=1, sessions=200, policy="cost-aware")
        # Same workload, same content digests — policy changes *when*
        # blocks die, never what bytes a reader sees.
        assert lru["digest"] == gdsf["digest"]
        assert lru["interactive_violations"] == 0
        assert gdsf["interactive_violations"] == 0
