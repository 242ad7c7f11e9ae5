"""Scale-out cluster tier: hashing, placement, failover, repair, rebalance."""

import random
from collections import Counter as TallyCounter

import pytest

from repro.admission.controller import Priority, QoSContract
from repro.cluster import (
    ClusterPlacementManager,
    StorageNode,
    hashing,
)
from repro.cluster import node as node_module
from repro.cluster import repair as repair_module
from repro.cluster.scenarios import Blob, read_storm
from repro.errors import ClusterError, OutOfSpaceError, PlacementError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import scoped
from repro.sim import Delay


def make_cluster(sim, nodes, replication=2):
    cluster = ClusterPlacementManager(sim, replication=replication)
    for i in range(nodes):
        cluster.add_node(StorageNode(sim, f"node-{i}"))
    return cluster


class TestRendezvousHashing:
    def test_stable_and_distinct(self):
        nodes = [f"n{i}" for i in range(5)]
        for key in ("a", "b", "shard#0", "shard#1"):
            picked = hashing.top(key, nodes, 2)
            assert picked == hashing.top(key, nodes, 2)
            assert len(set(picked)) == 2
            assert hashing.rank(key, nodes)[:2] == picked

    def test_balance_across_keys(self):
        nodes = [f"n{i}" for i in range(5)]
        tally = TallyCounter(
            name for i in range(200)
            for name in hashing.top(f"key-{i}", nodes, 2)
        )
        assert set(tally) == set(nodes)  # every node carries load
        assert min(tally.values()) > 0.3 * max(tally.values())

    def test_minimal_reshuffle_on_join(self):
        nodes = [f"n{i}" for i in range(5)]
        grown = nodes + ["n5"]
        moved = 0
        for i in range(200):
            key = f"key-{i}"
            old = hashing.top(key, nodes, 2)
            new = hashing.top(key, grown, 2)
            if "n5" in new:
                moved += 1
            else:
                # Keys the new node does not claim keep their placement.
                assert new == old
        assert 0 < moved < 200


class TestClusterPlacement:
    def test_place_replicates_on_distinct_nodes(self, sim):
        cluster = make_cluster(sim, 4, replication=2)
        value = Blob(900_000)
        placement = cluster.place(value, key="v", shards=3)
        assert len(placement.shards) == 3
        for shard in placement.shards:
            assert len(shard.replicas) == 2
            assert shard.replicas.keys() == set(
                hashing.top(shard.key, [n.name for n in cluster.nodes], 2))
        used = sum(n.device.allocator.used_bytes for n in cluster.nodes)
        assert used == 2 * 900_000
        assert cluster.under_replicated() == []

    def test_place_rolls_back_on_out_of_space(self, sim, monkeypatch):
        monkeypatch.setattr(node_module, "CAPACITY_BYTES", 1000)
        cluster = make_cluster(sim, 2, replication=2)
        with pytest.raises(OutOfSpaceError):
            cluster.place(Blob(1100), key="big", shards=2)
        for node in cluster.nodes:
            assert node.device.allocator.used_bytes == 0

    def test_double_place_and_remove(self, sim):
        cluster = make_cluster(sim, 2, replication=2)
        value = Blob(1000)
        cluster.place(value, key="v")
        with pytest.raises(PlacementError):
            cluster.place(value, key="v2")

    def test_replication_needs_enough_nodes(self, sim):
        cluster = make_cluster(sim, 1, replication=1)
        with pytest.raises(ClusterError, match="replication 2"):
            cluster.place(Blob(1000), replication=2)

    def test_repeated_controls_are_no_ops(self, sim):
        cluster = make_cluster(sim, 2, replication=2)
        value = Blob(1000)
        placement = cluster.place(value, key="v")
        node = cluster.node("node-0")
        node.restore()              # live already
        node.kill()
        node.kill()                 # dead already
        assert node.deaths == 1
        cluster.repair.start()
        cluster.repair.start()      # running already
        assert cluster.repair.unboost(placement) == 2   # never boosted
        # One live node cannot hold more than the declared two.
        assert cluster.repair.boost(placement) == 2

    @pytest.mark.parametrize("nbytes, shards, sizes", [
        (9, 4, [3, 3, 3]), (5, 4, [2, 2, 1]), (7, 5, [2, 2, 2, 1])])
    def test_small_value_cut_into_many_shards(self, sim, nbytes, shards,
                                              sizes):
        # Regression: ceil-division used to cut an empty or negative last
        # shard here, and the allocator refused it.
        cluster = make_cluster(sim, 2, replication=1)
        placement = cluster.place(Blob(nbytes), key="v", shards=shards)
        assert [shard.nbytes for shard in placement.shards] == sizes
        for offset in range(nbytes):
            shard = placement.shard_at(offset)
            assert shard.offset <= offset < shard.end

    def test_shard_at_equals_a_linear_scan(self, sim):
        rng = random.Random(37)
        for _ in range(300):
            nbytes, shards = rng.randint(1, 500), rng.randint(1, 40)
            placement = make_cluster(sim, 1, replication=1).place(
                Blob(nbytes), key="v", shards=shards)
            assert all(shard.nbytes > 0 for shard in placement.shards)
            assert placement.shards[-1].end == nbytes
            for offset in {0, nbytes - 1, nbytes, nbytes + 7,
                           *(rng.randrange(nbytes) for _ in range(8))}:
                scanned = next((s for s in placement.shards
                                if s.offset <= offset < s.end),
                               placement.shards[-1])
                assert placement.shard_at(offset) is scanned


class TestClusterReads:
    def test_read_routes_to_least_loaded_replica(self, sim):
        cluster = make_cluster(sim, 2, replication=2)
        value = Blob(300_000)
        cluster.place(value, key="v")
        # Load node-0's NIC so routing prefers node-1.
        cluster.node("node-0").admission.try_admit(
            QoSContract(40_000_000.0, Priority.STANDARD), label="hog")
        stream = cluster.open_read(value, 6_000_000.0, label="probe")

        def client():
            yield from stream.read(240_000)

        sim.run_until_complete(sim.spawn(client(), name="client"))
        assert stream.serving_node == "node-1"
        stream.close()

    def test_routing_sees_live_disk_queue_not_flushed_metrics(self, sim):
        """Regression: replica scoring must read live queue depths.

        The old scorer ranked replicas by flush-batched channel metrics,
        which lag the first flush interval of a flash crowd — every
        arrival piled onto the same "idle-looking" node.  Jamming a disk
        queue directly (no metrics flush ever happens here) must be
        enough to steer the very next read away.
        """
        cluster = make_cluster(sim, 2, replication=2)
        value = Blob(300_000)
        cluster.place(value, key="v")
        jammed = cluster.node("node-0")
        jammed.scheduler.submit(0, 48_000_000)  # ~1 s of queued service
        assert jammed.load_key > cluster.node("node-1").load_key
        stream = cluster.open_read(value, 6_000_000.0, label="probe")

        def client():
            yield from stream.read(240_000)

        sim.run_until_complete(sim.spawn(client(), name="client"))
        assert stream.serving_node == "node-1"
        stream.close()

    def test_trim_defers_until_reader_detaches(self, sim):
        """Regression: a trim never frees a replica under a live reader.

        Boost copies a second replica, the reader re-routes onto it,
        and the unboost-triggered trim must park until the reader
        closes — then reclaim exactly that replica, with the deferral
        and the trim both on the ledger and zero failovers.
        """
        cluster = make_cluster(sim, 3, replication=1)
        cluster.repair.start()
        value = Blob(240_000)
        placement = cluster.place(value, key="v")
        shard = placement.shards[0]
        (origin,) = shard.replicas
        cluster.repair.boost(placement)
        sim.run()  # boost copy completes; two live replicas now
        boosted = [n for n in shard.replicas if n != origin]
        assert boosted, "boost must have added a replica"
        # Jam the origin so routing attaches the reader to the copy.
        cluster.node(origin).scheduler.submit(0, 48_000_000)
        stream = cluster.open_read(value, 6_000_000.0, label="viewer")
        states = {}

        def client():
            yield from stream.read(240_000)
            states["serving"] = stream.serving_node
            yield Delay(0.2)  # hold the replica across the unboost
            yield from stream.read(240_000)
            states["replicas_while_open"] = sorted(shard.replicas)
            stream.close()

        def control():
            yield Delay(0.05)
            cluster.repair.unboost(placement)

        sim.spawn(client(), name="client")
        sim.spawn(control(), name="control")
        sim.run()
        metrics = sim.obs.metrics
        assert states["serving"] == boosted[0]
        # The trim ran while the reader was attached — and deferred.
        assert metrics.counter("cluster.trim_deferred").value == 1
        assert states["replicas_while_open"] == sorted([origin, boosted[0]])
        # The reader was never yanked off its replica...
        assert stream.failovers == 0 and cluster.failovers == 0
        assert stream.bits_read == 480_000
        # ...and the close released the trim: surplus reclaimed.
        assert sorted(shard.replicas) == [origin]
        assert metrics.counter("cluster.trimmed").value == 1
        assert cluster.over_replicated() == []

    def test_failover_mid_stream(self, sim):
        cluster = make_cluster(sim, 3, replication=2)
        value = Blob(600_000)
        cluster.place(value, key="v")
        stream = cluster.open_read(value, 6_000_000.0, label="viewer")
        finished = []

        def client():
            for _ in range(4):
                yield from stream.read(1_200_000)
            finished.append(stream.bits_read)

        def killer():
            # Jam the serving node's disk with a long competing transfer
            # so the stream's next request sits *queued* when the node
            # dies: stop() fails queued requests (an in-flight transfer
            # always completes), which exercises the retry failover path.
            yield Delay(0.01)
            victim = cluster.node(stream.serving_node)
            victim.scheduler.submit(0, 48_000_000)  # ~1 s of service
            yield Delay(0.05)
            victim.kill()

        sim.spawn(client(), name="client")
        sim.spawn(killer(), name="killer")
        sim.run()
        assert finished == [600_000 * 8]
        assert stream.failovers == 1
        assert cluster.failovers == 1
        metrics = sim.obs.metrics
        assert metrics.counter("cluster.failovers").value == 1
        assert metrics.counter("faults.retries").value >= 1

    def test_striped_value_survives_node_kill_with_consistent_counters(
            self, sim):
        """Satellite: kill a node while a striped value streams from it."""
        cluster = make_cluster(sim, 4, replication=2)
        value = Blob(1_200_000)
        placement = cluster.place(value, key="striped", shards=3)
        victim = cluster._route(placement.shards[0])[0].name
        plan = FaultPlan(seed=1).node_outage(victim, at=0.05)
        injector = FaultInjector(sim, plan).arm(nodes=cluster.nodes)
        stream = cluster.open_read(value, 6_000_000.0, label="viewer",
                                   queue_timeout_s=0.5)
        finished = []

        def client():
            total = 1_200_000 * 8
            while stream.bits_read < total:
                yield from stream.read(240_000)
            finished.append(stream.bits_read)

        sim.spawn(client(), name="client")
        sim.run()
        # The stream completed entirely from surviving replicas...
        assert finished == [1_200_000 * 8]
        assert stream.failovers >= 1
        # ...and the fault and cluster ledgers agree.
        metrics = sim.obs.metrics
        assert injector.injected == 1
        assert metrics.counter("faults.injected").value == 1
        assert (metrics.counter("cluster.failovers").value
                == cluster.failovers == stream.failovers)
        assert metrics.counter("cluster.node_deaths").value == 1
        assert [s for s in placement.shards
                if victim in s.replicas]  # dead replicas tracked, not lost

    def test_read_past_end_rejected(self, sim):
        cluster = make_cluster(sim, 2, replication=1)
        value = Blob(1000)
        cluster.place(value, key="v")
        stream = cluster.open_read(value, 1e6, label="s")

        def client():
            yield from stream.read(9000)

        proc = sim.spawn(client(), name="client")
        with pytest.raises(ClusterError, match="past end"):
            sim.run_until_complete(proc)


class TestRepair:
    def test_repair_restores_replication_under_cap(self, sim, monkeypatch):
        cap = 8_000_000.0
        monkeypatch.setattr(repair_module, "CAP_BPS", cap)
        cluster = make_cluster(sim, 3, replication=2)
        values = [Blob(300_000) for _ in range(4)]  # held: keyed by id()
        for i, value in enumerate(values):
            cluster.place(value, key=f"v{i}")
        lost_shards = [s for p in cluster.placements for s in p.shards
                       if "node-0" in s.replicas]
        assert lost_shards  # the kill must actually cost replicas
        cluster.repair.start()

        def killer():
            yield Delay(0.01)
            cluster.node("node-0").kill()

        sim.spawn(killer(), name="killer")
        sim.run()
        assert cluster.under_replicated() == []
        assert cluster.repair.repairs == len(lost_shards)
        repaired_bits = sum(s.nbytes * 8 for s in lost_shards)
        assert cluster.repair.repaired_bits == repaired_bits
        # Sequential background copies at <= cap: elapsed >= bits/cap.
        assert sim.now.seconds - 0.01 >= repaired_bits / cap * 0.99
        metrics = sim.obs.metrics
        assert metrics.counter("cluster.repairs").value == len(lost_shards)
        assert metrics.gauge("cluster.under_replicated").value == 0

    def test_restore_trims_surplus_replicas(self, sim):
        cluster = make_cluster(sim, 3, replication=2)
        values = [Blob(200_000) for _ in range(3)]
        for i, value in enumerate(values):
            cluster.place(value, key=f"v{i}")
        cluster.repair.start()

        def script():
            yield Delay(0.01)
            cluster.node("node-0").kill()
            yield Delay(2.0)   # repair finishes well before this
            cluster.node("node-0").restore()

        sim.spawn(script(), name="script")
        sim.run()
        for placement in cluster.placements:
            for shard in placement.shards:
                assert len(cluster.live_replicas(shard)) == placement.replication
        assert cluster.over_replicated() == []
        assert sim.obs.metrics.counter("cluster.trimmed").value > 0

    def test_rebalance_moves_shards_to_joined_node(self, sim):
        cluster = make_cluster(sim, 3, replication=2)
        values = [Blob(200_000) for _ in range(8)]
        for i, value in enumerate(values):
            cluster.place(value, key=f"v{i}")
        cluster.add_node(StorageNode(sim, "node-3"))
        proc = sim.spawn(cluster.repair.rebalance(), name="rebalance")
        sim.run_until_complete(proc)
        moved = proc.result
        assert moved > 0
        names = [n.name for n in cluster.nodes]
        on_new = 0
        for placement in cluster.placements:
            for shard in placement.shards:
                # Post-rebalance placement is exactly the rendezvous top-R.
                assert sorted(shard.replicas) == sorted(
                    hashing.top(shard.key, names, placement.replication))
                on_new += int("node-3" in shard.replicas)
        assert on_new == moved
        assert cluster.under_replicated() == []


class TestNodeOutageFaultKind:
    def test_outage_window_kills_then_restores(self, sim):
        cluster = make_cluster(sim, 2, replication=1)
        plan = FaultPlan().node_outage("node-0", at=0.1, duration=0.5)
        injector = FaultInjector(sim, plan).arm(nodes=cluster.nodes)
        states = {}

        def probe():
            yield Delay(0.2)
            states["during"] = cluster.node("node-0").available
            yield Delay(0.5)
            states["after"] = cluster.node("node-0").available

        sim.spawn(probe(), name="probe")
        sim.run()
        assert states == {"during": False, "after": True}
        assert injector.injected == 1
        assert injector.log[0][1] == "node-outage"

    def test_plan_builder_validates_kind(self):
        plan = FaultPlan().node_outage("n", at=1.0, duration=2.0)
        assert plan.faults[0].kind == "node-outage"


class TestClusterScenarios:
    def test_read_storm_deterministic_and_scales(self):
        with scoped(tracing=False):
            one = read_storm(seed=2, nodes=1)
        with scoped(tracing=False):
            four = read_storm(seed=2, nodes=4)
        with scoped(tracing=False):
            again = read_storm(seed=2, nodes=4)
        assert four == again
        assert four["throughput_mbps"] > 1.7 * one["throughput_mbps"]
        assert one["streams_completed"] == four["streams_completed"] == 16
        assert one["stranded_processes"] == four["stranded_processes"] == 0
