"""Named cluster scenarios for the ``python -m repro cluster`` CLI.

Same conventions as the fault and overload scenario registries: every
scenario builds a fresh simulator inside the caller's ambient
observability scope, is fully determined by ``(seed, nodes)``, runs in
virtual time, and returns a flat dict of headline facts.

* ``read-storm`` — a fixed read workload (16 unpaced streams over 8
  values) against an N-node cluster; the headline fact is aggregate
  read throughput, which the scaling benchmark compares across N.
* ``node-kill`` — 12 paced (25 elements/s) streams at R=2 while a
  fault plan kills a node mid-stream; in-flight reads fail over to
  surviving replicas and background repair restores R under its cap.
* ``rebalance`` — a loaded 3-node cluster gains a fourth node;
  ``rebalance()`` moves the rendezvous-desired shards over (capped,
  background) and trims the surplus replicas.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict

from repro.admission.controller import Priority
from repro.obs import facts_line
from repro.sim import Delay, Simulator


class Blob:
    """A minimal stored value: a size.

    Cluster scenarios shard synthetic values by size; nothing below the
    placement layer cares about media semantics, so this stands in for a
    :class:`~repro.values.base.MediaValue` (duck-typed: the placement
    manager only calls ``data_size_bits``).
    """

    def __init__(self, nbytes: int) -> None:
        self._nbytes = nbytes

    def data_size_bits(self) -> int:
        return self._nbytes * 8


def _build_cluster(sim: Simulator, nodes: int, replication: int):
    from repro.cluster.node import StorageNode
    from repro.cluster.placement import ClusterPlacementManager

    cluster = ClusterPlacementManager(sim, replication=min(replication, nodes))
    for i in range(nodes):
        cluster.add_node(StorageNode(sim, f"node-{i}"))
    return cluster


def _drain(sim: Simulator, cluster) -> None:
    """Stop node servers and the repair worker so the run fully drains."""
    cluster.shutdown()
    sim.run()


def read_storm(seed: int = 0, nodes: int = 4) -> Dict[str, object]:
    """A fixed unpaced read workload; throughput scales with nodes.

    The workload (streams, values, bytes) does not depend on ``nodes``,
    so running it at 1 and 4 nodes measures scale-out directly.
    """
    element_bits = 240_000
    elements = 30
    streams = 16
    values_count = 8
    stream_bps = 6_000_000.0

    sim = Simulator()
    cluster = _build_cluster(sim, nodes, replication=2)
    rng = random.Random(seed)
    values = [Blob(elements * element_bits // 8)
              for _ in range(values_count)]
    for value in values:
        cluster.place(value)
    arrivals = [rng.uniform(0.0, 0.02) for _ in range(streams)]
    done_bits = [0] * streams
    done_at = [0.0] * streams

    def client(idx: int):
        yield Delay(arrivals[idx])
        stream = cluster.open_read(
            values[idx % values_count], stream_bps,
            label=f"storm-{idx}", priority=Priority.STANDARD,
            queue_timeout_s=10.0)
        with stream:
            for _ in range(elements):
                yield from stream.read(element_bits)
            done_bits[idx] = stream.bits_read
            done_at[idx] = sim.now_s

    for idx in range(streams):
        sim.spawn(client(idx), name=f"storm-client-{idx}")
    end = sim.run()
    total_bits = sum(done_bits)
    # Throughput over the last client's finish, not the drain time: a
    # queued admission leaves a stale Timeout timer in the heap that
    # advances the clock long after the work is done.
    finished = max(done_at) if any(done_at) else end.seconds
    _drain(sim, cluster)
    return {
        "nodes": nodes,
        "streams": streams,
        "streams_completed": sum(1 for bits in done_bits if bits > 0),
        "total_megabits": round(total_bits / 1e6, 3),
        "throughput_mbps": round(total_bits / finished / 1e6, 2),
        "failovers": cluster.failovers,
        "last_finish_s": round(finished, 3),
        "virtual_seconds": round(end.seconds, 3),
        "stranded_processes": sim.live_processes,
    }


def node_kill(seed: int = 0, nodes: int = 4) -> Dict[str, object]:
    """Kill a node under 12 paced streams at R=2; fail over and repair.

    A stream's element is "on time" when it completes within one period
    of its ideal presentation instant (the client holds one period of
    buffer); the benchmark gates that failover costs zero such
    violations.
    """
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

    element_bits = 240_000
    elements = 40
    period_s = 0.04
    streams = 12
    values_count = 8
    stream_bps = element_bits / period_s
    kill_at = 0.4
    victim = "node-1"

    sim = Simulator()
    cluster = _build_cluster(sim, nodes, replication=2)
    rng = random.Random(seed)
    values = [Blob(elements * element_bits // 8)
              for _ in range(values_count)]
    for value in values:
        cluster.place(value)
    arrivals = [rng.uniform(0.0, 0.02) for _ in range(streams)]
    delivered = [0] * streams
    violations = [0] * streams

    def client(idx: int):
        yield Delay(arrivals[idx])
        stream = cluster.open_read(
            values[idx % values_count], stream_bps,
            label=f"viewer-{idx}", priority=Priority.STANDARD,
            queue_timeout_s=1.0)
        with stream:
            start = sim.now_s
            for n in range(elements):
                ideal = start + n * period_s
                now = sim.now_s
                if now < ideal:
                    yield Delay(ideal - now)
                yield from stream.read(element_bits,
                                       deadline=ideal + period_s)
                if sim.now_s > ideal + period_s + 1e-9:
                    violations[idx] += 1
                delivered[idx] += 1

    plan = FaultPlan(seed=seed).node_outage(victim, at=kill_at)
    injector = FaultInjector(sim, plan).arm(nodes=cluster.nodes)
    cluster.repair.start()
    for idx in range(streams):
        sim.spawn(client(idx), name=f"viewer-{idx}")
    end = sim.run()
    under = len(cluster.under_replicated())
    _drain(sim, cluster)
    return {
        "nodes": nodes,
        "streams": streams,
        "delivered_elements": sum(delivered),
        "qos_violations": sum(violations),
        "failovers": cluster.failovers,
        "faults_injected": injector.injected,
        "node_deaths": sum(node.deaths for node in cluster.nodes),
        "repairs": cluster.repair.repairs,
        "repair_megabits": round(cluster.repair.repaired_bits / 1e6, 3),
        "under_replicated": under,
        "virtual_seconds": round(end.seconds, 3),
        "stranded_processes": sim.live_processes,
    }


def rebalance(seed: int = 0, nodes: int = 3) -> Dict[str, object]:
    """Join a node to a loaded cluster and rebalance onto it."""
    element_bits = 240_000
    elements = 20
    values_count = 12
    stream_bps = 6_000_000.0

    sim = Simulator()
    cluster = _build_cluster(sim, nodes, replication=2)
    rng = random.Random(seed)
    values = [Blob(elements * element_bits // 8)
              for _ in range(values_count)]
    for value in values:
        cluster.place(value, shards=2)

    def replica_counts() -> Dict[str, int]:
        counts = {node.name: 0 for node in cluster.nodes}
        for placement in cluster.placements:
            for shard in placement.shards:
                for name in shard.replicas:
                    counts[name] = counts.get(name, 0) + 1
        return counts

    before = replica_counts()
    # A couple of paced readers keep running across the join, showing
    # rebalance traffic rides the background class under them.
    violations = [0, 0]
    offsets = [rng.uniform(0.0, 0.02) for _ in range(2)]

    def reader(idx: int):
        yield Delay(offsets[idx])
        stream = cluster.open_read(
            values[idx], stream_bps, label=f"reader-{idx}",
            priority=Priority.INTERACTIVE, queue_timeout_s=1.0)
        with stream:
            start = sim.now_s
            for n in range(elements):
                ideal = start + n * 0.04
                now = sim.now_s
                if now < ideal:
                    yield Delay(ideal - now)
                yield from stream.read(element_bits)
                if sim.now_s > ideal + 0.04 + 1e-9:
                    violations[idx] += 1

    from repro.cluster.node import StorageNode

    moved = [0]

    def join_and_rebalance():
        yield Delay(0.1)
        cluster.add_node(StorageNode(sim, f"node-{nodes}"))
        moved[0] = yield from cluster.repair.rebalance()

    for idx in range(2):
        sim.spawn(reader(idx), name=f"reader-{idx}")
    sim.spawn(join_and_rebalance(), name="join-rebalance")
    end = sim.run()
    after = replica_counts()
    joined = after.get(f"node-{nodes}", 0)
    under = len(cluster.under_replicated())
    _drain(sim, cluster)
    return {
        "nodes_before": nodes,
        "nodes_after": nodes + 1,
        "moved_shards": moved[0],
        "replicas_on_new_node": joined,
        "max_replicas_before": max(before.values()),
        "max_replicas_after": max(after.values()),
        "reader_qos_violations": sum(violations),
        "under_replicated": under,
        "virtual_seconds": round(end.seconds, 3),
        "stranded_processes": sim.live_processes,
    }


SCENARIOS: Dict[str, object] = {
    "read-storm": read_storm,
    "node-kill": node_kill,
    "rebalance": rebalance,
}


#: ``summary_line(name, facts)``: one deterministic line per run.
summary_line = partial(facts_line, "cluster")
