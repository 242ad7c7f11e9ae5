"""Named supervision scenarios for ``python -m repro watch``.

Same conventions as the fault/overload/cluster registries: every
scenario builds a fresh simulator inside the caller's ambient
observability scope, is fully determined by its arguments, runs in
virtual time, and returns a flat dict of headline facts.

* ``leak`` — the seeded-bug demo: a debug flag makes reservations
  "forget" to return their bandwidth mid-run; the watchdog's
  reservation-conservation probe catches the leak on its next cadence
  tick, dumps a postmortem bundle, and fails the run fast.
* ``node-kill`` — the cluster failover scenario supervised end-to-end:
  invariants armed over every node, paced viewers riding out a node
  outage via degraded failover admission, and a causal explain chain
  for one failed-over viewer in the facts.
* ``slo-burn`` — a priority-mix overload evaluated against the SLO
  catalog on a virtual-time cadence; the facts report worst error-budget
  burn per SLO class.
* ``cache-crowd`` — a Zipf flash crowd served through the cache tier
  under full supervision: the cache-coherence invariant and the
  boost-restore law (replication back at declared R by teardown) are
  proven by the monitor, and the fleet-wide hit-ratio SLO is evaluated
  on the cadence.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, Optional

from repro.admission.controller import AdmissionController, Priority, QoSContract
from repro.errors import (
    AdmissionError,
    AdmissionTimeoutError,
    InvariantBreachError,
    PreemptedError,
)
from repro.net.channel import Channel
from repro.obs import facts_line
from repro.sim import Delay, Simulator
from repro.watch.recorder import FlightRecorder
from repro.watch.slo import SLOSpec, default_slos
from repro.watch.watchdog import Watchdog


def leak(seed: int = 0, bundle_dir: Optional[str] = None) -> Dict[str, object]:
    """Catch a seeded bandwidth leak mid-run via invariant monitoring.

    Eight clients cycle through reserve -> stream -> release on one
    trunk.  At t=0.3 the channel's ``debug_leak_releases`` flag is
    switched on, so every release after that marks the reservation
    released but leaves it registered — exactly the bookkeeping bug the
    reservation-conservation probe exists for.  The watchdog catches it
    on the next 50 ms tick, writes a postmortem bundle, and aborts the
    run with :class:`~repro.errors.InvariantBreachError`.
    """
    sim = Simulator()
    trunk = Channel(sim, capacity_bps=10_000_000.0, name="trunk")
    controller = AdmissionController(sim, trunk, max_queue=8)
    rng = random.Random(seed)
    stream_bps, element_bits = 1_500_000.0, 150_000
    arrivals = [round(0.05 * i + rng.uniform(0.0, 0.02), 6) for i in range(8)]
    completed = [0]

    def client(idx: int):
        yield Delay(arrivals[idx])
        contract = QoSContract(stream_bps, Priority.STANDARD,
                               min_fraction=0.5, queue_timeout_s=1.0)
        try:
            reservation = yield from controller.admit(contract,
                                                      label=f"leaky-{idx}")
        except AdmissionError:
            return
        with reservation:
            for _ in range(4):
                yield from reservation.serialize(element_bits)
        completed[0] += 1

    def saboteur():
        # The seeded bug: from t=0.3 on, releases leak their bandwidth.
        yield Delay(0.3)
        trunk.debug_leak_releases = True

    dog = Watchdog(sim, slos=default_slos(), bundle_dir=bundle_dir)
    dog.arm(channels=[trunk], controllers=[controller],
            channels_complete=True)
    dog.start(cadence_s=0.05, horizon_s=2.0)
    for idx in range(8):
        sim.spawn(client(idx), name=f"leaky-{idx}")
    sim.spawn(saboteur(), name="saboteur")
    caught: Optional[InvariantBreachError] = None
    try:
        sim.run()
    except InvariantBreachError as exc:
        caught = exc
    breach = dog.monitor.breaches[0] if dog.monitor.breaches else None
    bundle = dog.recorder.bundles[0] if dog.recorder.bundles else None
    return {
        "caught": caught is not None,
        "breach_invariant": breach.invariant if breach else None,
        "breach_component": breach.component if breach else None,
        "breach_at_s": round(breach.at_s, 3) if breach else None,
        "leaked_reservations": (len(breach.evidence.get("leaked", []))
                                if breach else 0),
        "clients_completed": completed[0],
        "watchdog_ticks": dog.ticks,
        "bundle_sha256": (FlightRecorder.sha256(bundle)
                          if bundle is not None else None),
        "bundles_written": len(dog.bundle_paths),
    }


def node_kill(seed: int = 0, nodes: int = 4,
              bundle_dir: Optional[str] = None) -> Dict[str, object]:
    """Supervised cluster failover with degraded re-admission.

    The cluster node-kill workload, but with tighter NICs (20 Mb/s) and
    a degraded-service floor (``min_fraction=0.25``) so the viewers that
    fail over from the killed node land on congested survivors at
    reduced rate instead of being refused — producing the full causal
    chain (node-down -> retry -> degrade -> failover) the explain CLI
    reconstructs.  The watchdog supervises every node's NIC, controller
    and allocator plus cluster replication; the node is restored at
    t=1.2 so the teardown audit sees replication whole again.
    """
    from repro.cluster.scenarios import Blob, _drain
    from repro.cluster.node import StorageNode
    from repro.cluster.placement import ClusterPlacementManager
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

    element_bits = 240_000
    elements = 30
    period_s = 0.04
    streams = 12
    values_count = 8
    stream_bps = element_bits / period_s
    kill_at, restore_after = 0.4, 0.8
    victim = "node-1"

    sim = Simulator()
    cluster = ClusterPlacementManager(sim, replication=min(2, nodes))
    for i in range(nodes):
        cluster.add_node(StorageNode(sim, f"node-{i}",
                                     bandwidth_bps=20_000_000.0))
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
            queue_timeout_s=1.0, min_fraction=0.25)
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

    dog = Watchdog(sim, slos=default_slos(nodes_floor=1.0),
                   bundle_dir=bundle_dir)
    dog.arm(cluster=cluster, channels_complete=True)
    dog.start(cadence_s=0.05, horizon_s=2.5)
    plan = FaultPlan(seed=seed).node_outage(victim, at=kill_at,
                                            duration=restore_after)
    injector = FaultInjector(sim, plan).arm(nodes=cluster.nodes)
    cluster.repair.start()
    for idx in range(streams):
        sim.spawn(client(idx), name=f"viewer-{idx}")
    end = sim.run()
    _drain(sim, cluster)
    report = dog.teardown()
    decisions = sim.obs.decisions
    failed_over = sorted({e.subject for e in decisions.by_kind("failover")})
    degraded = sorted({e.subject for e in decisions.by_kind("degrade")})
    explained = failed_over[0] if failed_over else None
    chain_kinds = ([e.kind for e in decisions.chain(explained)]
                   if explained else [])
    return {
        "nodes": nodes,
        "streams": streams,
        "delivered_elements": sum(delivered),
        "qos_violations": sum(violations),
        "failovers": cluster.failovers,
        "faults_injected": injector.injected,
        "failed_over_sessions": len(failed_over),
        "degraded_sessions": len(degraded),
        "explained_session": explained,
        "explained_chain": "->".join(chain_kinds),
        "invariant_checks": dog.monitor.checks,
        "invariant_breaches": len(dog.monitor.breaches),
        "burn_by_class": report["burn_by_class"],
        "slos_violated": ",".join(report["violated"]) or "none",
        "virtual_seconds": round(end.seconds, 3),
        "stranded_processes": sim.live_processes,
    }


def slo_burn(seed: int = 0,
             bundle_dir: Optional[str] = None) -> Dict[str, object]:
    """Error-budget burn under a priority-mix overload.

    Three background streams fill a 3-stream trunk, then interactive
    and standard requests contend for it.  The watchdog evaluates the
    SLO catalog every 50 ms of virtual time; the facts report the worst
    burn per SLO class, making "how close to the edge did this run get"
    a first-class scenario output.
    """
    del seed  # arrivals are scripted, not drawn
    sim = Simulator()
    stream_bps, element_bits, elements = 2_000_000.0, 200_000, 20
    trunk = Channel(sim, capacity_bps=3 * stream_bps, name="trunk")
    controller = AdmissionController(sim, trunk, max_queue=8)
    stats = {"admitted": 0, "timeouts": 0, "preempted": 0, "completed": 0}

    def client(name: str, arrival_s: float, priority: Priority,
               min_fraction: float, timeout_s: float):
        if arrival_s > sim.now_s:
            yield Delay(arrival_s - sim.now_s)
        contract = QoSContract(stream_bps, priority, min_fraction, timeout_s)
        try:
            reservation = yield from controller.admit(contract, label=name)
        except AdmissionTimeoutError:
            stats["timeouts"] += 1
            return
        except AdmissionError:
            return
        stats["admitted"] += 1
        start = sim.now_s
        period = element_bits / reservation.bps
        try:
            with reservation:
                for i in range(elements):
                    ideal = start + i * period
                    if ideal > sim.now_s:
                        yield Delay(ideal - sim.now_s)
                    yield from reservation.serialize(element_bits)
        except PreemptedError:
            stats["preempted"] += 1
            return
        stats["completed"] += 1

    slos = list(default_slos(startup_p95_s=0.1)) + [
        SLOSpec("shed-ceiling", "counter-max", "admission.shed", 6,
                klass="capacity",
                description="background work shed under overload"),
        SLOSpec("timeout-ceiling", "counter-max", "admission.timeouts", 2,
                klass="latency",
                description="admission queue deadline expiries"),
    ]
    dog = Watchdog(sim, slos=slos, bundle_dir=bundle_dir)
    dog.arm(channels=[trunk], controllers=[controller],
            channels_complete=True)
    dog.start(cadence_s=0.05, horizon_s=3.0)
    sim.spawn(client("bg-0", 0.000, Priority.BACKGROUND, 0.25, 3.0))
    sim.spawn(client("bg-1", 0.005, Priority.BACKGROUND, 0.25, 3.0))
    sim.spawn(client("bg-2", 0.010, Priority.BACKGROUND, 0.25, 3.0))
    sim.spawn(client("std-0", 0.200, Priority.STANDARD, 0.5, 2.5))
    sim.spawn(client("int-0", 0.500, Priority.INTERACTIVE, 1.0, 0.3))
    sim.spawn(client("int-1", 0.550, Priority.INTERACTIVE, 1.0, 0.3))
    end = sim.run()
    report = dog.teardown()
    burn = report["burn_by_class"]
    return {
        **stats,
        "slo_count": len(slos),
        "burn_by_class": burn,
        "worst_burn": max(burn.values()) if burn else 0.0,
        "slos_violated": ",".join(report["violated"]) or "none",
        "hard_failed": ",".join(report["hard_failed"]) or "none",
        "watchdog_ticks": dog.ticks,
        "virtual_seconds": round(end.seconds, 4),
        "stranded_processes": sim.live_processes,
    }


def cache_crowd(seed: int = 0,
                bundle_dir: Optional[str] = None) -> Dict[str, object]:
    """A supervised Zipf flash crowd through the cache tier.

    A scaled-down ``cache zipf-crowd`` (600 sessions) with the watchdog
    armed over the cluster *and* the tier: every edge NIC/controller
    joins the reservation/consistency probes, the cache-coherence probe
    re-derives version agreement on each 50 ms tick, and teardown
    additionally proves the flash-crowd boost was fully unwound —
    replication back at declared R, no over-replicated shards.  The
    hit-ratio SLO (floor 0.8, as a miss-ratio ceiling) is part of the
    evaluated catalog.
    """
    from repro.cache.scenarios import ELEMENT_BITS, PERIOD_S
    from repro.cache.tier import CacheTier
    from repro.cluster.scenarios import Blob, _build_cluster
    from repro.errors import CacheError, ClusterError, FaultError

    sessions = 600
    elements = 8
    values_count = 12
    viral_share = 0.6
    arrival_window_s = 1.2
    stream_bps = ELEMENT_BITS / PERIOD_S

    sim = Simulator()
    cluster = _build_cluster(sim, 4, replication=2)
    rng = random.Random(seed)
    values = [Blob(elements * ELEMENT_BITS // 8)
              for _ in range(values_count)]
    for value in values:
        cluster.place(value)
    cluster.repair.start()
    tier = CacheTier(sim, cluster, edges=2,
                     edge_bandwidth_bps=320_000_000.0, hot_threshold=40)

    weights = [1.0 / rank for rank in range(1, values_count)]
    plans = []
    for _ in range(sessions):
        arrival = rng.uniform(0.0, arrival_window_s)
        if rng.random() < viral_share:
            asset = 0
        else:
            asset = rng.choices(range(1, values_count), weights=weights)[0]
        plans.append((arrival, asset))
    completed = [0]
    failed = [0]

    def session(idx: int):
        arrival, asset = plans[idx]
        yield Delay(arrival)
        stream = tier.open_read(values[asset], stream_bps,
                                label=f"crowd-{idx}",
                                priority=Priority.STANDARD,
                                queue_timeout_s=1.0)
        with stream:
            try:
                for _ in range(elements):
                    yield from stream.read(ELEMENT_BITS)
            except (AdmissionError, FaultError, ClusterError, CacheError):
                failed[0] += 1
                return
        completed[0] += 1

    # Startup budget is crowd-sized: a viewer may buffer behind the
    # admission queue for most of its 1 s timeout before its first
    # element, and that is buffering, not a glitch.
    dog = Watchdog(sim, slos=default_slos(startup_p95_s=0.75,
                                          nodes_floor=1.0,
                                          cache_hit_floor=0.8),
                   bundle_dir=bundle_dir)
    dog.arm(cluster=cluster, tier=tier, channels_complete=True)
    dog.start(cadence_s=0.05, horizon_s=4.0)
    for idx in range(sessions):
        sim.spawn(session(idx), name=f"crowd-{idx}")
    end = sim.run()
    tier.shutdown()
    cluster.shutdown()
    sim.run()
    report = dog.teardown()
    metrics = sim.obs.metrics
    metrics.flush()

    def count(name: str) -> int:
        instrument = metrics.get(name)
        return int(getattr(instrument, "value", 0) or 0)

    lookups = count("cache.lookups")
    decisions = sim.obs.decisions
    # First occurrence of each lifecycle kind, in emission order — a
    # healthy run reads hot -> boost -> cool -> unboost.
    hot_chain: List[str] = []
    for event in decisions.events:
        if event.kind in ("cache-hot", "replica-boost",
                          "cache-cool", "replica-unboost") \
                and event.kind not in hot_chain:
            hot_chain.append(event.kind)
    return {
        "sessions": sessions,
        "completed": completed[0],
        "failed": failed[0],
        "hit_ratio": (round(count("cache.hits") / lookups, 3)
                      if lookups else 0.0),
        "hot_episodes": count("cache.hot_episodes"),
        "replica_boosts": count("cluster.replica_boosts"),
        "replica_unboosts": count("cluster.replica_unboosts"),
        "boost_chain": "->".join(hot_chain[:4]),
        "boosted_at_teardown": sum(
            1 for p in cluster.placements
            if p.replication != p.declared_replication),
        "invariant_checks": dog.monitor.checks,
        "invariant_breaches": len(dog.monitor.breaches),
        "burn_by_class": report["burn_by_class"],
        "slos_violated": ",".join(report["violated"]) or "none",
        "virtual_seconds": round(end.seconds, 3),
        "stranded_processes": sim.live_processes,
    }


SCENARIOS: Dict[str, object] = {
    "leak": leak,
    "node-kill": node_kill,
    "slo-burn": slo_burn,
    "cache-crowd": cache_crowd,
}


#: ``summary_line(name, facts)``: one deterministic line per run.
summary_line = partial(facts_line, "watch")
