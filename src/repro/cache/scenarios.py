"""Named cache scenarios for the ``python -m repro cache`` CLI.

Same conventions as the cluster/fault/overload registries: fresh
simulator inside the ambient observability scope, fully determined by
``(seed, knobs)``, virtual time only, flat dict of headline facts.

* ``zipf-crowd`` — thousands of short viewing sessions arrive over a
  couple of (virtual) seconds with Zipf-skewed asset choice and one
  viral asset taking the bulk; with the cache tier the crowd is served
  from edge memory (hot detection boosts replication and prefills the
  edges in the background), without it every read lands on the viral
  asset's R replicas.  ``cached=False`` runs the identical workload
  straight against the cluster — the benchmark's ≥3x goodput gate
  compares the two.
* ``churn`` — warms the caches, bumps the authoritative version of one
  value mid-run (every cache invalidates eagerly; reads switch to the
  new version's bytes), and kills an edge under load (readers degrade
  to pass-through, then re-attach).  The headline facts are coherence:
  no cache ends the run holding a stale version tag.

Both scenarios fold every stream's content digest into one scenario
digest, so rerun determinism — and byte-identity of what was served —
is a printed fact, diffable in CI.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial
from typing import Dict, List

from repro.admission.controller import Priority
from repro.cluster.scenarios import Blob, _build_cluster
from repro.errors import AdmissionError, CacheError, ClusterError, FaultError
from repro.obs import facts_line
from repro.sim import Delay, Simulator
from repro.synth.arrivals import uniform_arrival, zipf_pick, zipf_weights

ELEMENT_BITS = 240_000
PERIOD_S = 0.04


def _drain(sim: Simulator, cluster, tier) -> None:
    """Stop tier workers, node servers and repair; run to empty heap."""
    if tier is not None:
        tier.shutdown()
    cluster.shutdown()
    sim.run()


def _scenario_digest(digests: List[str]) -> str:
    folded = hashlib.sha256()
    for digest in sorted(digests):
        folded.update(digest.encode())
    return folded.hexdigest()


def zipf_crowd(seed: int = 0, nodes: int = 4, cached: bool = True,
               sessions: int = 2000, edges: int = 3,
               policy: str = "lru",
               edge_capacity_bytes: int = 60_000_000) -> Dict[str, object]:
    """A seeded Zipf flash crowd: one viral asset, thousands of viewers.

    Each session streams 8 elements of one asset: element 0 is startup
    (unpaced — admission queueing is buffering, not a glitch), elements
    1..7 are paced one period apart and are "on time" when they complete
    within a period of their ideal instant.  Goodput is on-time bits
    over the crowd's makespan.  The benchmark gates the cached/cache-less
    goodput ratio and zero violations for admitted INTERACTIVE sessions.
    """
    elements = 8
    viral_share = 0.6
    interactive_share = 0.15
    arrival_window_s = 2.0
    stream_bps = ELEMENT_BITS / PERIOD_S
    values_count = 12

    sim = Simulator()
    cluster = _build_cluster(sim, nodes, replication=2)
    rng = random.Random(seed)
    asset_bytes = elements * ELEMENT_BITS // 8
    values = [Blob(asset_bytes) for _ in range(values_count)]
    for value in values:
        cluster.place(value)
    cluster.repair.start()
    tier = None
    open_read = cluster.open_read
    if cached:
        from repro.cache.tier import CacheTier
        tier = CacheTier(sim, cluster, edges=edges, policy=policy,
                         edge_bandwidth_bps=320_000_000.0,
                         edge_capacity_bytes=edge_capacity_bytes,
                         hot_threshold=40)
        open_read = tier.open_read

    # The whole workload is drawn up front from one rng, so cached and
    # cache-less runs see byte-identical session plans.
    weights = zipf_weights(values_count)
    plans = []
    for idx in range(sessions):
        arrival = uniform_arrival(rng, arrival_window_s)
        asset = zipf_pick(rng, values_count, viral_share, weights)
        interactive = rng.random() < interactive_share
        plans.append((arrival, asset, interactive))

    delivered_bits = [0] * sessions
    on_time_bits = [0] * sessions
    violations = [0] * sessions
    admitted = [False] * sessions
    failed = [0] * sessions
    done_at = [0.0] * sessions
    digests: List[str] = []

    def session(idx: int):
        arrival, asset, interactive = plans[idx]
        yield Delay(arrival)
        priority = Priority.INTERACTIVE if interactive else Priority.STANDARD
        stream = open_read(
            values[asset], stream_bps, label=f"viewer-{idx}",
            priority=priority, queue_timeout_s=1.0)
        with stream:
            try:
                yield from stream.read(ELEMENT_BITS)
            except (AdmissionError, FaultError, ClusterError, CacheError):
                failed[idx] = 1
                return
            admitted[idx] = True
            delivered_bits[idx] = ELEMENT_BITS
            on_time_bits[idx] = ELEMENT_BITS
            start = sim.now_s
            for n in range(1, elements):
                ideal = start + (n - 1) * PERIOD_S
                now = sim.now_s
                if now < ideal:
                    yield Delay(ideal - now)
                try:
                    yield from stream.read(ELEMENT_BITS,
                                           deadline=ideal + PERIOD_S)
                except (AdmissionError, FaultError, ClusterError,
                        CacheError):
                    failed[idx] = 1
                    return
                delivered_bits[idx] += ELEMENT_BITS
                if sim.now_s > ideal + PERIOD_S + 1e-9:
                    violations[idx] += 1
                else:
                    on_time_bits[idx] += ELEMENT_BITS
            done_at[idx] = sim.now_s
            digests.append(stream.digest
                           if hasattr(stream, "digest") else "")

    for idx in range(sessions):
        sim.spawn(session(idx), name=f"session-{idx}")
    end = sim.run()
    makespan = max(done_at) if any(done_at) else end.seconds
    goodput_bits = sum(on_time_bits)
    interactive_admitted = sum(
        1 for idx in range(sessions) if admitted[idx] and plans[idx][2])
    interactive_violations = sum(
        violations[idx] for idx in range(sessions)
        if admitted[idx] and plans[idx][2])
    metrics = sim.obs.metrics
    metrics.flush()

    def count(name: str) -> int:
        instrument = metrics.get(name)
        return int(getattr(instrument, "value", 0) or 0)

    lookups = count("cache.lookups")
    hits = count("cache.hits")
    boosted = [p for p in cluster.placements
               if p.replication != p.declared_replication]
    facts: Dict[str, object] = {
        "cached": cached,
        "policy": policy if cached else "none",
        "sessions": sessions,
        "sessions_admitted": sum(1 for a in admitted if a),
        "sessions_failed": sum(failed),
        "delivered_megabits": round(sum(delivered_bits) / 1e6, 3),
        "goodput_mbps": round(goodput_bits / makespan / 1e6, 2),
        "makespan_s": round(makespan, 3),
        "qos_violations": sum(violations),
        "interactive_admitted": interactive_admitted,
        "interactive_violations": interactive_violations,
        "hit_ratio": round(hits / lookups, 3) if lookups else 0.0,
        "passthrough_reads": count("cache.passthrough"),
        "prefill_megabits": round(count("cache.prefill_bits") / 1e6, 3),
        "hot_episodes": count("cache.hot_episodes"),
        "replica_boosts": count("cluster.replica_boosts"),
        "replica_unboosts": count("cluster.replica_unboosts"),
        "boosted_at_end": len(boosted),
        "digest": _scenario_digest(digests),
        "virtual_seconds": round(end.seconds, 3),
    }
    _drain(sim, cluster, tier)
    facts["stranded_processes"] = sim.live_processes
    return facts


def churn(seed: int = 0, nodes: int = 4, edges: int = 2,
          policy: str = "lru") -> Dict[str, object]:
    """Version bumps and an edge outage under continuous readers.

    Three waves of readers over the same two values: wave 1 warms the
    caches; between waves the authoritative version of value A is
    bumped (eager invalidation everywhere); during wave 2 ``edge-0``
    dies (readers degrade to pass-through or re-attach to ``edge-1``)
    and is restored for wave 3.  Coherence holds iff at no point — and
    certainly not at the end — any cache holds a version tag other
    than the placement's current one.
    """
    from repro.cache.tier import CacheTier
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

    elements = 6
    stream_bps = ELEMENT_BITS / PERIOD_S
    waves = 3
    readers_per_wave = 8

    sim = Simulator()
    cluster = _build_cluster(sim, nodes, replication=2)
    rng = random.Random(seed)
    asset_bytes = elements * ELEMENT_BITS // 8
    value_a = Blob(asset_bytes)
    value_b = Blob(asset_bytes)
    placement_a = cluster.place(value_a, key="asset-a")
    cluster.place(value_b, key="asset-b")
    cluster.repair.start()
    tier = CacheTier(sim, cluster, edges=edges, policy=policy,
                     hot_threshold=1000)  # churn is not a crowd test
    #: (wave, asset) -> digests of every reader of that asset in that wave
    wave_digests: Dict[object, List[str]] = {
        (w, asset): [] for w in range(waves) for asset in ("a", "b")}
    passthrough = [0]
    switches = [0]

    def reader(wave: int, idx: int):
        yield Delay(wave * 0.5 + idx * 0.01 + rng.uniform(0.0, 0.005))
        asset = "a" if idx % 2 == 0 else "b"
        value = value_a if asset == "a" else value_b
        stream = tier.open_read(value, stream_bps,
                                label=f"churn-{wave}-{idx}",
                                priority=Priority.STANDARD,
                                queue_timeout_s=1.0)
        with stream:
            for _ in range(elements):
                yield from stream.read(ELEMENT_BITS)
            wave_digests[wave, asset].append(stream.digest)
            passthrough[0] += stream.passthroughs
            switches[0] += stream.edge_switches

    def control():
        # Bump A after wave 1 fully drains, kill edge-0 during wave 2.
        yield Delay(0.45)
        cluster.bump_version(value_a)

    plan = FaultPlan(seed=seed).edge_cache_outage("edge-0", at=0.55,
                                                  duration=0.4)
    injector = FaultInjector(sim, plan).arm(edges=tier.edges)
    for wave in range(waves):
        for idx in range(readers_per_wave):
            sim.spawn(reader(wave, idx), name=f"churn-{wave}-{idx}")
    sim.spawn(control(), name="churn-control")
    end = sim.run()

    metrics = sim.obs.metrics
    metrics.flush()

    def count(name: str) -> int:
        instrument = metrics.get(name)
        return int(getattr(instrument, "value", 0) or 0)

    # Wave 0 and wave 2 read different bytes of asset-a (the bump sits
    # between them), every reader inside one (wave, asset) must agree,
    # and asset-b — never bumped — must serve identical bytes throughout.
    unique = {group: sorted(set(digests))
              for group, digests in wave_digests.items()}
    b_all = {d for w in range(waves) for d in unique[w, "b"]}
    facts: Dict[str, object] = {
        "version_of_a": placement_a.version,
        "invalidations": count("cache.invalidations"),
        "stale_tags": sum(len(tags)
                          for of_cache in tier.stale_spans().values()
                          for tags in of_cache.values()),
        "edge_deaths": sum(edge.deaths for edge in tier.edges),
        "faults_injected": injector.injected,
        "passthrough_reads": passthrough[0],
        "edge_switches": switches[0],
        "hit_ratio": (round(count("cache.hits") / count("cache.lookups"), 3)
                      if count("cache.lookups") else 0.0),
        "wave_agreement": all(len(d) <= 1 for d in unique.values()),
        "a_changed_after_bump": unique[0, "a"] != unique[2, "a"],
        "b_stable": len(b_all) <= 1,
        "digest": _scenario_digest(
            [d for digests in wave_digests.values() for d in digests]),
        "virtual_seconds": round(end.seconds, 3),
    }
    _drain(sim, cluster, tier)
    facts["stranded_processes"] = sim.live_processes
    return facts


SCENARIOS: Dict[str, object] = {
    "zipf-crowd": zipf_crowd,
    "churn": churn,
}


#: ``summary_line(name, facts)``: one deterministic line per run.
summary_line = partial(facts_line, "cache")
