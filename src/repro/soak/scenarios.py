"""The composed broadcast-day soak scenario.

``day`` runs a whole broadcast day against one shared substrate: a
4-node R=2 storage cluster behind a 2-edge cache tier, with live
newscast viewers (paced INTERACTIVE reads of the news asset), VOD
Zipf traffic through the cache, editing batches (BACKGROUND full-asset
cluster reads with bounded retries) and overnight maintenance (catalog
version bumps) — all drawn up front from the seed by
:func:`~repro.soak.phases.build_timeline` — while the full
``repro.watch`` stack supervises on a 50 ms virtual cadence and a
seeded chaos plan (:func:`~repro.soak.chaos.sample_chaos`) kills
nodes and edges under it.

Conventions match every other scenario registry: fresh simulator in
the caller's ambient observability scope, fully determined by the
arguments, virtual time only, flat dict of headline facts.  Two knobs
exist for the search harness:

* ``fault_plan`` overrides the sampled chaos plan — the ddmin probe
  hook.  The workload timeline never sees the plan, so every probe
  replays byte-identical traffic.
* ``plant_leak`` arms the seeded bug: when the chaos schedule has
  ``node-1`` and ``edge-0`` down *simultaneously*, the failover path
  on the surviving edge starts leaking its released reservations
  (``debug_leak_releases``) — the reservation-conservation invariant
  breaches shortly after.  The minimal failing schedule is exactly
  the two overlapping outages, which is what the CI search probe
  asserts ddmin recovers.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.admission.controller import Priority
from repro.cluster.scenarios import Blob, _build_cluster
from repro.errors import (
    AdmissionError,
    CacheError,
    ClusterError,
    FaultError,
    InvariantBreachError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import facts_line
from repro.sim import Delay, Simulator
from repro.soak.chaos import sample_chaos
from repro.soak.phases import (
    ELEMENT_BITS,
    MAX_LIVE_ELEMENTS,
    PERIOD_S,
    VOD_ELEMENTS,
    PhaseSpec,
    build_timeline,
    default_day,
    timeline_sha256,
)
from repro.watch.slo import default_slos
from repro.watch.watchdog import Watchdog

NODES = 4
EDGES = 2
CATALOG = 10
STREAM_BPS = ELEMENT_BITS / PERIOD_S
#: leaked-failover watcher cadence and the victims it watches for.
LEAK_POLL_S = 0.025
LEAK_NODE = "node-1"
LEAK_EDGE = "edge-0"


def _resolve_phases(phases: Optional[Sequence[PhaseSpec]],
                    scale: float) -> tuple:
    specs = tuple(phases) if phases else default_day()
    if scale != 1.0:
        specs = tuple(spec.scaled(scale) for spec in specs)
    return specs


def plan_sha256(plan: FaultPlan) -> str:
    """Digest of a fault plan's full schedule — the chaos fact."""
    return hashlib.sha256(
        json.dumps(plan.to_dict(), sort_keys=True).encode()).hexdigest()


def day_chaos_plan(seed: int = 0, chaos_seed: Optional[int] = None,
                   phases: Optional[Sequence[PhaseSpec]] = None,
                   scale: float = 1.0,
                   profile: str = "gentle") -> FaultPlan:
    """The chaos plan ``day`` would sample for these arguments.

    Chaos search re-derives the schedule it is minimizing from here —
    the target names (nodes, edges, edge NICs, edit batches) are fixed
    by the scenario's topology and the seeded timeline, never by run
    state.
    """
    specs = _resolve_phases(phases, scale)
    events = build_timeline(specs, seed, catalog_size=CATALOG)
    return _sample_plan(seed, chaos_seed,
                        sum(spec.duration_s for spec in specs), events,
                        profile)


def _sample_plan(seed: int, chaos_seed: Optional[int], horizon_s: float,
                 events, profile: str) -> FaultPlan:
    """Chaos over the fixed topology and a timeline's edit batches."""
    return sample_chaos(
        chaos_seed if chaos_seed is not None else seed, horizon_s,
        nodes=[f"node-{i}" for i in range(NODES)],
        edges=[f"edge-{i}" for i in range(EDGES)],
        channels=[f"edge-{i}.nic" for i in range(EDGES)],
        processes=[f"edit-{e.ordinal}" for e in events if e.kind == "edit"],
        profile=profile)


def day(seed: int = 0, phases: Optional[Sequence[PhaseSpec]] = None,
        scale: float = 1.0, chaos: bool = True,
        chaos_seed: Optional[int] = None, profile: str = "gentle",
        fault_plan: Optional[FaultPlan] = None, plant_leak: bool = False,
        bundle_dir: Optional[str] = None) -> Dict[str, object]:
    """One supervised broadcast day; returns the flat facts dict."""
    specs = _resolve_phases(phases, scale)
    horizon_s = sum(spec.duration_s for spec in specs)
    events = build_timeline(specs, seed, catalog_size=CATALOG)

    sim = Simulator()
    cluster = _build_cluster(sim, NODES, replication=2)
    catalog = [Blob(VOD_ELEMENTS * ELEMENT_BITS // 8)
               for _ in range(CATALOG)]
    news = Blob((MAX_LIVE_ELEMENTS + 8) * ELEMENT_BITS // 8)
    for value in catalog:
        cluster.place(value)
    cluster.place(news, key="newscast")
    cluster.repair.start()
    from repro.cache.tier import CacheTier
    tier = CacheTier(sim, cluster, edges=EDGES,
                     edge_bandwidth_bps=320_000_000.0, hot_threshold=40)

    if fault_plan is not None:
        plan = fault_plan
    elif chaos:
        plan = _sample_plan(seed, chaos_seed, horizon_s, events, profile)
    else:
        plan = FaultPlan(seed=seed)

    vod = {"admitted": 0, "failed": 0, "violations": 0}
    live = {"elements": 0, "violations": 0, "failed": 0}
    edits = {"done": 0, "failed": 0, "retries": 0}
    interactive = {"admitted": 0, "violations": 0}
    bumps = [0]
    digests: List[str] = []
    read_errors = (AdmissionError, FaultError, ClusterError, CacheError)

    def paced_read(stream, elements: int, counters, is_interactive: bool):
        """Elements 1..n-1 paced one period apart; element 0 is startup."""
        try:
            yield from stream.read(ELEMENT_BITS)
        except read_errors:
            counters["failed"] += 1
            return
        if counters is vod:
            counters["admitted"] += 1
        if is_interactive:
            interactive["admitted"] += 1
        start = sim.now_s
        for n in range(1, elements):
            ideal = start + (n - 1) * PERIOD_S
            now = sim.now_s
            if now < ideal:
                yield Delay(ideal - now)
            try:
                yield from stream.read(ELEMENT_BITS,
                                       deadline=ideal + PERIOD_S)
            except read_errors:
                counters["failed"] += 1
                return
            if counters is live:
                counters["elements"] += 1
            if sim.now_s > ideal + PERIOD_S + 1e-9:
                counters["violations"] += 1
                if is_interactive:
                    interactive["violations"] += 1
        digests.append(stream.digest)

    def vod_session(event):
        yield Delay(event.at)
        priority = Priority.INTERACTIVE if event.interactive \
            else Priority.STANDARD
        stream = tier.open_read(catalog[event.asset], STREAM_BPS,
                                label=f"vod-{event.ordinal}",
                                priority=priority, queue_timeout_s=1.0)
        with stream:
            yield from paced_read(stream, event.elements, vod,
                                  event.interactive)

    def live_viewer(event):
        yield Delay(event.at)
        stream = tier.open_read(news, STREAM_BPS,
                                label=f"live-{event.ordinal}",
                                priority=Priority.INTERACTIVE,
                                queue_timeout_s=1.0)
        with stream:
            yield from paced_read(stream, event.elements, live, True)

    def edit_job(event):
        # A transcode batch: unpaced full-asset read straight off the
        # cluster at BACKGROUND — preemptible by the crowd, retried a
        # bounded number of times when a fault lands on it.
        yield Delay(event.at)
        for attempt in range(3):
            stream = cluster.open_read(
                catalog[event.asset], 2 * STREAM_BPS,
                label=f"edit-{event.ordinal}", priority=Priority.BACKGROUND,
                queue_timeout_s=2.0, min_fraction=0.25)
            try:
                with stream:
                    for _ in range(event.elements):
                        yield from stream.read(ELEMENT_BITS)
                edits["done"] += 1
                return
            except read_errors:
                if attempt == 2:
                    edits["failed"] += 1
                    return
                edits["retries"] += 1
                yield Delay(0.1)

    def maintenance_bump(event):
        yield Delay(event.at)
        cluster.bump_version(catalog[event.asset])
        bumps[0] += 1

    def leak_watcher():
        # The planted failover bug: if chaos ever has the primary VOD
        # node and edge-0 down at once, the re-attach path on the
        # surviving edge stops unregistering released reservations.
        node = cluster.node(LEAK_NODE)
        while sim.now_s + LEAK_POLL_S <= horizon_s:
            yield Delay(LEAK_POLL_S)
            if not node.live and not tier.edge(LEAK_EDGE).live:
                tier.edge("edge-1").nic.debug_leak_releases = True
                return

    dog = Watchdog(sim, slos=default_slos(startup_p95_s=0.75,
                                          nodes_floor=1.0,
                                          cache_hit_floor=0.5),
                   bundle_dir=bundle_dir)
    dog.arm(cluster=cluster, tier=tier, channels_complete=True)
    dog.start(cadence_s=0.05, horizon_s=horizon_s + 1.0)

    spawners = {"vod": vod_session, "live": live_viewer,
                "edit": edit_job, "bump": maintenance_bump}
    procs = {}
    kinds = {"vod": 0, "live": 0, "edit": 0, "bump": 0}
    for event in events:
        kinds[event.kind] += 1
        name = f"{event.kind}-{event.ordinal}"
        procs[name] = sim.spawn(spawners[event.kind](event), name=name)
    if plant_leak:
        sim.spawn(leak_watcher(), name="leak-watcher")
    injector = FaultInjector(sim, plan).arm(
        nodes=cluster.nodes, edges=tier.edges,
        channels=[edge.nic for edge in tier.edges], processes=procs)

    breach: Optional[InvariantBreachError] = None
    crash: Optional[Exception] = None
    try:
        end = sim.run()
    except InvariantBreachError as exc:
        breach = exc
        end = sim.now
    except Exception as exc:  # noqa: BLE001 - soak records crashes as facts
        crash = exc
        end = sim.now

    if breach is None and crash is None:
        tier.shutdown()
        cluster.shutdown()
        sim.run()
        report = dog.teardown(strict=False)
    else:
        report = dog.engine.report()

    metrics = sim.obs.metrics
    metrics.flush()

    def count(name: str) -> int:
        instrument = metrics.get(name)
        return int(getattr(instrument, "value", 0) or 0)

    lookups = count("cache.lookups")
    first_breach = dog.monitor.breaches[0] if dog.monitor.breaches else None
    folded = hashlib.sha256()
    for digest in sorted(digests):
        folded.update(digest.encode())
    return {
        "phases": len(specs),
        "phase_names": ",".join(spec.name for spec in specs),
        "horizon_s": round(horizon_s, 3),
        "timeline_events": len(events),
        "timeline_sha256": timeline_sha256(events),
        "fault_schedule_sha256": plan_sha256(plan),
        "faults_planned": len(plan),
        "faults_injected": injector.injected,
        "vod_sessions": kinds["vod"],
        "vod_admitted": vod["admitted"],
        "vod_failed": vod["failed"],
        "live_viewers": kinds["live"],
        "live_elements": live["elements"],
        "live_failed": live["failed"],
        "edit_jobs": kinds["edit"],
        "edit_done": edits["done"],
        "edit_retries": edits["retries"],
        "edit_failed": edits["failed"],
        "version_bumps": bumps[0],
        "qos_violations": vod["violations"] + live["violations"],
        "interactive_admitted": interactive["admitted"],
        "interactive_violations": interactive["violations"],
        "hit_ratio": (round(count("cache.hits") / lookups, 3)
                      if lookups else 0.0),
        "passthrough_reads": count("cache.passthrough"),
        "failovers": cluster.failovers,
        "repairs": cluster.repair.repairs,
        "node_deaths": sum(node.deaths for node in cluster.nodes),
        "edge_deaths": sum(edge.deaths for edge in tier.edges),
        "invariant_checks": dog.monitor.checks,
        "invariant_breaches": len(dog.monitor.breaches),
        "breach_invariant": (first_breach.invariant
                             if first_breach else "none"),
        "breach_component": (first_breach.component
                             if first_breach else "none"),
        "unhandled_failure": (type(crash).__name__
                              if crash is not None else "none"),
        "slos_violated": ",".join(report["violated"]) or "none",
        "worst_burn": (max(report["burn_by_class"].values())
                       if report["burn_by_class"] else 0.0),
        "bundles_written": len(dog.bundle_paths),
        "digest": folded.hexdigest(),
        "virtual_seconds": round(end.seconds, 3),
        "stranded_processes": sim.live_processes,
    }


SCENARIOS: Dict[str, object] = {
    "day": day,
}


#: ``summary_line(name, facts)``: one deterministic line per run.
summary_line = partial(facts_line, "soak")
