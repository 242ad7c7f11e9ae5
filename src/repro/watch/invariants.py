"""Continuously-checked system invariants.

The subsystems each keep their own bookkeeping honest in unit tests; the
:class:`InvariantMonitor` keeps it honest *while scenarios run*.  A
monitor is armed over concrete components — channels, extent allocators,
admission controllers, a cluster — and re-derives each component's
conservation law from its internal state:

* **reservation conservation** — a channel's registered reservations are
  all live (none released), and their sum never exceeds capacity;
* **controller consistency** — every grant an admission controller
  thinks it holds is live and registered on its channel, and its O(1)
  queue-depth mirror matches the actual queue;
* **extent wholeness** — an allocator's free ranges are sorted, disjoint
  and, together with the allocated extents, exactly partition the
  device;
* **bit conservation** — the global ``net.bits_sent`` counter equals the
  sum of per-channel traffic (only checked when *every* channel in the
  scope is armed, otherwise unarmed traffic would look like a leak);
* **replication** — every placed shard keeps at least one live replica
  mid-run, teardown ends with no under-replicated shards, and every
  placement's replication factor is back at its *declared* R (a
  flash-crowd boost that leaks past the crowd is a breach);
* **cache coherence** — armed over a cache tier, no resident block in
  any cache (edge or per-node) carries a version tag other than its
  placement's current authoritative version;
* **process accounting** — the kernel's live-process count stays sane
  mid-run and drains to zero at teardown.

A violated probe produces a :class:`Breach` — a structured, plain-data
record naming the invariant, the component, and the evidence — which the
:class:`~repro.watch.watchdog.Watchdog` turns into a postmortem bundle
and a fail-fast :class:`~repro.errors.InvariantBreachError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.sim import Simulator

#: tolerance for floating-point bandwidth sums.
_EPS = 1e-6


@dataclass(frozen=True, slots=True)
class Breach:
    """One violated invariant: which law, where, and the evidence."""

    invariant: str
    component: str
    detail: str
    at_s: float
    evidence: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "component": self.component,
            "detail": self.detail,
            "at_s": round(self.at_s, 9),
            "evidence": self.evidence,
        }

    def __str__(self) -> str:
        return (f"[{self.invariant}] {self.component} @ t={self.at_s:.6f}s: "
                f"{self.detail}")


class InvariantMonitor:
    """Checks conservation laws over armed components.

    ``check_now()`` runs the mid-run probes; ``check_teardown()`` adds the
    end-state probes (queues drained, processes finished, replication
    restored).  Both return the list of breaches found — empty means the
    system's books balance.
    """

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._channels: List = []
        self._allocators: List = []
        self._controllers: List = []
        self._cluster = None
        self._tier = None
        #: True when the armed channel set covers every channel whose
        #: traffic lands in ``net.bits_sent`` — the precondition for the
        #: bit-conservation probe (partial coverage cannot distinguish a
        #: leak from an unarmed channel's legitimate traffic).
        self._channels_complete = False
        self.checks = 0
        self.breaches: List[Breach] = []

    # -- arming ------------------------------------------------------------
    def arm(self, channels=(), allocators=(), controllers=(), cluster=None,
            tier=None, channels_complete: bool = False) -> "InvariantMonitor":
        """Register components to watch; may be called repeatedly.

        Pass ``channels_complete=True`` only when the armed channels are
        *all* the channels in the scenario's metrics scope — that enables
        the global bit-conservation probe.  Arming a cache ``tier`` also
        arms each edge's NIC and admission controller, and enables the
        cache-coherence probe over every cache the tier owns (the tier's
        cluster must be armed too, for the authoritative versions).
        """
        self._channels.extend(channels)
        self._allocators.extend(allocators)
        self._controllers.extend(controllers)
        if cluster is not None:
            self._cluster = cluster
            for node in cluster.nodes:
                self._channels.append(node.nic)
                self._controllers.append(node.admission)
                self._allocators.append(node.device.allocator)
        if tier is not None:
            self._tier = tier
            for edge in tier.edges:
                self._channels.append(edge.nic)
                self._controllers.append(edge.admission)
        if channels_complete:
            self._channels_complete = True
        return self

    # -- individual probes -------------------------------------------------
    def _now(self) -> float:
        return self.simulator.now_s

    def _probe_reservations(self, out: List[Breach]) -> None:
        for channel in self._channels:
            leaked = [r for r in channel._reservations.values() if r.released]
            if leaked:
                out.append(Breach(
                    "reservation-conservation", channel.name,
                    f"{len(leaked)} released reservation(s) still registered "
                    f"(bandwidth leak)", self._now(),
                    {"leaked": sorted(r.label for r in leaked),
                     "reserved_bps": channel.reserved_bps,
                     "capacity_bps": channel.capacity_bps}))
            if channel.reserved_bps > channel.capacity_bps + _EPS:
                out.append(Breach(
                    "reservation-conservation", channel.name,
                    f"reserved {channel.reserved_bps:g} b/s exceeds capacity "
                    f"{channel.capacity_bps:g} b/s", self._now(),
                    {"reserved_bps": channel.reserved_bps,
                     "capacity_bps": channel.capacity_bps}))

    def _probe_controllers(self, out: List[Breach]) -> None:
        for controller in self._controllers:
            stale = [r.label for r, _ in controller._held.values()
                     if r.released or r.id not in controller.channel._reservations]
            if stale:
                out.append(Breach(
                    "controller-consistency", controller.name,
                    f"{len(stale)} held grant(s) no longer live on "
                    f"{controller.channel.name!r}", self._now(),
                    {"stale": sorted(stale)}))
            actual = sum(1 for _, e in controller._queue if not e.cancelled)
            if actual != controller.queue_depth:
                out.append(Breach(
                    "controller-consistency", controller.name,
                    f"queue-depth mirror {controller.queue_depth} != "
                    f"{actual} live queued entries", self._now(),
                    {"mirror": controller.queue_depth, "actual": actual}))

    def _probe_extents(self, out: List[Breach]) -> None:
        for allocator in self._allocators:
            name = allocator.device_name
            free = allocator._free
            ranges = sorted(
                [(off, off + length) for off, length in free]
                + [(e.offset, e.end) for e in allocator._allocated.values()]
            )
            ok = bool(ranges) and ranges[0][0] == 0
            cursor = 0
            for start, end in ranges:
                if start != cursor or end <= start:
                    ok = False
                    break
                cursor = end
            if not ok or cursor != allocator.capacity_bytes:
                out.append(Breach(
                    "extent-wholeness", name,
                    "free + allocated extents do not exactly partition "
                    f"[0, {allocator.capacity_bytes})", self._now(),
                    {"free_ranges": len(free),
                     "allocated": len(allocator._allocated),
                     "covered_bytes": cursor,
                     "capacity_bytes": allocator.capacity_bytes}))
            if free != sorted(free):
                out.append(Breach(
                    "extent-wholeness", name,
                    "free list is not sorted", self._now(),
                    {"free_ranges": len(free)}))

    def _probe_bits(self, out: List[Breach],
                    instruments: Optional[Mapping] = None) -> None:
        if not (self._channels_complete and self._channels):
            return
        if instruments is None:
            instruments = self.simulator.obs.metrics.settled()
        counter = instruments.get("net.bits_sent")
        recorded = getattr(counter, "value", 0) or 0
        actual = sum(c.total_bits for c in self._channels)
        if recorded != actual:
            out.append(Breach(
                "bit-conservation", "net",
                f"net.bits_sent={recorded} != sum of channel traffic "
                f"{actual}", self._now(),
                {"counter_bits": recorded, "channel_bits": actual}))

    def _probe_replication(self, out: List[Breach],
                           teardown: bool = False) -> None:
        if self._cluster is None:
            return
        cluster = self._cluster
        if not teardown:
            dead = [shard.key
                    for placement in cluster.placements
                    for shard in placement.shards
                    if not cluster.live_replicas(shard)]
            if dead:
                out.append(Breach(
                    "replication", "cluster",
                    f"{len(dead)} shard(s) with zero live replicas",
                    self._now(), {"shards": sorted(dead)}))
            return
        # At teardown the scenario has (legitimately) stopped every node
        # server, so judge replicas by cluster *membership* — node.live
        # survives a clean stop() but not a kill() — instead of by
        # serving availability.
        nodes = cluster._nodes

        def survivors(shard) -> int:
            return sum(1 for name in shard.replicas
                       if name in nodes and nodes[name].live)

        dead = [shard.key
                for placement in cluster.placements
                for shard in placement.shards if survivors(shard) == 0]
        if dead:
            out.append(Breach(
                "replication", "cluster",
                f"{len(dead)} shard(s) with zero surviving replicas at "
                f"teardown", self._now(), {"shards": sorted(dead)}))
        under = [shard.key
                 for placement in cluster.placements
                 for shard in placement.shards
                 if 0 < survivors(shard) < placement.replication]
        if under:
            out.append(Breach(
                "replication", "cluster",
                f"{len(under)} shard(s) still under-replicated at "
                f"teardown", self._now(), {"shards": sorted(under)}))
        # A flash-crowd boost must not survive the crowd: teardown holds
        # every placement to the R its client declared at place() time.
        inflated = [placement.key for placement in cluster.placements
                    if placement.replication != placement.declared_replication]
        if inflated:
            out.append(Breach(
                "replication", "cluster",
                f"{len(inflated)} placement(s) end with replication above "
                f"declared R (leaked boost)", self._now(),
                {"placements": sorted(inflated)}))
        over = [shard.key
                for placement in cluster.placements
                for shard in placement.shards
                if survivors(shard) > placement.replication]
        if over:
            out.append(Breach(
                "replication", "cluster",
                f"{len(over)} shard(s) still over-replicated at teardown "
                f"(leaked extents)", self._now(), {"shards": sorted(over)}))

    def _probe_cache_coherence(self, out: List[Breach]) -> None:
        if self._tier is None or self._cluster is None:
            return
        stale = self._tier.stale_spans()
        if stale:
            out.append(Breach(
                "cache-coherence", "cache",
                f"{sum(len(v) for v in stale.values())} cached span(s) "
                f"diverge from the authoritative placement version",
                self._now(),
                {"stale": {name: sorted(f"{key}@{tags}"
                                        for key, tags in of_cache.items())
                           for name, of_cache in sorted(stale.items())}}))

    def _probe_processes(self, out: List[Breach],
                         teardown: bool = False) -> None:
        live = self.simulator.live_processes
        if live < 0:
            out.append(Breach(
                "process-accounting", "sim",
                f"live-process count went negative ({live})", self._now(),
                {"live_processes": live}))
        if teardown and live > 0:
            out.append(Breach(
                "process-accounting", "sim",
                f"{live} process(es) still live at teardown (leaked "
                f"kernel processes)", self._now(),
                {"live_processes": live}))

    # -- entry points ------------------------------------------------------
    def check_now(self,
                  instruments: Optional[Mapping] = None) -> List[Breach]:
        """Run the mid-run probes; record and return any breaches.
        ``instruments`` is a metrics table the caller settled at this
        instant (the watchdog shares it with its SLO pass), if any."""
        found: List[Breach] = []
        self._probe_reservations(found)
        self._probe_controllers(found)
        self._probe_extents(found)
        self._probe_bits(found, instruments)
        self._probe_replication(found)
        self._probe_cache_coherence(found)
        self._probe_processes(found)
        self.checks += 1
        self.breaches.extend(found)
        return found

    def check_teardown(self) -> List[Breach]:
        """Run every probe plus the end-state laws."""
        found: List[Breach] = []
        self._probe_reservations(found)
        self._probe_controllers(found)
        self._probe_extents(found)
        self._probe_bits(found)
        self._probe_replication(found, teardown=True)
        self._probe_cache_coherence(found)
        self._probe_processes(found, teardown=True)
        self.checks += 1
        self.breaches.extend(found)
        return found
