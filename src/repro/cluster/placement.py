"""Sharded, replicated placement across storage nodes.

The single-pool :class:`~repro.storage.placement.PlacementManager` makes
placement client-visible on one machine; this module scales the same
idea out.  A value is split into contiguous shards, each shard is placed
on the R highest-rendezvous-weight nodes
(:mod:`repro.cluster.hashing`), and reads are routed to the least-loaded
*live* replica — queue-depth aware, through each node's
:class:`~repro.admission.controller.AdmissionController`.

Failover is the point: a :class:`ClusterStream` wraps every span read in
:func:`~repro.faults.recovery.with_retries`, so when the serving node
dies mid-stream (its scheduler fails the request with a
:class:`~repro.errors.FaultError`) the retry reconnects to a surviving
replica and the client sees latency, not an error — the paper's "copy
… so time-consuming as to destroy any sense of interactivity" replaced
by a placement that already holds the copy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.admission.controller import Priority, QoSContract
from repro.cluster import hashing
from repro.cluster.node import StorageNode
from repro.errors import (
    AdmissionError,
    ClusterError,
    FaultError,
    NodeDownError,
    OutOfSpaceError,
    PlacementError,
)
from repro.faults.recovery import RetryPolicy, with_retries
from repro.net.channel import Reservation
from repro.sim import Delay, Simulator, weak_hook
from repro.storage.extents import Extent
from repro.values.base import MediaValue

#: backoff for failover reconnects: short base so a replica switch
#: costs milliseconds, enough attempts to ride out repair.
FAILOVER_RETRY = RetryPolicy(max_attempts=6, base_delay_s=0.005,
                             max_delay_s=0.25)


@dataclass
class ClusterShard:
    """One contiguous slice of a value, replicated across nodes."""

    key: str
    index: int
    offset: int                      # byte offset within the value
    nbytes: int
    replicas: Dict[str, Extent] = field(default_factory=dict)
    #: node name -> count of ClusterStreams currently connected to that
    #: replica.  RepairManager trim/rebalance must not free an extent a
    #: live reader is positioned on; a busy replica defers its trim
    #: until the last reader detaches (see RepairManager._trim_shard).
    readers: Dict[str, int] = field(default_factory=dict)

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


@dataclass
class ClusterPlacement:
    """Where one value's shards live across the cluster."""

    value_id: int
    key: str
    nbytes: int
    replication: int
    shards: List[ClusterShard]
    #: the R the client declared at place() time.  ``replication`` may
    #: be raised above it temporarily (RepairManager.boost, flash
    #: crowds) but must return to this value once the crowd passes —
    #: the watch layer's teardown probe holds the cluster to it.
    declared_replication: int = 0
    #: authoritative content version.  Bumped by
    #: ClusterPlacementManager.bump_version when the source value
    #: changes; caches tag every block with the version they filled at
    #: and must never serve a block whose tag lags this number.
    version: int = 0

    def shard_at(self, byte_offset: int) -> ClusterShard:
        # Every shard but the last is shards[0].nbytes long (place()), and
        # an offset past the end falls in the last one.
        return self.shards[min(byte_offset // self.shards[0].nbytes,
                               len(self.shards) - 1)]


class ClusterStream:
    """A failover-capable read stream over one placed value.

    Satisfies the ``io_stream`` read protocol: ``read(bits)`` is a DES
    subroutine.  The stream admits itself on the serving node's
    controller (holding a NIC reservation for its contracted rate) and
    re-admits on a surviving replica whenever the current node dies, the
    reservation is preempted, or a span read fails with a
    :class:`~repro.errors.FaultError`.
    """

    def __init__(self, cluster: "ClusterPlacementManager",
                 placement: ClusterPlacement, bps: float, label: str,
                 priority: Priority, queue_timeout_s: float,
                 min_fraction: float = 1.0) -> None:
        self.cluster = cluster
        self.simulator = cluster.simulator
        self.placement = placement
        self.bps = bps
        self.label = label
        self.priority = priority
        self.queue_timeout_s = queue_timeout_s
        #: degraded-service floor forwarded into the per-node QoS
        #: contract: 1.0 (default) keeps the historical all-or-nothing
        #: admission; below 1.0 a congested failover target may admit
        #: the stream at reduced rate instead of refusing it.
        self.min_fraction = min_fraction
        self.bits_read = 0
        self.failovers = 0
        self.closed = False
        self._pos_bits = 0
        self._node: Optional[StorageNode] = None
        self._reservation: Optional[Reservation] = None
        self._shard: Optional[ClusterShard] = None
        self._lost = False

    @property
    def serving_node(self) -> Optional[str]:
        return self._node.name if self._node is not None else None

    def seek(self, bit_offset: int) -> None:
        """Reposition the stream (cache tiers read-through at an offset)."""
        if not 0 <= bit_offset <= self.placement.nbytes * 8:
            raise ClusterError(
                f"seek to bit {bit_offset} outside {self.placement.key!r}"
            )
        self._pos_bits = bit_offset

    def read(self, bits: int, deadline: Optional[float] = None) -> Generator:
        """DES subroutine: read ``bits`` from the stream position."""
        if self.closed:
            raise ClusterError(f"stream {self.label!r} is closed")
        total_bits = self.placement.nbytes * 8
        if self._pos_bits + bits > total_bits:
            raise ClusterError(
                f"stream {self.label!r} read past end of "
                f"{self.placement.key!r} ({self._pos_bits + bits} of "
                f"{total_bits} bits)"
            )
        remaining = bits
        while remaining > 0:
            shard = self.placement.shard_at(self._pos_bits // 8)
            span = min(remaining, shard.end * 8 - self._pos_bits)
            yield from self._read_span(shard, span, deadline)
            remaining -= span
        self.bits_read += bits
        self.cluster._m_reads.inc()
        self.cluster._m_read_bits.inc(bits)

    def _read_span(self, shard: ClusterShard, bits: int,
                   deadline: Optional[float]) -> Generator:
        def attempt() -> Generator:
            yield from self._ensure(shard)
            node = self._node
            extent = shard.replicas.get(node.name)
            if extent is None:
                # The replica vanished between routing and reading
                # (trimmed or rebalanced away): treat the connection as
                # lost so the retry re-routes to a surviving replica.
                self._lost = True
                raise NodeDownError(
                    f"replica of {shard.key!r} on {node.name!r} was "
                    f"removed mid-stream"
                )
            byte_off = self._pos_bits // 8 - shard.offset
            span_bytes = (bits + 7) // 8
            version = self.placement.version
            cache = node.block_cache
            if (cache is not None
                    and cache.get(shard.key, byte_off, span_bytes, version)):
                # Block-cache hit: the extent bytes are already in node
                # memory, so the read skips the disk queue entirely and
                # streams out at NIC burst rate.
                yield Delay(bits / node.nic.capacity_bps)
                node.account_read(bits)
                return
            position = node.position_of(extent, byte_off)
            try:
                yield from node.scheduler.read(position, bits, deadline)
            except FaultError:
                # The serving node (or its scheduler) died under us:
                # mark the connection lost so the retry reconnects.
                self._lost = True
                raise
            node.account_read(bits)
            if cache is not None:
                cache.put(shard.key, byte_off, span_bytes, version)

        yield from with_retries(self.simulator, attempt, FAILOVER_RETRY,
                                label=self.label)
        self._pos_bits += bits

    def _ensure(self, shard: ClusterShard) -> Generator:
        """Connect (or reconnect) to the best live replica of ``shard``."""
        if (self._shard is shard and self._node is not None
                and not self._lost and self._node.available
                and self._reservation is not None
                and not self._reservation.released
                and not self._reservation.preempted):
            return
        prev = self.serving_node if self._shard is shard else None
        self._disconnect()
        candidates = self.cluster._route(shard)
        if not candidates:
            raise NodeDownError(
                f"no live replica of shard {shard.key!r} "
                f"(placed on {sorted(shard.replicas)})"
            )
        last_error: Optional[BaseException] = None
        for node in candidates:
            contract = QoSContract(self.bps, self.priority,
                                   min_fraction=self.min_fraction,
                                   queue_timeout_s=self.queue_timeout_s)
            try:
                reservation = yield from node.admission.admit(
                    contract, label=self.label)
            except AdmissionError as exc:
                # Kept without its traceback, which holds this frame.
                last_error = exc.with_traceback(None)
                continue
            self._node, self._reservation = node, reservation
            self._shard, self._lost = shard, False
            shard.readers[node.name] = shard.readers.get(node.name, 0) + 1
            if prev is not None and node.name != prev:
                self.failovers += 1
                self.cluster._note_failover(self.label, prev, node.name)
            return
        raise NodeDownError(
            f"every live replica of shard {shard.key!r} refused admission "
            f"for {self.label!r}"
        ) from last_error

    def _disconnect(self) -> None:
        if self._node is not None and self._shard is not None:
            shard, name = self._shard, self._node.name
            left = shard.readers.get(name, 0) - 1
            if left > 0:
                shard.readers[name] = left
            else:
                shard.readers.pop(name, None)
                # A trim that found this replica busy is waiting for us.
                self.cluster.repair.reader_detached(shard)
        if self._reservation is not None and not self._reservation.released:
            self._reservation.release()
        self._node = None
        self._reservation = None
        self._shard = None

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._disconnect()

    def __enter__(self) -> "ClusterStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ClusterPlacementManager:
    """Shards values across nodes, routes reads, tracks replica health."""

    def __init__(self, simulator: Simulator, replication: int = 2) -> None:
        if replication < 1:
            raise ClusterError(f"replication must be >= 1, got {replication}")
        self.simulator = simulator
        self.replication = replication
        self._nodes: Dict[str, StorageNode] = {}
        self._placements: Dict[int, ClusterPlacement] = {}
        self._keys = itertools.count(1)
        self.failovers = 0
        self._decisions = simulator.obs.decisions
        metrics = simulator.obs.metrics
        self._m_placements = metrics.counter("cluster.placements")
        self._m_reads = metrics.counter("cluster.reads")
        self._m_read_bits = metrics.counter("cluster.read_bits")
        self._m_failovers = metrics.counter("cluster.failovers")
        self._m_node_deaths = metrics.counter("cluster.node_deaths")
        self._m_node_restores = metrics.counter("cluster.node_restores")
        self._m_nodes_live = metrics.gauge("cluster.nodes_live")
        self._m_under_replicated = metrics.gauge("cluster.under_replicated")
        self._m_version_bumps = metrics.counter("cluster.version_bumps")
        self._version_listeners: List = []
        from repro.cluster.repair import RepairManager
        self.repair = RepairManager(self)

    # -- membership ----------------------------------------------------------
    def add_node(self, node: StorageNode) -> StorageNode:
        if node.name in self._nodes:
            raise ClusterError(f"node {node.name!r} already registered")
        self._nodes[node.name] = node
        node.on_down = weak_hook(self._node_down)
        node.on_up = weak_hook(self._node_up)
        self._refresh_health()
        return node

    def node(self, name: str) -> StorageNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise ClusterError(f"unknown node {name!r}") from None

    @property
    def nodes(self) -> List[StorageNode]:
        return [self._nodes[name] for name in sorted(self._nodes)]

    @property
    def live_nodes(self) -> List[StorageNode]:
        return [n for n in self.nodes if n.available]

    def shutdown(self) -> None:
        """Scenario teardown: stop repair and every node's server process."""
        self.repair.stop()
        for node in self.nodes:
            node.stop()

    # -- placement -----------------------------------------------------------
    def place(self, value: MediaValue, key: Optional[str] = None,
              shards: int = 1,
              replication: Optional[int] = None) -> ClusterPlacement:
        """Shard a value and allocate R replicas of each shard."""
        vid = id(value)
        if vid in self._placements:
            raise PlacementError("value is already placed in the cluster")
        r = self.replication if replication is None else replication
        names = sorted(self._nodes)
        if r < 1 or r > len(names):
            raise ClusterError(
                f"replication {r} needs {r} nodes, have {len(names)}"
            )
        nbytes = max(1, (value.data_size_bits() + 7) // 8)
        shards = max(1, min(shards, nbytes))
        key = key if key is not None else f"value-{next(self._keys)}"
        shard_nbytes = -(-nbytes // shards)
        shards = -(-nbytes // shard_nbytes)  # so that no shard is empty
        placed: List[ClusterShard] = []
        allocated: List[Tuple[StorageNode, Extent]] = []
        try:
            for index in range(shards):
                offset = index * shard_nbytes
                size = min(shard_nbytes, nbytes - offset)
                shard = ClusterShard(f"{key}#{index}", index, offset, size)
                for name in hashing.rank(shard.key, names):
                    if len(shard.replicas) == r:
                        break
                    node = self._nodes[name]
                    if node.device.allocator.largest_free_extent < size:
                        continue
                    extent = node.device.allocate(size)
                    shard.replicas[name] = extent
                    allocated.append((node, extent))
                if len(shard.replicas) < r:
                    raise OutOfSpaceError(
                        f"cannot place {r} replicas of shard {shard.key!r} "
                        f"({size} bytes) across {len(names)} nodes"
                    )
                placed.append(shard)
        except BaseException:
            for node, extent in allocated:
                node.device.free(extent)
            raise
        placement = ClusterPlacement(vid, key, nbytes, r, placed,
                                     declared_replication=r)
        self._placements[vid] = placement
        self._m_placements.inc()
        self._refresh_health()
        return placement

    def placement_of(self, value: MediaValue) -> ClusterPlacement:
        try:
            return self._placements[id(value)]
        except KeyError:
            raise PlacementError("value has no cluster placement") from None

    def bump_version(self, value: MediaValue) -> int:
        """The source value changed: advance the authoritative version.

        Every cache layered over this placement is told to drop the
        blocks it holds for the old version — the coherence contract is
        that no cache ever serves bytes whose version tag lags the
        placement's (the watch layer's cache-coherence probe re-derives
        exactly this).
        """
        placement = self.placement_of(value)
        placement.version += 1
        self._m_version_bumps.inc()
        for listener in self._version_listeners:
            listener(placement)
        return placement.version

    def add_version_listener(self, listener) -> None:
        """Register a callable invoked with the placement on each bump."""
        self._version_listeners.append(listener)

    @property
    def placements(self) -> List[ClusterPlacement]:
        return list(self._placements.values())

    # -- reads ---------------------------------------------------------------
    def open_read(self, value: MediaValue, bps: float,
                  label: str = "cluster-read",
                  priority: Priority = Priority.STANDARD,
                  queue_timeout_s: float = 0.0,
                  min_fraction: float = 1.0) -> ClusterStream:
        """A failover-capable stream over a placed value.

        With ``queue_timeout_s`` > 0 admission may queue in virtual time
        (bounded by the timeout); 0 means fail-fast to the next replica.
        ``min_fraction`` < 1.0 lets a congested replica admit the stream
        degraded (at the floor rate) rather than refuse it outright.
        """
        return ClusterStream(self, self.placement_of(value), bps, label,
                             priority, queue_timeout_s, min_fraction)

    def _route(self, shard: ClusterShard,
               exclude: Tuple[str, ...] = ()) -> List[StorageNode]:
        """Live replica holders, least-loaded first (queue depth, util).

        ``load_key`` must be built from live O(1) counters (admission
        queue depth, disk queue depth, reservation utilization) — never
        from the metrics snapshot, whose Channel traffic accounting is
        batched behind flush hooks and lags the crowd by a flush
        interval.  Ranking on the snapshot routes every new reader to
        the replica that *was* idle, saturating it.
        """
        nodes = [self._nodes[name] for name in sorted(shard.replicas)
                 if name not in exclude and name in self._nodes]
        live = [node for node in nodes if node.available]
        live.sort(key=lambda node: node.load_key)
        return live

    # -- replica health ------------------------------------------------------
    def live_replicas(self, shard: ClusterShard) -> List[str]:
        return [name for name in sorted(shard.replicas)
                if name in self._nodes and self._nodes[name].available]

    def under_replicated(self) -> List[Tuple[ClusterPlacement, ClusterShard]]:
        return [(placement, shard)
                for placement in self._placements.values()
                for shard in placement.shards
                if len(self.live_replicas(shard)) < placement.replication]

    def over_replicated(self) -> List[Tuple[ClusterPlacement, ClusterShard]]:
        return [(placement, shard)
                for placement in self._placements.values()
                for shard in placement.shards
                if len(self.live_replicas(shard)) > placement.replication]

    def _refresh_health(self) -> None:
        self._m_nodes_live.set(len(self.live_nodes))
        self._m_under_replicated.set(len(self.under_replicated()))

    # -- event hooks ---------------------------------------------------------
    def _node_down(self, node: StorageNode) -> None:
        self._m_node_deaths.inc()
        self._refresh_health()
        if self._decisions.enabled:
            self._decisions.emit("node-down", node.name, actor="cluster",
                                 under_replicated=len(self.under_replicated()))
        tracer = self.simulator.obs.tracer
        if tracer.enabled:
            tracer.instant("cluster:node-down", "cluster", node=node.name)
        self.repair.kick()

    def _node_up(self, node: StorageNode) -> None:
        self._m_node_restores.inc()
        self._refresh_health()
        if self._decisions.enabled:
            self._decisions.emit("node-up", node.name, actor="cluster")
        tracer = self.simulator.obs.tracer
        if tracer.enabled:
            tracer.instant("cluster:node-up", "cluster", node=node.name)
        self.repair.kick()

    def _note_failover(self, label: str, old: str, new: str) -> None:
        self.failovers += 1
        self._m_failovers.inc()
        if self._decisions.enabled:
            self._decisions.emit("failover", label, actor="cluster",
                                 src=old, dst=new)
        tracer = self.simulator.obs.tracer
        if tracer.enabled:
            tracer.instant("cluster:failover", "cluster",
                           stream=label, src=old, dst=new)
