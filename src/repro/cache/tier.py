"""The cache tier: wires caches, edges, hot detection and fill traffic.

:class:`CacheTier` is the one object a scenario builds on top of a
:class:`~repro.cluster.placement.ClusterPlacementManager`:

* attaches a per-node :class:`~repro.cache.block.BlockCache` to every
  storage node (consulted inside ``ClusterStream._read_span``);
* runs N :class:`~repro.cache.edge.EdgeCacheNode` delivery nodes;
  ``open_read`` hands out :class:`~repro.cache.edge.EdgeStream` readers
  that rendezvous-pick their edge and degrade to pass-through;
* subscribes to ``bump_version`` and eagerly invalidates every cache —
  edge caches by placement key, node caches by shard key;
* feeds every read into a :class:`~repro.cache.hotspot.HotContentDetector`;
  a hot placement gets (a) its replication factor boosted via
  ``RepairManager.boost`` and (b) a **prefill** worker per live edge
  that fills missing blocks through a BACKGROUND-priority
  ``ClusterStream`` — admission-aware by construction: interactive
  sessions preempt it on both the storage and (trivially) the edge
  side, and its retries are bounded;
* a per-hot-key cool watcher polls the detector window and, when the
  crowd passes, restores the declared replication factor
  (``RepairManager.unboost``) — the watch layer's teardown probe holds
  the tier to that restoration.
"""

from __future__ import annotations

from typing import Dict, List

from repro.admission.controller import Priority
from repro.cache.block import BlockCache
from repro.cache.edge import EdgeCacheNode, EdgeStream
from repro.cache.hotspot import HotContentDetector
from repro.cache.policy import make_policy
from repro.errors import AdmissionError, CacheError, FaultError
from repro.sim import Delay, Simulator, weak_hook

#: block cache bytes on every storage node.
NODE_CACHE_BYTES = 12_000_000
#: a prefill stream's rate, and the failed reads after which it gives up.
FILL_BPS = 24_000_000.0
FILL_MAX_ATTEMPTS = 4


class CacheTier:
    """Two-level popularity-aware caching in front of cluster placement."""

    def __init__(self, simulator: Simulator, cluster, edges: int = 2,
                 edge_bandwidth_bps: float = 240_000_000.0,
                 edge_capacity_bytes: int = 60_000_000,
                 policy: str = "lru",
                 hot_threshold: int = 40) -> None:
        if edges < 0:
            raise CacheError(f"edge count must be >= 0, got {edges}")
        self.simulator = simulator
        self.cluster = cluster
        self.policy_name = policy
        self.cool_threshold = max(1, hot_threshold // 4)
        self._stopping = False
        self._values: Dict[int, object] = {}
        self._edges: Dict[str, EdgeCacheNode] = {}
        for i in range(edges):
            name = f"edge-{i}"
            self._edges[name] = EdgeCacheNode(
                simulator, name, bandwidth_bps=edge_bandwidth_bps,
                capacity_bytes=edge_capacity_bytes,
                policy=make_policy(policy))
        for node in cluster.nodes:
            node.block_cache = BlockCache(
                simulator, f"{node.name}.cache", NODE_CACHE_BYTES,
                make_policy(policy))
        cluster.add_version_listener(weak_hook(self._on_version_bump))
        self.detector = HotContentDetector(simulator, hot_threshold)
        self._decisions = simulator.obs.decisions
        metrics = simulator.obs.metrics
        self._m_edge_bits = metrics.counter("cache.edge_bits")
        self._m_passthrough = metrics.counter("cache.passthrough")
        self._m_prefill_bits = metrics.counter("cache.prefill_bits")
        self._m_fill_aborts = metrics.counter("cache.fill_aborts")

    # -- membership ----------------------------------------------------------
    @property
    def edges(self) -> List[EdgeCacheNode]:
        return [self._edges[name] for name in sorted(self._edges)]

    @property
    def live_edge_names(self) -> List[str]:
        return [name for name in sorted(self._edges)
                if self._edges[name].live]

    def edge(self, name: str) -> EdgeCacheNode:
        try:
            return self._edges[name]
        except KeyError:
            raise CacheError(f"unknown edge {name!r}") from None

    @property
    def node_caches(self) -> List[BlockCache]:
        return [node.block_cache for node in self.cluster.nodes
                if node.block_cache is not None]

    @property
    def all_caches(self) -> List[BlockCache]:
        return [edge.cache for edge in self.edges] + self.node_caches

    # -- reads ---------------------------------------------------------------
    def open_read(self, value, bps: float, label: str = "cache-read",
                  priority: Priority = Priority.STANDARD,
                  queue_timeout_s: float = 0.0,
                  min_fraction: float = 1.0) -> EdgeStream:
        """An edge-fronted, pass-through-degrading stream over ``value``."""
        placement = self.cluster.placement_of(value)
        self._values[placement.value_id] = value
        return EdgeStream(self, value, bps, label, priority,
                          queue_timeout_s, min_fraction)

    # -- coherence -----------------------------------------------------------
    def _on_version_bump(self, placement) -> None:
        version = placement.version
        for edge in self.edges:
            edge.cache.invalidate(placement.key, version)
        for shard in placement.shards:
            for cache in self.node_caches:
                cache.invalidate(shard.key, version)

    def stale_spans(self) -> Dict[str, Dict[str, List[int]]]:
        """cache name -> resident key -> the tags it holds other than its
        placement's version (sorted, distinct); coherent when empty.

        Re-derived on every call from the placements and each cache's
        residency, never from a dirty flag: the watch probe reads it to
        see state corrupted behind the API (DESIGN.md section 6, 12).
        """
        authoritative: Dict[str, int] = {}
        for placement in self.cluster.placements:
            for key in (placement.key, *(s.key for s in placement.shards)):
                authoritative[key] = placement.version
        stale: Dict[str, Dict[str, List[int]]] = {}
        for cache in self.all_caches:
            for key, of_key in cache._by_key.items():
                if key in authoritative:
                    tags = set(of_key.values())
                    tags.discard(authoritative[key])
                    if tags:
                        stale.setdefault(cache.name, {})[key] = sorted(tags)
        return stale

    # -- flash-crowd handling ------------------------------------------------
    def _went_hot(self, placement) -> None:
        key = placement.key
        if self._decisions.enabled:
            self._decisions.emit(
                "cache-hot", key, actor="cache",
                recent=self.detector.recent(key),
                window_s=self.detector.window_s)
        self.cluster.repair.boost(placement)
        for name in self.live_edge_names:
            self.simulator.spawn(
                self._prefill(self._edges[name], placement),
                name=f"prefill:{key}:{name}")
        self.simulator.spawn(self._watch_cool(placement),
                             name=f"cache-cool:{key}")

    def _watch_cool(self, placement):
        """Poll the access window; unboost once the crowd passes."""
        key = placement.key
        while not self._stopping:
            yield Delay(self.detector.window_s)
            if self.detector.recent(key) < self.cool_threshold:
                break
        self.detector.cooled(key)
        if self._decisions.enabled and not self._stopping:
            self._decisions.emit("cache-cool", key, actor="cache")
        self.cluster.repair.unboost(placement)

    def _prefill(self, edge: EdgeCacheNode, placement):
        """Fill an edge with a hot value, strictly as BACKGROUND traffic."""
        value = self._values.get(placement.value_id)
        if value is None:
            return
        key = placement.key
        block = edge.cache.block_bytes
        total = (placement.nbytes + block - 1) // block
        stream = self.cluster.open_read(
            value, FILL_BPS, label=f"fill:{key}:{edge.name}",
            priority=Priority.BACKGROUND, queue_timeout_s=0.02,
            min_fraction=0.25)
        attempts = 0
        with stream:
            index = 0
            while index < total:
                if self._stopping or not edge.live:
                    return
                version = placement.version
                byte_off = index * block
                nbytes = min(block, placement.nbytes - byte_off)
                if not edge.cache.missing(key, byte_off, nbytes, version):
                    index += 1
                    continue
                try:
                    stream.seek(byte_off * 8)
                    yield from stream.read(nbytes * 8)
                except (AdmissionError, FaultError):
                    attempts += 1
                    if attempts >= FILL_MAX_ATTEMPTS:
                        self._m_fill_aborts.inc()
                        return
                    yield Delay(0.02 * 2 ** (attempts - 1))
                    continue
                edge.cache.put(key, byte_off, nbytes, version)
                edge.account_fill(nbytes * 8)
                self._m_prefill_bits.inc(nbytes * 8)
                index += 1

    # -- lifecycle -----------------------------------------------------------
    def quiesce(self) -> None:
        """Restore every boosted placement (crowd is over by decree)."""
        for placement in self.cluster.placements:
            if placement.replication != placement.declared_replication:
                self.cluster.repair.unboost(placement)

    def shutdown(self) -> None:
        """Stop fill/cool workers at their next step and unboost."""
        self._stopping = True
        self.quiesce()
