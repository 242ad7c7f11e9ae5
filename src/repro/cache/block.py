"""A version-tagged block cache, used at both levels of the hierarchy.

One implementation serves two roles:

* the **per-node block cache** (`StorageNode.block_cache`), keyed by
  shard key, consulted by ``ClusterStream._read_span`` before queueing a
  disk request — a hit skips the C-SCAN queue entirely;
* the **edge cache** inside each :class:`~repro.cache.edge.EdgeCacheNode`,
  keyed by placement key over whole-value offsets.

Coherence contract
------------------
Every block is tagged with the placement version it was filled at.  A
lookup passes the *authoritative* version
(:attr:`~repro.cluster.placement.ClusterPlacement.version`) and only
matching tags count as hits, so a stale block can never be served even
if invalidation is late.  On ``bump_version`` the cache tier invalidates
eagerly (:meth:`BlockCache.invalidate`), which also raises a per-key
floor so an in-flight fill that started before the bump cannot
re-insert old bytes after it.  The watch layer's cache-coherence probe
re-derives exactly this: no resident block's tag may differ from its
placement's current version.

Bytes are modelled, not moved: :func:`content_stamp` derives the
digest of a block deterministically from ``(key, version, index)``, so
"byte-identical through cold/warm/evicted paths" is testable — a cache
serving the right version produces the same stamps as the disk path by
construction, and a stale block would not.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.policy import EvictionPolicy, LRUPolicy
from repro.errors import CacheError
from repro.sim import Simulator

BlockId = Tuple[str, int]  # (content key, block index)

#: bytes per cached block, at both levels of the hierarchy.
BLOCK_BYTES = 30_000


def content_stamp(key: str, version: int, index: int) -> str:
    """Deterministic digest of one block's bytes at one version."""
    return hashlib.sha256(f"{key}@{version}#{index}".encode()).hexdigest()


def span_blocks(block_bytes: int, byte_off: int, nbytes: int) -> range:
    """Block indices covering ``nbytes`` starting at ``byte_off``."""
    first = byte_off // block_bytes
    last = (byte_off + max(nbytes, 1) - 1) // block_bytes
    return range(first, last + 1)


class BlockCache:
    """Bounded block store with pluggable eviction and version tags."""

    def __init__(self, simulator: Simulator, name: str,
                 capacity_bytes: int,
                 policy: Optional[EvictionPolicy] = None) -> None:
        self.block_bytes = BLOCK_BYTES
        if capacity_bytes < self.block_bytes:
            raise CacheError(
                f"cache {name!r} capacity {capacity_bytes} below one "
                f"block ({self.block_bytes})"
            )
        self.simulator = simulator
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.policy = policy if policy is not None else LRUPolicy()
        self.bytes_used = 0
        #: (key, block index) -> version tag
        self._blocks: Dict[BlockId, int] = {}
        #: key -> {block index -> version tag}: the same entries as
        #: ``_blocks`` grouped by key, kept in step wherever ``_blocks``
        #: changes so per-key reads never scan the whole cache.  A key
        #: with no resident block has no entry.
        self._by_key: Dict[str, Dict[int, int]] = {}
        #: key -> minimum version still admissible (raised by invalidate
        #: so a fill that raced a bump cannot resurrect stale bytes).
        self._floor: Dict[str, int] = {}
        metrics = simulator.obs.metrics
        # Aggregate cache.* instruments are shared across every cache in
        # the registry (same name -> same counter), so SLO specs can
        # gate the fleet-wide hit ratio; the per-cache gauge tracks
        # residency for the coherence probe and postmortems.
        self._m_lookups = metrics.counter("cache.lookups")
        self._m_hits = metrics.counter("cache.hits")
        self._m_misses = metrics.counter("cache.misses")
        self._m_fills = metrics.counter("cache.fills")
        self._m_evictions = metrics.counter("cache.evictions")
        self._m_invalidations = metrics.counter("cache.invalidations")
        self._m_bytes = metrics.gauge(f"cache.{name}.bytes")

    # -- lookups -------------------------------------------------------------
    def get(self, key: str, byte_off: int, nbytes: int,
            version: int) -> bool:
        """True iff every block covering the span is resident at ``version``."""
        self._m_lookups.inc()
        span = span_blocks(self.block_bytes, byte_off, nbytes)
        if len(span) == 1:
            # One block, as every paced element is: test and touch in
            # one pass.
            block = (key, span[0])
            if self._blocks.get(block) == version:
                self.policy.touched(block)
                self._m_hits.inc()
                return True
        elif all(self._blocks.get((key, index)) == version
                 for index in span):
            for index in span:
                self.policy.touched((key, index))
            self._m_hits.inc()
            return True
        self._m_misses.inc()
        return False

    def missing(self, key: str, byte_off: int, nbytes: int,
                version: int) -> List[int]:
        """Block indices of the span not resident at ``version``."""
        return [index
                for index in span_blocks(self.block_bytes, byte_off, nbytes)
                if self._blocks.get((key, index)) != version]

    # -- fills ---------------------------------------------------------------
    def put(self, key: str, byte_off: int, nbytes: int,
            version: int) -> int:
        """Insert the blocks covering a span, evicting as needed.

        Returns the number of blocks newly inserted.  A version below
        the key's invalidation floor is dropped silently — the fill
        raced a ``bump_version`` and its bytes are already stale.
        """
        if version < self._floor.get(key, 0):
            return 0
        inserted = 0
        for index in span_blocks(self.block_bytes, byte_off, nbytes):
            block = (key, index)
            old = self._blocks.get(block)
            if old == version:
                self.policy.touched(block)
                continue
            if old is not None:
                self._drop(block)
            while (self.bytes_used + self.block_bytes > self.capacity_bytes
                   and self._blocks):
                self._evict_one()
            self._blocks[block] = version
            self._by_key.setdefault(key, {})[index] = version
            self.bytes_used += self.block_bytes
            self.policy.admitted(block, float(self.block_bytes))
            inserted += 1
        if inserted:
            self._m_fills.inc(inserted)
            self._m_bytes.set(self.bytes_used)
        return inserted

    def _evict_one(self) -> None:
        block = self.policy.victim()
        if block not in self._blocks:
            raise CacheError(
                f"cache {self.name!r} policy evicted unknown block {block!r}"
            )
        del self._blocks[block]
        self._unindex(block)
        self.bytes_used -= self.block_bytes
        self._m_evictions.inc()

    def _drop(self, block: BlockId) -> None:
        if self._blocks.pop(block, None) is not None:
            self._unindex(block)
            self.bytes_used -= self.block_bytes
            self.policy.forgot(block)

    def _unindex(self, block: BlockId) -> None:
        key, index = block
        of_key = self._by_key[key]
        del of_key[index]
        if not of_key:
            del self._by_key[key]

    # -- invalidation --------------------------------------------------------
    def invalidate(self, key: str, min_version: int) -> int:
        """Drop every block of ``key`` older than ``min_version``.

        Also raises the key's floor so late fills of older versions are
        refused.  Returns the number of blocks dropped.
        """
        self._floor[key] = max(self._floor.get(key, 0), min_version)
        stale = [(key, index)
                 for index, tag in self._by_key.get(key, {}).items()
                 if tag < min_version]
        for block in stale:
            self._drop(block)
        if stale:
            self._m_invalidations.inc(len(stale))
            self._m_bytes.set(self.bytes_used)
        return len(stale)

    def clear(self) -> None:
        for block in list(self._blocks):
            self._drop(block)
        self._m_bytes.set(self.bytes_used)

    # -- introspection (watch probes, tests) ---------------------------------
    @property
    def resident_blocks(self) -> int:
        return len(self._blocks)

    def resident(self) -> Iterable[Tuple[BlockId, int]]:
        """(block, version-tag) pairs, deterministic order."""
        return sorted(self._blocks.items())
