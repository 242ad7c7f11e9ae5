"""Edge cache nodes: RAM-backed delivery fronting cluster placement.

An :class:`EdgeCacheNode` is the delivery half of the cache hierarchy:
a fat NIC :class:`~repro.net.channel.Channel` arbitrated by its own
:class:`~repro.admission.controller.AdmissionController`, backed by a
:class:`~repro.cache.block.BlockCache` — no disk, no scheduler.  A hit
streams straight from edge memory at the contracted rate; a miss reads
through the cluster (at the *caller's* priority — the user is waiting)
and demand-fills the edge on the way out.

Edges are killable: they expose the ``name``/``live``/``kill``/
``restore`` surface the fault injector's ``edge-cache-outage`` arm
expects, and a kill drops the cache contents (it models RAM).  Readers degrade
to **pass-through** — the wrapped :class:`ClusterStream` keeps serving
straight from the storage nodes — and re-attach to a surviving edge on
the next read, so an edge outage costs hit ratio, never availability.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Generator, Optional

from repro.admission.controller import (
    AdmissionController,
    Priority,
    QoSContract,
)
from repro.cache.block import (
    BLOCK_BYTES,
    BlockCache,
    content_stamp,
    span_blocks,
)
from repro.cache.policy import EvictionPolicy
from repro.cluster import hashing
from repro.errors import AdmissionError, CacheError
from repro.net.channel import Channel, Reservation
from repro.sim import Delay, Simulator


@lru_cache(maxsize=4096)
def _stamp_bytes(key: str, version: int, index: int) -> bytes:
    """What one block chains into a digest.  Pure in its arguments: the
    memo spares a crowd on one block a SHA-256 of its name per read."""
    return content_stamp(key, version, index).encode()


#: admission queue bound on an edge's NIC.
MAX_QUEUE = 64


class EdgeCacheNode:
    """A named, killable cache node: NIC + admission + block cache."""

    def __init__(self, simulator: Simulator, name: str,
                 bandwidth_bps: float = 240_000_000.0,
                 capacity_bytes: int = 60_000_000,
                 policy: Optional[EvictionPolicy] = None) -> None:
        self.simulator = simulator
        self.name = name
        self.nic = Channel(simulator, bandwidth_bps, name=f"{name}.nic")
        self.admission = AdmissionController(simulator, self.nic,
                                             max_queue=MAX_QUEUE, name=name)
        self.cache = BlockCache(simulator, name, capacity_bytes, policy)
        self.live = True
        self.deaths = 0
        self.bits_served = 0
        self.bits_filled = 0

    def kill(self) -> None:
        """Edge outage: contents are RAM, so the cache dies with it."""
        if not self.live:
            return
        self.live = False
        self.deaths += 1
        self.cache.clear()

    def restore(self) -> None:
        """Bring the edge back cold; it refills on demand/prefill."""
        if not self.live:
            self.live = True

    def account_hit(self, bits: int) -> None:
        self.bits_served += bits

    def account_fill(self, bits: int) -> None:
        self.bits_filled += bits

    def __repr__(self) -> str:
        state = "live" if self.live else "down"
        return (f"EdgeCacheNode({self.name!r}, {state}, "
                f"{self.cache.resident_blocks} blocks, "
                f"{self.bits_served} bits served)")


class EdgeStream:
    """A read stream through the cache hierarchy.

    Duck-types the ``read(bits)`` DES-subroutine protocol of
    :class:`~repro.cluster.placement.ClusterStream` and wraps one: hits
    are served from the rendezvous-chosen edge under an edge admission
    reservation; misses (and pass-through, when no edge will serve)
    seek the inner cluster stream to the current offset and read
    through it, demand-filling the edge.

    ``digest`` chains the :func:`~repro.cache.block.content_stamp` of
    every block served, in order — two streams that read the same value
    end with equal digests iff they saw byte-identical content,
    whichever mix of cold/warm/evicted/pass-through paths served them.
    """

    def __init__(self, tier, value, bps: float, label: str,
                 priority: Priority, queue_timeout_s: float,
                 min_fraction: float = 1.0) -> None:
        self.tier = tier
        self.simulator = tier.simulator
        self.placement = tier.cluster.placement_of(value)
        self.bps = bps
        self.label = label
        self.priority = priority
        self.queue_timeout_s = queue_timeout_s
        self.inner = tier.cluster.open_read(
            value, bps, label=f"{label}:origin", priority=priority,
            queue_timeout_s=queue_timeout_s, min_fraction=min_fraction)
        self.bits_read = 0
        self.hits = 0
        self.misses = 0
        self.passthroughs = 0
        self.edge_switches = 0
        self.closed = False
        self._pos_bits = 0
        self._edge: Optional[EdgeCacheNode] = None
        self._reservation: Optional[Reservation] = None
        self._digest = hashlib.sha256()

    # -- introspection -------------------------------------------------------
    @property
    def serving_edge(self) -> Optional[str]:
        return self._edge.name if self._edge is not None else None

    @property
    def digest(self) -> str:
        """Running digest of everything served so far."""
        return self._digest.hexdigest()

    @property
    def exhausted(self) -> bool:
        return self._pos_bits >= self.placement.nbytes * 8

    # -- the read path -------------------------------------------------------
    def seek(self, bit_offset: int) -> None:
        if not 0 <= bit_offset <= self.placement.nbytes * 8:
            raise CacheError(
                f"seek to bit {bit_offset} outside {self.placement.key!r}"
            )
        self._pos_bits = bit_offset

    def read(self, bits: int, deadline: Optional[float] = None) -> Generator:
        """DES subroutine: read ``bits``, hit-serving or reading through."""
        if self.closed:
            raise CacheError(f"stream {self.label!r} is closed")
        placement = self.placement
        if self._pos_bits + bits > placement.nbytes * 8:
            raise CacheError(
                f"stream {self.label!r} read past end of "
                f"{placement.key!r}"
            )
        tier = self.tier
        if tier.detector.note(placement):
            tier._went_hot(placement)
        reservation = self._reservation
        if (reservation is None or reservation.released
                or reservation.preempted or not self._edge.live):
            yield from self._ensure()
        version = placement.version
        byte_off = self._pos_bits // 8
        span_bytes = (bits + 7) // 8
        edge = self._edge
        if (edge is not None and edge.live
                and edge.cache.get(placement.key, byte_off, span_bytes,
                                   version)):
            yield Delay(bits / self._reservation.bps)
            edge.account_hit(bits)
            self.hits += 1
            self.tier._m_edge_bits.inc(bits)
        else:
            self.inner.seek(self._pos_bits)
            yield from self.inner.read(bits, deadline)
            if edge is None:
                self.passthroughs += 1
            else:
                self.misses += 1
                if edge.live:
                    edge.cache.put(placement.key, byte_off, span_bytes,
                                   version)
                    edge.account_fill(bits)
        for index in span_blocks(BLOCK_BYTES, byte_off, span_bytes):
            self._digest.update(_stamp_bytes(placement.key, version, index))
        self._pos_bits += bits
        self.bits_read += bits

    # -- edge attachment -----------------------------------------------------
    def _ensure(self) -> Generator:
        """(Re)attach to the best live edge, or drop to pass-through.

        ``read`` enters only when the stream is not attached: no edge
        yet, the edge died, or the reservation was released or preempted.
        """
        had_edge = self._edge is not None
        self._detach()
        names = self.tier.live_edge_names
        for name in hashing.rank(self.placement.key, names):
            candidate = self.tier.edge(name)
            contract = QoSContract(self.bps, self.priority,
                                   queue_timeout_s=self.queue_timeout_s)
            try:
                reservation = yield from candidate.admission.admit(
                    contract, label=self.label)
            except AdmissionError:
                continue
            self._edge, self._reservation = candidate, reservation
            if had_edge:
                self.edge_switches += 1
            return
        # No edge will serve us: pass-through to the cluster.  The
        # inner stream admits per storage node on its own.
        self.tier._m_passthrough.inc()

    def _detach(self) -> None:
        if self._reservation is not None and not self._reservation.released:
            self._reservation.release()
        self._edge = None
        self._reservation = None

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._detach()
            self.inner.close()

    def __enter__(self) -> "EdgeStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"EdgeStream({self.label!r} via {self.serving_edge!r}, "
                f"{self.hits} hits / {self.misses} misses / "
                f"{self.passthroughs} passthrough)")
