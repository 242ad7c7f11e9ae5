"""Background re-replication and rebalancing, under a bandwidth cap.

When a node dies, every shard it held drops below its replication
factor.  The :class:`RepairManager` runs as a kick-driven DES worker:
membership changes (node down, node up) kick it awake, it scans for
under-replicated shards, and it copies each one to the next
rendezvous-ranked live node.

Repair traffic is deliberately second-class:

* the copy admits itself on *both* the source and destination nodes'
  admission controllers at :class:`~repro.admission.controller.Priority`
  ``BACKGROUND``, capped at :data:`CAP_BPS` — so an interactive stream
  can preempt it, and past the high-watermark it is shed outright;
* a shed/preempted copy backs off (virtual time) and retries; after
  :data:`MAX_ATTEMPTS` the shard is deferred until the next membership
  kick.

That is the invariant the node-kill benchmark gates: repair restores R
without ever starving an admitted interactive stream.

``rebalance()`` reuses the same capped copy path to move shards onto a
newly joined node (and drop the now-surplus lowest-ranked replicas), so
join traffic is bounded exactly like repair traffic.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Set, Tuple
from weakref import ref

from repro.admission.controller import Priority, QoSContract
from repro.cluster import hashing
from repro.errors import (
    AdmissionError,
    ClusterError,
    FaultError,
    NodeDownError,
    PreemptedError,
)
from repro.sim import Delay, Process, SimEvent, WaitEvent

#: the rate a repair or rebalance copy asks for, and its chunk: a
#: preemption or a node death aborts a copy at the next chunk.
CAP_BPS = 12_000_000.0
CHUNK_BITS = 1_000_000
#: attempts at one shard copy, backing off from BACKOFF_S doubling.
MAX_ATTEMPTS = 4
BACKOFF_S = 0.02
#: replicas a hot placement gets above its declared R.
BOOST_EXTRA = 1


class RepairManager:
    """Restores replication factor R with background, capped copies."""

    def __init__(self, cluster) -> None:
        # The cluster owns this manager and holds it; the manager holds
        # the cluster back weakly, so the two are freed by reference
        # counting when a run ends (DESIGN.md decision 23).
        self._cluster = ref(cluster)
        self.repairs = 0
        self.repaired_bits = 0
        metrics = cluster.simulator.obs.metrics
        self._m_repairs = metrics.counter("cluster.repairs")
        self._m_repair_bits = metrics.counter("cluster.repair_bits")
        self._m_trimmed = metrics.counter("cluster.trimmed")
        self._m_rebalanced = metrics.counter("cluster.rebalanced")
        self._m_trim_deferred = metrics.counter("cluster.trim_deferred")
        self._m_boosts = metrics.counter("cluster.replica_boosts")
        self._m_unboosts = metrics.counter("cluster.replica_unboosts")
        self._proc: Optional[Process] = None
        self._kick_event: Optional[SimEvent] = None
        self._stopping = False
        #: shard keys whose repair failed its attempt budget; skipped
        #: until the next membership kick (prevents a retry spin).
        self._deferred: Set[str] = set()
        #: shard keys whose trim found a replica with attached readers;
        #: reader_detached() kicks the worker when the last one leaves.
        self._trim_waiting: Set[str] = set()

    @property
    def cluster(self):
        return self._cluster()

    # -- lifecycle -----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._proc is not None and not self._proc.done

    def start(self) -> None:
        """Spawn the repair worker (idempotent)."""
        if self.running:
            return
        self._stopping = False
        self._proc = self.cluster.simulator.spawn(self._run(),
                                                  name="cluster-repair")

    def kick(self) -> None:
        """Membership changed: re-scan (and forgive deferred shards)."""
        self._deferred.clear()
        if self._kick_event is not None and not self._kick_event.triggered:
            self._kick_event.trigger()

    def stop(self) -> None:
        """Ask the worker to exit at its next scan point."""
        self._stopping = True
        if self._kick_event is not None and not self._kick_event.triggered:
            self._kick_event.trigger()

    # -- the worker ----------------------------------------------------------
    def _work(self) -> List[Tuple[object, object, str]]:
        todo = [(placement, shard, "repair")
                for placement, shard in self.cluster.under_replicated()
                if shard.key not in self._deferred]
        todo += [(placement, shard, "trim")
                 for placement, shard in self.cluster.over_replicated()
                 if shard.key not in self._deferred]
        return todo

    def _run(self) -> Generator:
        while True:
            if self._stopping:
                return
            work = self._work()
            if not work:
                self._kick_event = self.cluster.simulator.event("repair-kick")
                yield WaitEvent(self._kick_event)
                self._kick_event = None
                continue
            for placement, shard, action in work:
                if self._stopping:
                    return
                try:
                    if action == "repair":
                        yield from self._repair_shard(placement, shard)
                    else:
                        self._trim_shard(placement, shard)
                except (FaultError, AdmissionError, ClusterError):
                    self._deferred.add(shard.key)

    def _repair_shard(self, placement, shard) -> Generator:
        """Copy a shard to a new node, backing off when shed/preempted."""
        attempts = 0
        while True:
            try:
                target = self._pick_target(shard)
                yield from self.copy_shard(placement, shard, target)
                self.repairs += 1
                self._m_repairs.inc()
                return
            except (AdmissionError, FaultError):
                attempts += 1
                if attempts >= MAX_ATTEMPTS:
                    raise
                yield Delay(BACKOFF_S * 2 ** (attempts - 1))

    def _pick_target(self, shard):
        """Next rendezvous-ranked live node that can hold the shard."""
        for name in hashing.rank(shard.key, sorted(self.cluster._nodes)):
            if name in shard.replicas:
                continue
            node = self.cluster._nodes[name]
            if not node.available:
                continue
            if node.device.allocator.largest_free_extent < shard.nbytes:
                continue
            return node
        raise ClusterError(
            f"no live node can host a new replica of {shard.key!r} "
            f"({shard.nbytes} bytes)"
        )

    def copy_shard(self, placement, shard, target) -> Generator:
        """DES subroutine: one capped, admission-controlled shard copy.

        Reads from the least-loaded live holder and writes to ``target``,
        chunked so a mid-copy preemption or node death aborts promptly
        (freeing the half-written extent) instead of completing on a
        corpse.
        """
        cluster = self.cluster
        sources = cluster._route(shard)
        if not sources:
            raise NodeDownError(
                f"no live source replica of {shard.key!r} to repair from"
            )
        src = sources[0]
        extent = target.device.allocate(shard.nbytes)
        contract = QoSContract(CAP_BPS, Priority.BACKGROUND,
                               min_fraction=0.25, queue_timeout_s=0.001)
        tracer = cluster.simulator.obs.tracer
        try:
            src_res = src.admission.try_admit(
                contract, label=f"repair:{shard.key}:read")
            try:
                dst_res = target.admission.try_admit(
                    contract, label=f"repair:{shard.key}:write")
                try:
                    rate = min(src_res.bps, dst_res.bps)
                    span = tracer.begin(
                        "cluster.repair", "cluster", track="repair",
                        shard=shard.key, src=src.name, dst=target.name,
                    ) if tracer.enabled else None
                    try:
                        bits_left = shard.nbytes * 8
                        while bits_left > 0:
                            if not src.available or not target.available:
                                raise NodeDownError(
                                    f"repair of {shard.key!r} lost "
                                    f"{src.name if not src.available else target.name!r}"
                                )
                            if src_res.preempted or dst_res.preempted:
                                raise PreemptedError(
                                    f"repair of {shard.key!r} preempted by "
                                    f"interactive work"
                                )
                            chunk = min(CHUNK_BITS, bits_left)
                            yield Delay(chunk / rate)
                            bits_left -= chunk
                            self.repaired_bits += chunk
                            self._m_repair_bits.inc(chunk)
                            src.device.total_bits_read += chunk
                            src.device._m_bits_read.inc(chunk)
                            target.device._account_written(chunk)
                    finally:
                        if span is not None:
                            span.end()
                finally:
                    dst_res.release()
            finally:
                src_res.release()
        except BaseException:
            target.device.free(extent)
            raise
        shard.replicas[target.name] = extent
        cluster._refresh_health()

    def _trim_shard(self, placement, shard) -> None:
        """Drop the lowest-ranked surplus live replicas (post-restore).

        A replica an in-flight ClusterStream is positioned on is never
        freed under it (that would turn a routine trim into a data-path
        error).  Busy replicas defer: the shard parks in ``_deferred``
        (so the worker loop does not spin on it) and in
        ``_trim_waiting``; the stream's detach hook kicks us when the
        last reader leaves.
        """
        live = self.cluster.live_replicas(shard)
        deferred = False
        for name in hashing.rank(shard.key, live)[placement.replication:]:
            if shard.readers.get(name, 0) > 0:
                deferred = True
                continue
            extent = shard.replicas.pop(name)
            self.cluster._nodes[name].device.free(extent)
            self._m_trimmed.inc()
        if deferred:
            self._deferred.add(shard.key)
            self._trim_waiting.add(shard.key)
            self._m_trim_deferred.inc()
        self.cluster._refresh_health()

    def reader_detached(self, shard) -> None:
        """A ClusterStream left a replica; finish any trim waiting on it."""
        if shard.key in self._trim_waiting:
            self._trim_waiting.discard(shard.key)
            self.kick()

    # -- flash-crowd replication boost ---------------------------------------
    def boost(self, placement) -> int:
        """Temporarily raise a hot placement's replication factor.

        The raise is bounded by live membership; the repair worker then
        treats every shard as under-replicated and fills the gap with
        the usual capped BACKGROUND copies.  Callers *must* pair this
        with :meth:`unboost` once the crowd passes — the watch layer's
        teardown probe holds ``replication`` to ``declared_replication``.
        """
        target = min(placement.declared_replication + BOOST_EXTRA,
                     len(self.cluster.live_nodes))
        if target <= placement.replication:
            return placement.replication
        placement.replication = target
        self._m_boosts.inc()
        decisions = self.cluster._decisions
        if decisions.enabled:
            decisions.emit("replica-boost", placement.key, actor="repair",
                           replication=target,
                           declared=placement.declared_replication)
        self.cluster._refresh_health()
        self.kick()
        return target

    def unboost(self, placement) -> int:
        """Restore a boosted placement to its declared replication."""
        declared = placement.declared_replication
        if placement.replication == declared:
            return declared
        placement.replication = declared
        self._m_unboosts.inc()
        decisions = self.cluster._decisions
        if decisions.enabled:
            decisions.emit("replica-unboost", placement.key, actor="repair",
                           replication=declared)
        self.cluster._refresh_health()
        self.kick()
        return declared

    # -- rebalance after join ------------------------------------------------
    def rebalance(self) -> Generator:
        """DES subroutine: move shards onto newly joined nodes.

        Re-derives each shard's rendezvous top-R over the current live
        membership, copies (capped, background) to desired nodes that
        lack a replica, then frees live replicas that fell out of the
        top-R.  Returns the number of shard copies moved.
        """
        cluster = self.cluster
        moved = 0
        live_names = [node.name for node in cluster.live_nodes]
        for placement in cluster.placements:
            for shard in placement.shards:
                desired = hashing.top(shard.key, live_names,
                                      placement.replication)
                for name in desired:
                    if name in shard.replicas:
                        continue
                    yield from self.copy_shard(placement, shard,
                                               cluster._nodes[name])
                    moved += 1
                for name in cluster.live_replicas(shard):
                    if name not in desired:
                        if shard.readers.get(name, 0) > 0:
                            # Same rule as _trim_shard: never free a
                            # replica under an attached reader; the
                            # detach hook re-kicks the trim.
                            self._deferred.add(shard.key)
                            self._trim_waiting.add(shard.key)
                            self._m_trim_deferred.inc()
                            continue
                        extent = shard.replicas.pop(name)
                        cluster._nodes[name].device.free(extent)
                        self._m_trimmed.inc()
        self._m_rebalanced.inc(moved)
        cluster._refresh_health()
        return moved
