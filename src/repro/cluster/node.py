"""One storage node of the scale-out cluster tier.

A :class:`StorageNode` bundles the existing single-machine storage stack
into a unit the cluster can kill, restore, and route around:

* a :class:`~repro.storage.devices.MagneticDisk` for capacity and extent
  allocation;
* a started :class:`~repro.storage.scheduler.DiskScheduler` as the
  node's single timed data path (head seeks + transfer time);
* a NIC :class:`~repro.net.channel.Channel` whose bandwidth a per-node
  :class:`~repro.admission.controller.AdmissionController` arbitrates
  between interactive streams and background repair traffic.

``kill()`` models a whole-node outage: the scheduler stops, which fails
every queued request with
:class:`~repro.errors.SchedulerStoppedError` — a :class:`FaultError` —
so in-flight cluster reads surface a retryable failure and fail over to
a surviving replica instead of deadlocking.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.admission.controller import AdmissionController
from repro.net.channel import Channel
from repro.sim import Simulator
from repro.storage.devices import MagneticDisk
from repro.storage.extents import Extent
from repro.storage.scheduler import DiskScheduler

#: every node's disk capacity; the disk is the scheduler's default
#: C-SCAN geometry and its NIC the controller's default queue.
CAPACITY_BYTES = 2_000_000_000


class StorageNode:
    """A named cluster member: disk + scheduler + admission-controlled NIC."""

    def __init__(self, simulator: Simulator, name: str,
                 bandwidth_bps: float = 48_000_000.0) -> None:
        self.simulator = simulator
        self.name = name
        self.device = MagneticDisk(simulator, f"{name}.disk",
                                   capacity_bytes=CAPACITY_BYTES,
                                   bandwidth_bps=bandwidth_bps)
        self.scheduler = DiskScheduler(simulator, transfer_bps=bandwidth_bps)
        self.scheduler.start()
        self.nic = Channel(simulator, bandwidth_bps, name=f"{name}.nic")
        self.admission = AdmissionController(simulator, self.nic, name=name)
        self.live = True
        self.bits_read = 0
        self.deaths = 0
        #: optional per-node BlockCache, attached by repro.cache.attach_caches.
        #: ClusterStream._read_span consults it before queueing disk reads.
        self.block_cache = None
        #: cluster hooks, wired by ClusterPlacementManager.add_node.
        self.on_down: Optional[Callable[["StorageNode"], None]] = None
        self.on_up: Optional[Callable[["StorageNode"], None]] = None

    @property
    def available(self) -> bool:
        """Can this node serve reads right now?

        ``live`` covers whole-node kills; ``scheduler.running`` also
        catches scheduler-outage faults injected below the node level.
        """
        return self.live and self.scheduler.running

    @property
    def load_key(self):
        """Deterministic routing sort key: least loaded first, name-tied.

        Every component here is a live O(1) counter: the admission
        queue depth and disk queue depth are incremented synchronously
        with enqueue, and ``utilization`` divides the controller's own
        reserved-bps ledger.  Crucially none of it reads the metrics
        snapshot — NIC traffic accounting is *batched* behind
        MetricsRegistry flush hooks (PR 4), so a snapshot-derived score
        lags the crowd by a flush interval and keeps routing new
        readers at the replica that was idle one snapshot ago.  The
        disk queue depth is what actually sees a flash crowd first:
        admitted readers stack up in the C-SCAN queue long before NIC
        reservations saturate.  ``in_service`` counts the request the
        scheduler already picked — a disk mid-transfer is load even
        when nothing is queued behind it.
        """
        return (self.admission.queue_depth + self.scheduler.queue_depth
                + self.scheduler.in_service,
                self.admission.utilization, self.name)

    def position_of(self, extent: Extent, byte_offset: int = 0) -> int:
        """Map a byte inside an extent to a scheduler head position."""
        capacity = self.device.allocator.capacity_bytes
        byte_pos = min(extent.offset + byte_offset, capacity - 1)
        return min(self.scheduler.cylinders - 1,
                   byte_pos * self.scheduler.cylinders // capacity)

    def account_read(self, bits: int) -> None:
        self.bits_read += bits
        self.device._account_read(bits)

    def kill(self) -> None:
        """Whole-node outage: stop serving, fail queued requests."""
        if not self.live:
            return
        self.live = False
        self.deaths += 1
        self.scheduler.stop()
        if self.on_down is not None:
            self.on_down(self)

    def restore(self) -> None:
        """Bring a killed node back; its extents (and data) survive."""
        if self.live:
            return
        self.live = True
        if not self.scheduler.running:
            self.scheduler.start()
        if self.on_up is not None:
            self.on_up(self)

    def stop(self) -> None:
        """Shut the node down cleanly (scenario teardown)."""
        if self.scheduler.running:
            self.scheduler.stop()
