"""Simulated storage devices.

Each device model combines:

* a byte capacity with extent allocation;
* a streaming bandwidth with admission control — a device can only
  sustain concurrent real-time streams up to its transfer rate, which is
  what makes the paper's same-device video-mixing example fail;
* access latencies: per-open seek for disks, disc-swap for the jukebox.

Three models cover the paper's storage discussion: magnetic disk, writable
CD ("improvements in storage media such as high-capacity magnetic disks
and writable CDs") and the analog LaserVision jukebox ("an analog
videodisc jukebox provides a video storage capacity difficult to achieve
using magnetic disks").
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from repro.errors import StorageError
from repro.net.channel import BandwidthLedger
from repro.sim import Delay, SettledCounter, Simulator
from repro.storage.extents import Extent, ExtentAllocator

_reservation_ids = itertools.count(1)

#: how far a read taken over from a cut clock-out run has got (see
#: ``DeviceReservation.read``).
SEEKED, READ = 1, 2


class DeviceReservation:
    """A streaming-bandwidth slice of one device, held by one stream.

    Satisfies the ``io_stream`` protocol of the reader/writer activities:
    ``read(bits)`` / ``write(bits)`` are DES subroutines charging transfer
    time at the reserved rate.  The first access after ``open()`` pays the
    device's positioning latency.
    """

    def __init__(self, device: "Device", bps: float, label: str) -> None:
        self.device = device
        self.bps = bps
        self.label = label
        self.id = next(_reservation_ids)
        self._bits_read = 0
        #: the clocked-out stream run reading through this reservation,
        #: if any (it is on ``device._clocked`` too): it settles
        #: ``bits_read`` on read and is cut before a release.
        self.clocked = None
        self.bits_written = 0
        self.released = False
        self._positioned = False

    bits_read = SettledCounter("_bits_read")

    def open(self) -> Generator:
        """Position the device (seek / disc swap) before streaming."""
        latency = self.device.position_latency_s()
        if latency > 0:
            yield Delay(latency)
        self._positioned = True

    def _transfer(self, bits: int) -> Generator:
        if self.released:
            raise StorageError(f"reservation {self.label!r} was released")
        if not self._positioned:
            yield from self.open()
        yield from self._move(bits)

    def _move(self, bits: int) -> Generator:
        """The transfer proper, once the device is in position."""
        duration = bits / self.bps
        faults = self.device._faults
        if faults is not None:
            # Injected outage/slowdown windows (see repro.faults.injector):
            # an outage blocks the transfer until the window ends (or
            # raises, per the plan's mode); a slowdown stretches it.
            wait_s, duration = faults.adjust(
                self.device.simulator.now_s, duration, self.device.name
            )
            if wait_s > 0:
                yield Delay(wait_s)
        if duration > 0:
            yield Delay(duration)

    def read(self, bits: int, begun: int = 0) -> Generator:
        """``begun`` takes over a read that a cut clock-out run had
        started and slept through so far: ``SEEKED``, the device is in
        position now; ``READ``, the whole transfer is over."""
        if not begun:
            yield from self._transfer(bits)
        elif begun == SEEKED:
            yield from self._move(bits)
        self._bits_read += bits
        self.device._total_bits_read += bits
        self.device._m_bits_read.inc(bits)

    def release(self) -> None:
        if not self.released:
            if self.clocked is not None:
                self.clocked.cut()
            self.released = True
            self.device._release(self)


class Device(BandwidthLedger):
    """A storage device: capacity, streaming bandwidth, latency model."""

    kind = "device"
    _reservation_class = DeviceReservation

    def __init__(self, simulator: Simulator, name: str, capacity_bytes: int,
                 bandwidth_bps: float, seek_s: float = 0.0) -> None:
        if bandwidth_bps <= 0:
            raise StorageError(f"device bandwidth must be positive, got {bandwidth_bps}")
        super().__init__(simulator, bandwidth_bps, "storage.admission_failures",
                         f"storage.device.{name}.utilization")
        self.name = name
        self.seek_s = seek_s
        self.allocator = ExtentAllocator(name, capacity_bytes)
        self._total_bits_read = 0
        self.total_bits_written = 0
        metrics = simulator.obs.metrics
        self._m_bits_read = metrics.counter(f"storage.device.{name}.bits_read")
        self._m_bits_written = metrics.counter(f"storage.device.{name}.bits_written")

    @property
    def bandwidth_bps(self) -> float:
        """The streaming bandwidth: the ledger's ``capacity_bps``."""
        return self.capacity_bps

    @bandwidth_bps.setter
    def bandwidth_bps(self, bps: float) -> None:
        self.capacity_bps = bps

    @property
    def total_bits_read(self) -> int:
        for run in self._clocked:
            run.settle()
        return self._total_bits_read

    @total_bits_read.setter
    def total_bits_read(self, bits: int) -> None:
        self._total_bits_read = bits

    def _account_written(self, bits: int) -> None:
        self.total_bits_written += bits
        self._m_bits_written.inc(bits)

    def _refusal(self, bps: float) -> str:
        return (f"device {self.name!r}: cannot admit stream at {bps:g} b/s "
                f"({self.available_bps:g} of {self.capacity_bps:g} b/s available)")

    def position_latency_s(self) -> float:
        """Latency to position before a stream starts (seek, swap...)."""
        return self.seek_s

    # -- allocation facade -------------------------------------------------
    def allocate(self, nbytes: int) -> Extent:
        return self.allocator.allocate(nbytes)

    def free(self, extent: Extent) -> None:
        self.allocator.free(extent)

    @property
    def free_bytes(self) -> int:
        return self.allocator.free_bytes


class MagneticDisk(Device):
    """A 1993-era high-capacity magnetic disk.

    Defaults: 2 GB, 48 Mb/s sustained transfer, 15 ms average seek —
    enough for a couple of compressed video streams but nowhere near two
    concurrent uncompressed ones, which is the point of benchmark C1.
    """

    kind = "magnetic-disk"

    def __init__(self, simulator: Simulator, name: str = "disk",
                 capacity_bytes: int = 2_000_000_000,
                 bandwidth_bps: float = 48_000_000.0,
                 seek_s: float = 0.015) -> None:
        super().__init__(simulator, name, capacity_bytes, bandwidth_bps, seek_s)


class WritableCD(Device):
    """A writable CD: big for the time, slow to stream (~1.2 Mb/s x N)."""

    kind = "writable-cd"

    def __init__(self, simulator: Simulator, name: str = "cd",
                 capacity_bytes: int = 650_000_000,
                 bandwidth_bps: float = 4_800_000.0,
                 seek_s: float = 0.2) -> None:
        super().__init__(simulator, name, capacity_bytes, bandwidth_bps, seek_s)


class JukeboxDevice(Device):
    """An analog LaserVision videodisc jukebox.

    Huge capacity; one stream at a time; positioning may require a disc
    swap (seconds, not milliseconds).  Reads deliver *analog* video that
    must pass through a digitizer activity.
    """

    kind = "videodisc-jukebox"

    def __init__(self, simulator: Simulator, name: str = "jukebox",
                 discs: int = 100, capacity_per_disc: int = 10_000_000_000,
                 bandwidth_bps: float = 270_000_000.0,
                 swap_s: float = 8.0, seek_s: float = 0.5) -> None:
        super().__init__(simulator, name, discs * capacity_per_disc,
                         bandwidth_bps, seek_s)
        self.discs = discs
        self.capacity_per_disc = capacity_per_disc
        self.swap_s = swap_s
        self._loaded_disc: Optional[int] = None
        self.swap_count = 0

    _pending_swap_s: float = 0.0

    def load_disc(self, disc: int) -> float:
        """Select a disc; the swap cost is paid at the next stream open."""
        if not 0 <= disc < self.discs:
            raise StorageError(f"jukebox has discs 0..{self.discs - 1}, got {disc}")
        if self._loaded_disc == disc:
            return 0.0
        self._loaded_disc = disc
        self.swap_count += 1
        self._pending_swap_s = self.swap_s
        return self.swap_s

    def reserve(self, bps: float, label: str = "stream") -> DeviceReservation:
        """Admit at most one concurrent analog stream."""
        # Analog playback: exactly one stream at a time, regardless of rate.
        if self._reservations:
            self._refuse(
                f"jukebox {self.name!r} is playing; analog devices serve one stream"
            )
        return super().reserve(bps, label)

    def position_latency_s(self) -> float:
        # Positioning pays the seek plus any pending disc swap; an unloaded
        # jukebox must always swap a disc in first.
        swap = self._pending_swap_s if self._loaded_disc is not None else self.swap_s
        self._pending_swap_s = 0.0
        return self.seek_s + swap
