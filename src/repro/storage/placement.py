"""Data placement (paper §3.3).

The placement manager records which device holds each stored value and
exposes exactly the client-visible placement the paper argues for:

* ``device_of`` / ``co_located`` — "make visible to the client some
  aspect of the physical storage structure so that the two values can be
  assured to be available simultaneously";
* ``can_stream_together`` — the admission question behind the video-
  mixing example;
* ``copy`` — the physical-data-independence fallback ("copy one video
  value to a temporary area on a second device.  This could be so
  time-consuming as to destroy any sense of interactivity"), implemented
  as a DES process whose duration benchmark C1 measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.errors import PlacementError
from repro.sim import Simulator
from repro.storage.devices import Device
from repro.storage.extents import Extent
from repro.values.base import MediaValue


@dataclass(frozen=True, slots=True)
class Placement:
    """Where one value lives."""

    value_id: int
    device_name: str
    extent: Extent
    nbytes: int


class PlacementManager:
    """Tracks value -> device placements across a device pool."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._devices: Dict[str, Device] = {}
        self._placements: Dict[int, Placement] = {}
        self.copy_count = 0
        metrics = simulator.obs.metrics
        self._m_placements = metrics.counter("storage.placements")
        self._m_copies = metrics.counter("storage.copies")
        self._m_copy_s = metrics.histogram("storage.copy_s")

    # -- device pool ---------------------------------------------------------
    def add_device(self, device: Device) -> Device:
        if device.name in self._devices:
            raise PlacementError(f"device {device.name!r} already registered")
        self._devices[device.name] = device
        return device

    def device(self, name: str) -> Device:
        try:
            return self._devices[name]
        except KeyError:
            raise PlacementError(f"unknown device {name!r}") from None

    # -- placement -----------------------------------------------------------
    @staticmethod
    def _value_bytes(value: MediaValue) -> int:
        return max(1, (value.data_size_bits() + 7) // 8)

    def place(self, value: MediaValue, device_name: str) -> Placement:
        """Store a value on a specific device (allocates an extent)."""
        vid = id(value)
        if vid in self._placements:
            raise PlacementError("value is already placed; use move() or remove() first")
        device = self.device(device_name)
        nbytes = self._value_bytes(value)
        extent = device.allocate(nbytes)
        placement = Placement(vid, device_name, extent, nbytes)
        self._placements[vid] = placement
        self._m_placements.inc()
        return placement

    def place_auto(self, value: MediaValue) -> Placement:
        """Place on the device with the most free space."""
        if not self._devices:
            raise PlacementError("no devices registered")
        best = max(self._devices.values(), key=lambda d: d.free_bytes)
        return self.place(value, best.name)

    def remove(self, value: MediaValue) -> None:
        placement = self._placement_of(value)
        self.device(placement.device_name).free(placement.extent)
        del self._placements[placement.value_id]

    def _placement_of(self, value: MediaValue) -> Placement:
        try:
            return self._placements[id(value)]
        except KeyError:
            raise PlacementError("value has no placement") from None

    def device_of(self, value: MediaValue) -> Device:
        return self.device(self._placement_of(value).device_name)

    def is_placed(self, value: MediaValue) -> bool:
        return id(value) in self._placements

    # -- the §3.3 placement questions --------------------------------------
    def can_stream_together(self, values: List[MediaValue]) -> bool:
        """Could all values stream concurrently from their current devices?

        Sums each value's data rate against its device's *currently*
        available streaming bandwidth.
        """
        demand: Dict[str, float] = {}
        for value in values:
            placement = self._placement_of(value)
            demand[placement.device_name] = (
                demand.get(placement.device_name, 0.0) + value.data_rate_bps()
            )
        return all(
            self.device(name).can_admit(bps) for name, bps in demand.items()
        )

    def pick_device_for_copy(self, value: MediaValue,
                             avoid: Optional[str] = None) -> Device:
        """A device (not ``avoid``) with space and bandwidth for ``value``."""
        nbytes = self._value_bytes(value)
        bps = value.data_rate_bps()
        candidates = [
            d for d in self._devices.values()
            if d.name != avoid
            and d.allocator.largest_free_extent >= nbytes
            and d.can_admit(bps)
        ]
        if not candidates:
            raise PlacementError(
                f"no device (avoiding {avoid!r}) can hold {nbytes} bytes "
                f"and stream at {bps:g} b/s"
            )
        return max(candidates, key=lambda d: d.free_bytes)

    def copy(self, value: MediaValue, dst_device_name: str) -> Generator:
        """DES subroutine: copy a value to another device.

        Pays full read time on the source device and write time on the
        destination (overlapped: the slower side dominates), then
        re-points the placement at the destination and frees the source
        extent.  Returns the new placement.
        """
        placement = self._placement_of(value)
        if placement.device_name == dst_device_name:
            raise PlacementError(
                f"value already resides on {dst_device_name!r}"
            )
        src = self.device(placement.device_name)
        dst = self.device(dst_device_name)
        nbytes = placement.nbytes
        new_extent = dst.allocate(nbytes)
        # The copy runs at the slower of the two sides' available bandwidth;
        # read and write overlap, so the transfer time is paid once.
        rate = min(src.available_bps, dst.available_bps)
        if rate <= 0:
            dst.free(new_extent)
            raise PlacementError(
                f"no streaming bandwidth available to copy "
                f"({placement.device_name!r} -> {dst_device_name!r})"
            )
        read_res = src.reserve(rate, "copy-read")
        write_res = dst.reserve(rate, "copy-write")
        bits = nbytes * 8
        started = self.simulator.now_s
        span = self.simulator.obs.tracer.begin(
            "placement.copy", "storage", track="placement",
            src=src.name, dst=dst.name, nbytes=nbytes,
        )
        try:
            yield from write_res.open()
            yield from read_res.read(bits)
            write_res.bits_written += bits
            dst._account_written(bits)
        except BaseException:
            # A fault (or an interrupt) killed the copy mid-transfer: the
            # destination extent holds no complete value, so give it back
            # instead of leaking it.  The source placement is untouched.
            dst.free(new_extent)
            raise
        finally:
            read_res.release()
            write_res.release()
            span.end()
        src.free(placement.extent)
        new_placement = Placement(placement.value_id, dst_device_name, new_extent, nbytes)
        self._placements[placement.value_id] = new_placement
        self.copy_count += 1
        self._m_copies.inc()
        self._m_copy_s.observe(self.simulator.now_s - started)
        return new_placement
