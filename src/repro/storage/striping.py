"""Striped placement: one value across several devices.

The §3.3 placement discussion makes device bandwidth the binding
constraint on concurrent streams.  Striping is the classic storage answer
the other direction: a value whose data rate exceeds any single device's
remaining bandwidth can still stream in real time if its blocks are
spread round-robin across devices — each device serves a fraction of the
rate, reads proceed in parallel.

:class:`StripeSet` holds the per-device extents and reservations;
``reserve()`` performs admission on every member device (each must accept
its share) and returns a reservation satisfying the readers' ``io_stream``
protocol whose effective bandwidth is the sum of the shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence

from repro.errors import AdmissionError, PlacementError
from repro.sim import Delay
from repro.storage.devices import DeviceReservation
from repro.storage.extents import Extent
from repro.storage.placement import PlacementManager
from repro.values.base import MediaValue


@dataclass(frozen=True)
class StripeSet:
    """Where a striped value lives: one extent per member device."""

    value_id: int
    device_names: tuple
    extents: tuple
    nbytes: int

    @property
    def stripe_count(self) -> int:
        return len(self.device_names)


class StripedReservation:
    """Aggregate bandwidth reservation over a stripe set.

    Satisfies the reader ``io_stream`` protocol: ``read(bits)`` takes the
    time of the slowest member's share (members transfer their stripes in
    parallel); accounting is charged per member device.
    """

    def __init__(self, members: List[DeviceReservation]) -> None:
        if not members:
            raise PlacementError("a striped reservation needs >= 1 member")
        self.members = members
        self.bits_read = 0
        self.released = False

    @property
    def bps(self) -> float:
        return sum(m.bps for m in self.members)

    def open(self) -> Generator:
        # Every member positions in parallel: pay the slowest seek once.
        latency = max(m.device.position_latency_s() for m in self.members)
        for member in self.members:
            member._positioned = True
        if latency > 0:
            yield Delay(latency)

    def read(self, bits: int) -> Generator:
        """Parallel stripe read: wall time is bits over the summed rate."""
        if self.released:
            raise PlacementError("striped reservation was released")
        if not all(m._positioned for m in self.members):
            yield from self.open()
        # Shares proportional to member rates; parallel transfer means the
        # wall time is the common bits/total_bps.
        duration = bits / self.bps if self.bps else 0.0
        if duration > 0:
            yield Delay(duration)
        for member in self.members:
            share = int(bits * member.bps / self.bps)
            member.bits_read += share
            member.device._account_read(share)
        self.bits_read += bits

    def release(self) -> None:
        if not self.released:
            self.released = True
            for member in self.members:
                member.release()


class StripingManager:
    """Striped placement over an existing :class:`PlacementManager` pool."""

    def __init__(self, placement: PlacementManager) -> None:
        self.placement = placement
        self._stripes: Dict[int, StripeSet] = {}

    def place_striped(self, value: MediaValue,
                      device_names: Sequence[str]) -> StripeSet:
        """Spread a value's bytes evenly across the named devices."""
        if len(device_names) < 2:
            raise PlacementError("striping needs >= 2 devices")
        if len(set(device_names)) != len(device_names):
            raise PlacementError("stripe devices must be distinct")
        if id(value) in self._stripes or self.placement.is_placed(value):
            raise PlacementError("value is already placed")
        nbytes = PlacementManager._value_bytes(value)
        share = max(1, (nbytes + len(device_names) - 1) // len(device_names))
        extents: List[Extent] = []
        allocated: List[tuple] = []
        try:
            for name in device_names:
                device = self.placement.device(name)
                extent = device.allocate(share)
                extents.append(extent)
                allocated.append((device, extent))
        except Exception:
            for device, extent in allocated:
                device.free(extent)
            raise
        stripe = StripeSet(id(value), tuple(device_names), tuple(extents), nbytes)
        self._stripes[id(value)] = stripe
        return stripe

    def stripe_of(self, value: MediaValue) -> StripeSet:
        try:
            return self._stripes[id(value)]
        except KeyError:
            raise PlacementError("value is not striped") from None

    def reserve(self, value: MediaValue,
                readahead: float = 2.0) -> StripedReservation:
        """Admit the stream on every member device (all or nothing)."""
        stripe = self.stripe_of(value)
        share = value.data_rate_bps() * readahead / stripe.stripe_count
        members: List[DeviceReservation] = []
        try:
            for name in stripe.device_names:
                device = self.placement.device(name)
                grant = min(share, device.available_bps)
                floor = value.data_rate_bps() / stripe.stripe_count
                if grant + 1e-9 < floor:
                    raise AdmissionError(
                        f"stripe member {name!r} cannot sustain its "
                        f"{floor:g} b/s share ({device.available_bps:g} available)"
                    )
                members.append(device.reserve(grant, label="stripe"))
        except Exception:
            for member in members:
                member.release()
            raise
        return StripedReservation(members)

    def remove(self, value: MediaValue) -> None:
        stripe = self._stripes.pop(id(value), None)
        if stripe is None:
            raise PlacementError("value is not striped")
        for name, extent in zip(stripe.device_names, stripe.extents):
            self.placement.device(name).free(extent)
