"""Simulated network channels.

A :class:`Channel` has a total bandwidth capacity and a propagation
latency.  Streams take :class:`Reservation` objects (admission control:
reserving beyond capacity raises
:class:`~repro.errors.AdmissionError` — the paper's connection-time
failure).  Each element transmission takes ``latency + bits/reserved_bps``
virtual seconds and is charged to the channel's traffic accounting, which
the Fig. 4 benchmark reads back as network bytes per configuration.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Optional

from repro.errors import AdmissionError, ChannelFaultError, PreemptedError
from repro.sim import Delay, SettledCounter, Simulator, cut_all

_reservation_ids = itertools.count(1)


class Reservation:
    """A bandwidth slice of a channel, held by one stream.

    Usable as a context manager: ``with channel.reserve(bps) as r: ...``
    releases the bandwidth on exit even when the body raises, so partial
    allocations cannot strand capacity.
    """

    def __init__(self, channel: "Channel", bps: float, label: str) -> None:
        self.channel = channel
        self.bps = bps
        self.label = label
        self.id = next(_reservation_ids)
        self._bits_transmitted = 0
        #: the clocked-out stream run sending over this reservation, if
        #: any (it is on ``channel._clocked`` too): it settles
        #: ``bits_transmitted`` on read and is cut before a release.
        self.clocked = None
        self.released = False
        #: set when an admission controller revoked this reservation to
        #: admit higher-priority work; subsequent transfers raise
        #: :class:`~repro.errors.PreemptedError`.
        self.preempted = False
        #: optional callable invoked (once) after release; the admission
        #: controller hooks this to re-pump its wait queue.
        self.on_release = None
        #: how many clients this reservation carries: 1 for an ordinary
        #: stream, n for an aggregate herd cohort admitted in one batch
        #: (see ``AdmissionController.admit_batch``) — preemption and
        #: release accounting charge per client, not per reservation.
        self.cohort_clients = 1

    bits_transmitted = SettledCounter("_bits_transmitted")

    def _faulted_duration(self, bits: int, duration: float) -> float:
        """Apply the channel's injected loss/jitter model, if armed.

        In ``retransmit`` mode a dropped element is sent again (the link
        layer recovers transparently, at the cost of wire time); in
        ``error`` mode the drop surfaces as
        :class:`~repro.errors.ChannelFaultError` for a higher-level
        retry policy to handle.  Retransmitted bits are charged to the
        channel's traffic accounting like any other traffic.
        """
        faults = self.channel._faults
        if faults is None:
            return duration
        duration += faults.sample_jitter()
        while faults.sample_drop(self.channel.name):
            if faults.mode == "error":
                raise ChannelFaultError(
                    f"transmission of {bits} bits on {self.channel.name!r} dropped"
                )
            self.channel.retransmits += 1
            self.channel._account(bits)
            duration += bits / self.bps + faults.sample_jitter()
        return duration

    def _require_live(self) -> None:
        if self.preempted:
            raise PreemptedError(
                f"reservation {self.label!r} on {self.channel.name!r} was "
                f"preempted for higher-priority work"
            )
        if self.released:
            raise AdmissionError(
                f"reservation {self.label!r} on {self.channel.name!r} was released"
            )

    def transmit(self, bits: int) -> Generator:
        """DES subroutine: occupy the reservation for the transfer time."""
        self._require_live()
        duration = self._faulted_duration(bits, self.channel.latency_s + bits / self.bps)
        if duration > 0:
            yield Delay(duration)
        self._bits_transmitted += bits
        self.channel._account(bits)

    def serialize(self, bits: int, done: bool = False) -> Generator:
        """DES subroutine: occupy the sender for serialization time only.

        Propagation latency is *not* charged here — a pipelined sender puts
        the next element on the wire as soon as the previous one has been
        clocked out; delivery happens ``latency_s`` later (the connection
        layer schedules it).

        ``done`` takes over a serialization from a cut clock-out run,
        which admitted and timed it when it began and slept it out: what
        is left is to account for it.
        """
        if not done:
            self._require_live()
            duration = self._faulted_duration(bits, bits / self.bps)
            if duration > 0:
                yield Delay(duration)
        self._bits_transmitted += bits
        self.channel._account(bits)

    @property
    def latency_s(self) -> float:
        return self.channel.latency_s

    def release(self) -> None:
        if not self.released:
            if self.clocked is not None:
                self.clocked.cut()
            self.released = True
            if not self.channel.debug_leak_releases:
                self.channel._release(self)
            if self.on_release is not None:
                hook, self.on_release = self.on_release, None
                hook(self)

    def __enter__(self) -> "Reservation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Channel:
    """A network link with finite capacity and admission control."""

    def __init__(self, simulator: Simulator, capacity_bps: float,
                 latency_s: float = 0.0, name: str = "channel") -> None:
        if capacity_bps <= 0:
            raise AdmissionError(f"channel capacity must be positive, got {capacity_bps}")
        if latency_s < 0:
            raise AdmissionError(f"channel latency must be >= 0, got {latency_s}")
        self.simulator = simulator
        self.capacity_bps = capacity_bps
        self.latency_s = latency_s
        self.name = name
        self._reservations: Dict[int, Reservation] = {}
        #: memo of ``reserved_bps``; None until first read and after every
        #: change to ``_reservations``.  Always re-summed in dict order, not
        #: kept as a running total, so float rounding (and the integer 0
        #: of an empty channel) are those of the plain sum.
        self._reserved_bps: Optional[float] = None
        self._total_bits = 0
        #: clocked-out stream runs sending over this channel: they settle
        #: ``total_bits`` on read and are cut when a loss model is armed.
        self._clocked: Dict[object, None] = {}
        self.admission_failures = 0
        self._faults = None
        self.retransmits = 0
        #: seeded-bug hook for the watch layer's invariant-breach demo:
        #: when True, :meth:`Reservation.release` marks the reservation
        #: released but "forgets" to return its bandwidth, so the released
        #: reservation stays registered and ``reserved_bps`` stays
        #: inflated — the leak the reservation-conservation probe catches.
        self.debug_leak_releases = False
        metrics = simulator.obs.metrics
        #: shared by every channel of the scope; each adds its own bits,
        #: as it sends them (a clocked run, as it settles them).
        self._m_bits_sent = metrics.counter("net.bits_sent")
        self._m_admission_failures = metrics.counter("net.admission_failures")
        self._m_utilization = metrics.gauge(f"net.channel.{name}.utilization")

    @property
    def total_bits(self) -> int:
        for run in self._clocked:
            run.settle()
        return self._total_bits

    @property
    def faults(self):
        """Fault-injection hook: a :class:`repro.faults.injector.ChannelFaults`
        (seeded loss/jitter model) armed by a FaultInjector, or None."""
        return self._faults

    @faults.setter
    def faults(self, model) -> None:
        cut_all(self._clocked)
        self._faults = model

    # -- admission control ---------------------------------------------------
    @property
    def reserved_bps(self) -> float:
        if self._reserved_bps is None:
            self._reserved_bps = sum(r.bps for r in self._reservations.values())
        return self._reserved_bps

    @property
    def available_bps(self) -> float:
        return self.capacity_bps - self.reserved_bps

    def reserve(self, bps: float, label: str = "stream") -> Reservation:
        """Admit a stream at ``bps``; raises AdmissionError when over capacity."""
        if bps <= 0:
            raise AdmissionError(f"cannot reserve non-positive bandwidth {bps}")
        if bps > self.available_bps + 1e-9:
            self.admission_failures += 1
            self._m_admission_failures.inc()
            raise AdmissionError(
                f"channel {self.name!r}: cannot reserve {bps:g} b/s "
                f"({self.available_bps:g} of {self.capacity_bps:g} available)"
            )
        reservation = Reservation(self, bps, label)
        self._reservations[reservation.id] = reservation
        self._reserved_bps = None
        self._m_utilization.set(self.reserved_bps / self.capacity_bps)
        return reservation

    def _release(self, reservation: Reservation) -> None:
        self._reservations.pop(reservation.id, None)
        self._reserved_bps = None
        self._m_utilization.set(self.reserved_bps / self.capacity_bps)

    def _account(self, bits: int) -> None:
        self._total_bits += bits
        self._m_bits_sent.inc(bits)

    # -- accounting ----------------------------------------------------------
