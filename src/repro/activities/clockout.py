"""Run-length clock-out of a paced source (DESIGN.md §6.10).

A database-located source clocks elements out over a reserved channel
while the client carries on (paper §3.1, §4.3 statement 6): once its hop
has latency, nothing downstream of the source can hold it up, so its
whole timeline — device read-ahead, rate pacing, serialization,
propagation — is known when it starts.  A :class:`ClockedRun` computes
that timeline in one loop that repeats the per-element path's float
operations in the same order, deposits every element (and end-of-stream)
in the hop's buffer stamped with its arrival time, and lets the source
sleep on one timer until the last element is on the wire.

Two things keep this indistinguishable from the per-element loop:

*settle on read* — the counters the source side owns (the source's,
connection's, reservations', channel's and device's tallies, and the
``stream.*`` instruments of the folded read-ahead buffer, ``net.bits_sent``
among them) are brought up to the current virtual time whenever one of
them is read: through the ``clocked`` attribute of the object that owns
the tally, or through the run's flush hook on the metrics registry;

*the cut* — anything that could change an element not yet sent (a stop,
an interrupt or hang of the source's process, a handler caught, either
reservation released, a fault model armed) cuts the run *before* it takes
effect: unsent elements are withdrawn, the read-ahead stage is handed to
a real process in the state it would be in, and the source wakes to
finish the element under way and carry on in the per-element loop, which
then meets the change exactly as it always did.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Generator, List, Optional

from repro.avtime import WorldTime
from repro.obs.metrics import DEPTH_BUCKETS
from repro.sim import WaitEvent
from repro.storage.devices import READ, SEEKED
from repro.streams.buffer import StreamBuffer
from repro.streams.element import END_OF_STREAM, StreamElement

if TYPE_CHECKING:  # pragma: no cover
    from repro.activities.library import PacedSource
    from repro.activities.ports import Connection

# Where the pacing loop stands when it takes an element over from a cut
# run: still waiting for the read-ahead stage, paced and about to send,
# or with the element serialized (``FRESH``: nothing taken over).
FRESH, FETCHING, PACING, SERIALIZING = range(4)

#: what the source is resumed with when its run ends uncut.
_RAN_OUT = object()


class ClockedRun:
    """The timeline of one source start, computed ahead of time."""

    def __init__(self, source: "PacedSource", connection: "Connection",
                 payloads, t_start: float) -> None:
        self.source = source
        self.connection = connection
        self.payloads = payloads
        simulator = source.simulator
        self.simulator = simulator
        reservation = connection.reservation
        bps = reservation.bps
        latency = reservation.latency_s
        io = source.io_stream
        paced = source.paced
        depth = source.PREFETCH_DEPTH
        #: per element: when the pacing loop has it in hand, starts
        #: serializing it, and has it on the wire.
        self.elements: List[StreamElement] = []
        self.got: List[float] = []
        self.paced: List[float] = []
        self.sent: List[float] = []
        #: read-ahead stage, per element: read done, in the buffer, the
        #: occupancy its put sampled, and who stalled.
        self.read: List[float] = []
        self.put: List[float] = []
        self.occupancy: List[int] = []
        self.put_stalled: List[bool] = []
        self.get_stalled: List[bool] = []
        elements, got, sent = self.elements, self.got, self.sent
        add_paced, add_read, add_put = (self.paced.append, self.read.append,
                                        self.put.append)
        add_occupancy, add_put_stalled, add_get_stalled = (
            self.occupancy.append, self.put_stalled.append,
            self.get_stalled.append)
        ideal_offset = source._ideal_offset
        deposit = connection.buffer.deposit

        loop = t_start           # the pacing loop's clock
        ahead = t_start          # the read-ahead stage's clock
        if io is not None:
            io_bps = io.bps
            if not io._positioned:
                seek = io.device.position_latency_s()
                if seek > 0:
                    ahead = ahead + seek
                io._positioned = True
        #: when the device is in position and the first transfer begins.
        self.positioned = ahead
        taken = 0                # gets done when the current read ends
        for position, (payload, size_bits, media_type) in enumerate(payloads):
            offset = ideal_offset(position)
            if io is not None:
                duration = size_bits / io_bps
                if duration > 0:
                    ahead = ahead + duration
                add_read(ahead)
                while taken < position and got[taken] <= ahead:
                    taken += 1
                stalled = position - taken >= depth
                if stalled:
                    # Woken by the get that frees a slot.
                    ahead = got[position - depth]
                    add_occupancy(depth)
                else:
                    add_occupancy(position + 1 - taken)
                add_put_stalled(stalled)
                add_put(ahead)
                stalled = ahead > loop
                if stalled:
                    loop = ahead
                add_get_stalled(stalled)
            got.append(loop)
            if paced:
                wait = t_start + offset + 0.0 - loop
                if wait > 0:
                    loop = loop + wait
            add_paced(loop)
            duration = size_bits / bps
            if duration > 0:
                loop = loop + duration
            sent.append(loop)
            element = StreamElement(payload, position,
                                    WorldTime(t_start + offset),
                                    media_type, size_bits)
            elements.append(element)
            deposit(element, loop + latency)
        deposit(END_OF_STREAM, loop + latency)
        #: when the pacing loop reaches each element: as the one before
        #: it goes out.
        self.begun: List[float] = [t_start] + sent[:-1]

        # How far each of the four clocks above has been settled.
        self._n_begun = self._n_read = self._n_put = self._n_sent = 0
        metrics = simulator.obs.metrics
        self._m_put = metrics.counter("stream.elements_buffered")
        self._m_producer_stalls = metrics.counter("stream.producer_stalls")
        self._m_consumer_stalls = metrics.counter("stream.consumer_stalls")
        self._m_occupancy = metrics.histogram("stream.buffer_occupancy",
                                              buckets=DEPTH_BUCKETS)
        self._wake = simulator.event(f"{source.name}:cut")
        self._timer: Optional[int] = None
        #: the read-ahead buffer, once a cut has made it real.
        self.fetched: Optional[StreamBuffer] = None
        self._process = simulator.active
        self._attach(self)

    def _attach(self, run: Optional["ClockedRun"]) -> None:
        """Point every object whose counters this run owns at it (or,
        with ``None``, away from it)."""
        source, connection = self.source, self.connection
        reservation, io = connection.reservation, source.io_stream
        source.clocked = connection.clocked = reservation.clocked = run
        self._process.on_abandon = None if run is None else self.cut
        groups = [reservation.channel._clocked]
        if io is not None:
            io.clocked = run
            groups.append(io.device._clocked)
        metrics = self.simulator.obs.metrics
        if run is None:
            for group in groups:
                del group[self]
            metrics.remove_flush_hook(self.settle)
        else:
            for group in groups:
                group[self] = None      # a dict: cuts go in start order
            metrics.add_flush_hook(self.settle)

    # -- the source's side ----------------------------------------------------
    def clock_out(self) -> Generator:
        """Generator subroutine: sleep until the last element is sent.

        Returns ``None`` when the run ran out, or, when it was cut, where
        the per-element loop takes over: ``(position, stage)``; the
        read-ahead buffer, if there is one, is in ``fetched`` by then.
        """
        self._timer = self.simulator.wake_at(self.sent[-1], self._process,
                                             _RAN_OUT)
        try:
            resume = yield WaitEvent(self._wake)
        except GeneratorExit:       # a discarded simulation, not an event
            raise
        except BaseException:
            # An interrupt: nothing more goes out, and the read-ahead
            # stage ends as it does whenever the pacing loop is gone.
            self.cut()
            if self.fetched is not None:
                self.fetched.close()
            raise
        if resume is _RAN_OUT:
            self._timer = None
            self.settle()
            self._attach(None)
            return None
        return resume

    # -- settle on read ------------------------------------------------------
    def settle(self) -> None:
        """Apply every count whose moment is not after the current time."""
        now = self.simulator._clock.now
        source = self.source
        payloads = self.payloads
        total = len(payloads)
        n = self._n_begun
        if n < total and self.begun[n] <= now:
            group, member = source._sync_group, source._sync_member
            get_stalled = self.get_stalled
            while n < total and self.begun[n] <= now:
                if group is not None:
                    group.report(member, 0.0)
                if get_stalled and get_stalled[n]:
                    self._m_consumer_stalls.inc()
                n += 1
            self._n_begun = n
        io = source.io_stream
        if io is not None:
            n = self._n_read
            if n < total and self.read[n] <= now:
                device = io.device
                bits = 0
                while n < total and self.read[n] <= now:
                    bits += payloads[n][1]
                    if self.put_stalled[n]:
                        self._m_producer_stalls.inc()
                    n += 1
                self._n_read = n
                io._bits_read += bits
                device._total_bits_read += bits
                device._m_bits_read.inc(bits)
            n = self._n_put
            if n < total and self.put[n] <= now:
                observe = self._m_occupancy.observe
                while n < total and self.put[n] <= now:
                    observe(self.occupancy[n])
                    n += 1
                self._m_put.inc(n - self._n_put)
                self._n_put = n
        n = self._n_sent
        if n < total and self.sent[n] <= now:
            first = n
            bits = 0
            last = total - 1
            emit_each = source._emit_each
            elements = self.elements
            while n < total and self.sent[n] <= now:
                bits += payloads[n][1]
                source._elements_produced += 1
                emit_each(elements[n], n == last)
                n += 1
            self._n_sent = n
            source._m_produced.inc(n - first)
            connection = self.connection
            connection._elements_sent += n - first
            connection._bits_sent += bits
            reservation = connection.reservation
            reservation._bits_transmitted += bits
            reservation.channel._account(bits)

    # -- the cut ------------------------------------------------------------------
    def asleep_since(self) -> float:
        """When the per-element loop would have begun the wait it is in
        now (what ``cut_all`` orders simultaneous cuts by)."""
        now = self.simulator._clock.now
        position = min(bisect_right(self.sent, now), len(self.sent) - 1)
        for since in (self.paced, self.got):
            if since[position] <= now:
                return since[position]
        return self.begun[position]

    def cut(self) -> None:
        """End the run at the current time; the source wakes and carries
        on per element from exactly where the per-element loop would be."""
        if self.source.clocked is not self:
            return      # cut already, or run out
        simulator = self.simulator
        now = simulator._clock.now
        self.settle()
        position = self._n_sent
        total = len(self.payloads)
        if position == total:
            return      # everything is on the wire; the run is running out
        self._attach(None)
        self.connection.buffer.withdraw(total - position + 1)
        simulator.cancel(self._timer)
        self._timer = None
        # Both processes stay asleep for as long as they would per
        # element: until the delay each is in runs out (a wake-up that
        # goes stale, as that delay's would, if the process dies first),
        # queued in the order those delays were.
        if self.source.io_stream is None:
            self._wake_source(position, now)
        elif self._read_ahead_since() <= self.asleep_since():
            self._hand_over_read_ahead(position, now)
            self._wake_source(position, now)
        else:
            self._wake_source(position, now)
            self._hand_over_read_ahead(position, now)

    def _wake_source(self, position: int, now: float) -> None:
        simulator = self.simulator
        fetching = (self.source.io_stream is not None
                    and self.got[position] > now)
        if fetching:
            # Waiting for the read-ahead stage, not for a time.
            self._wake.trigger((position, FETCHING))
        elif self.paced[position] > now:
            simulator.wake_at(self.paced[position], self._process,
                              (position, PACING))
        else:
            simulator.wake_at(self.sent[position], self._process,
                              (position, SERIALIZING))

    def _read_ahead_since(self) -> float:
        """When the transfer under way in the read-ahead stage began."""
        return self.put[self._n_put - 1] if self._n_put else self.begun[0]

    def _hand_over_read_ahead(self, position: int, now: float) -> None:
        """Make the read-ahead buffer real as it stands, with a process
        to go on filling it from the transfer under way."""
        source = self.source
        fetched = self.fetched = StreamBuffer(
            self.simulator, source.PREFETCH_DEPTH,
            name=f"{source.name}:prefetch")
        taken = position + (self.got[position] <= now)
        filled = self._n_put
        fetched._items.extend(range(taken, filled))
        if filled == len(self.payloads):
            return
        if self.positioned > now:       # still seeking
            begun, stalled, at = SEEKED, False, self.positioned
        elif self.read[filled] > now:   # reading
            begun, stalled, at = READ, False, self.read[filled]
        else:                           # read, and stalled on the full buffer
            begun, stalled, at = 0, True, now
        self.simulator.spawn(
            source._prefetch(self.payloads, fetched, filled, begun, stalled),
            name=f"{source.name}:prefetch", at=at)
