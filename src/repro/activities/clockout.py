"""Run-length clock-out of a paced source (DESIGN.md §6.10).

A database-located source clocks elements out over a reserved channel
while the client carries on (paper §3.1, §4.3 statement 6): once its hop
has latency, nothing downstream of the source can hold it up, so its
whole timeline — device read-ahead, rate pacing, serialization,
propagation — is known when it starts.  A :class:`ClockedRun` computes
that timeline in one loop that repeats the per-element path's float
operations in the same order, deposits every element (and end-of-stream)
in the hop's buffer stamped with its arrival time, and lets the source
sleep on one timer until the last element is on the wire.  A zero-cost
transformer beside the source, behind a private link, that sends over
such a hop (raw delivery, §4.3) is folded in as one more stage
(:class:`_Stage`), its transform applied at settle, in stream order.

Two things keep this indistinguishable from the per-element loop:

*settle on read* — the counters the source side owns (the source's,
connection's, reservations', channel's and device's tallies, and the
``stream.*`` instruments of the folded buffers, ``net.bits_sent``
among them) are brought up to the current virtual time whenever one of
them is read: through the ``clocked`` attribute of the object that owns
the tally, or through the run's flush hook on the metrics registry;

*the cut* — anything that could change an element not yet sent (a stop,
an interrupt or hang of the source's process, a handler caught, either
reservation released, a fault model armed) cuts the run *before* it takes
effect: unsent elements are withdrawn, the read-ahead stage is handed to
a real process in the state it would be in, and the source (and folded
transformer) wake to carry on in the per-element loop, which
then meets the change exactly as it always did.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import TYPE_CHECKING, Generator, List, Optional

from repro.avtime import WorldTime
from repro.errors import ActivityError
from repro.sim import WaitEvent
from repro.storage.devices import READ, SEEKED
from repro.streams.buffer import StreamBuffer
from repro.streams.element import END_OF_STREAM, StreamElement

if TYPE_CHECKING:  # pragma: no cover
    from repro.activities.library import PacedSource
    from repro.activities.ports import Connection

# Where a loop stands when it takes an element over from a cut run: the
# pacing loop still waiting for the read-ahead stage, paced and about to
# send, with the element serialized, or stalled on the full private
# buffer; a transformer waiting in a get (``FRESH``: nothing taken over).
FRESH, FETCHING, PACING, SERIALIZING, PUTTING, GETTING = range(6)

#: what a process is resumed with when its part of the run ends uncut.
_RAN_OUT = object()
_NEVER = float("-inf")


class Tied(Exception):
    """Two steps of the fused stage at one instant, in an order the model
    cannot tell: the source goes per element."""


# A fused stage's ops: the source offers an element to the private buffer
# (and maybe stalls there) and puts it; the transformer finds the buffer
# empty, gets an element, and has its transform on the outer wire.
_OFFER, _PUT, _LOOK, _GET, _SEND = range(5)


class _Stage:
    """The transformer a run folds in behind the source's private link.

    The model numbers the source's steps (``step``, begun by a wake-up
    queued at ``origin``) and keeps per get of the transformer (index
    ``total``: end-of-stream) its time, the source step it runs right
    after (``after``; None: at the end of its serialization before) and
    when the transform is on the outer wire (``sent``).  What settles is
    a list of ops in time order, the source's first at one instant.
    """

    def __init__(self, link: "Connection", payloads,
                 elements: List[StreamElement], t_start: float) -> None:
        transformer = self.transformer = link.sink.owner
        port = transformer.out_ports()[0]
        self.simulator, self.process = transformer.simulator, transformer.process
        self.link, self.buffer, self.out = link, link.buffer, port.connection
        self.payloads, self.elements, self.total = payloads, elements, len(payloads)
        self.bits, self.out_type = transformer.out_bits, port.media_type
        self.seconds = self.bits / self.out.reservation.bps
        self.got, self.after, self.sent, self.pending, self.ops = [], [], [], [], []
        # The source's first step is the one building the run, and the
        # transformer's first look comes right after it.
        self.step, self.origin, self.look = 0, _NEVER, t_start
        self.applied = self.n_got = self.n_sent = 0
        self.joined = False     # has it taken its first look (and slept)?
        self.wake = self.simulator.event(f"{transformer.name}:cut")
        self.timer = self.resume = None

    # -- the model -----------------------------------------------------------
    def woken(self, queued: float) -> None:
        """The source's next step begins at a wake-up queued at
        ``queued`` (its pace target's, or another process's trigger)."""
        self.step += 1
        self.origin = queued

    def _first(self, after: Optional[int], j: int) -> bool:
        """Does the transformer's step (get ``j``) run before the source's
        current step at their instant?  A trigger runs right after the
        source step ``after``; else the wake-up queued first runs first."""
        if after is not None:
            return self.step > after
        queued = self.got[j - 1]
        if queued == self.origin:
            raise Tied
        return queued < self.origin

    def offer(self, k: int, offered: float) -> float:
        """The source offers element ``k`` at ``offered``; returns when it
        is in the buffer, and times the transformer's get of it."""
        got, ops, capacity = self.got, self.ops, self.buffer.capacity
        done = bisect_left(got, offered)
        if (done < len(got) and got[done] == offered
                and self._first(self.after[done], done)):
            done += 1
        stalled = k - done >= capacity
        ops.append((offered, 0, _OFFER, k, stalled))
        at = offered
        if stalled:
            at = got[k - capacity]      # woken by the get that frees a slot
            self.woken(at)
            done = k + 1 - capacity
        ops.append((at, 0, _PUT, k, k + 1 - done))
        look, first = self.look, (0 if k == 0 else None)
        there = at < look or (at == look and not self._first(first, k))
        if not there:
            ops.append((look, 1, _LOOK, k, None))
        got.append(look if there else at)
        self.after.append(first if there else self.step)
        ops.append((got[k], 1, _GET, k, None))
        if k < self.total:
            self.look = sent = got[k] + self.seconds
            if sent == got[k]:
                raise Tied      # a serialization too short to move the clock
            self.sent.append(sent)
            ops.append((sent, 1, _SEND, k, None))
        return at

    def deposit(self) -> None:
        """Hand the transforms over on the outer hop, payloads to come."""
        deposit = self.out.buffer.deposit
        latency = self.out.reservation.latency_s
        for element, sent in zip(self.elements, self.sent):
            element = element.with_payload(None, self.out_type, self.bits)
            self.pending.append(element)
            deposit(element, sent + latency)
        deposit(END_OF_STREAM, self.got[-1] + latency)
        self.ops.sort(key=itemgetter(0, 1))

    def settle(self, now: float) -> None:
        ops, n, buffer = self.ops, self.applied, self.buffer
        # (the transformer's first look is its own until it takes it)
        while (n < len(ops) and ops[n][0] <= now
               and (self.joined or not ops[n][1])):
            _, side, code, k, extra = ops[n]
            n += 1
            if code == _OFFER:
                if k < self.total:
                    self.link._elements_sent += 1
                    self.link._bits_sent += self.payloads[k][1]
                if extra:
                    buffer._producer_stalls += 1
                    buffer._m_producer_stalls.inc()
            elif code == _PUT:
                buffer._items.append(self.elements[k] if k < self.total
                                     else END_OF_STREAM)
                buffer._total_put += 1
                buffer._m_put.inc()
                buffer._m_occupancy.observe(extra)
                buffer._high_watermark = max(buffer._high_watermark, extra)
            elif code == _LOOK:
                buffer._count_consumer_stall()
            elif code == _GET:
                element = buffer._items.popleft()
                self.n_got += 1
                if k < self.total:
                    out = self.transformer._transform(element)
                    if out.size_bits != self.bits:
                        raise ActivityError(
                            f"{self.transformer.name!r} sent {out.size_bits} "
                            f"bits, not the {self.bits} it declares")
                    object.__setattr__(self.pending[k], "payload", out.payload)
            else:       # _SEND
                self.n_sent += 1
                out = self.out
                out.reservation._bits_transmitted += self.bits
                out.reservation.channel._account(self.bits)
                out._elements_sent += 1
                out._bits_sent += self.bits
                self.transformer._count_processed()
        self.applied = n

    # -- the transformer's side ------------------------------------------------
    def queued(self) -> float:
        """When the end of the serialization under way was queued; else
        -inf (a wait on a trigger is not timed: it can go in first)."""
        n = self.n_got
        return self.got[n - 1] if self.joined and n > self.n_sent else _NEVER

    def hand_over(self) -> None:
        """Leave the transformer where its per-element loop would be: at
        the end of a serialization, or waiting in a get (or, before its
        first look, to take that)."""
        if self.joined:
            self.simulator.cancel(self.timer)
            self.timer = None
            n = self.n_got
            if n > self.n_sent:
                self.resume = (SERIALIZING, self.pending[n - 1], self.out)
                self.simulator.wake_at(self.sent[n - 1], self.process)
            else:
                self.resume = (GETTING, None, self.buffer)
                self.buffer._wait_for(self.wake, self.process)


class ClockedRun:
    """The timeline of one source start, computed ahead of time."""

    def __init__(self, source: "PacedSource", connection: "Connection",
                 payloads, offsets: List[float], t_start: float) -> None:
        self.source = source
        self.connection = connection
        self.payloads = payloads
        simulator = source.simulator
        self.simulator = simulator
        reservation = connection.reservation
        io = source.io_stream
        paced = source.paced
        depth = source.PREFETCH_DEPTH
        #: per element: when the pacing loop has it in hand, starts
        #: serializing it (or offering it to the private buffer), and has
        #: it on the wire (or in that buffer).
        self.elements: List[StreamElement] = []
        #: the transformer folded in behind a private link, if any.
        stage = self.stage = (
            None if reservation is not None
            else _Stage(connection, payloads, self.elements, t_start))
        if stage is None:
            bps, latency = reservation.bps, reservation.latency_s
            deposit = connection.buffer.deposit
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

        loop = t_start           # the pacing loop's clock
        ahead = t_start          # the read-ahead stage's clock
        seeked = False
        if io is not None:
            io_bps = io.bps
            if not io._positioned:
                seek = io.device.position_latency_s()
                if seek > 0:
                    ahead = ahead + seek
                seeked = True
        #: when the device is in position and the first transfer begins.
        self.positioned = ahead
        taken = 0                # gets done when the current read ends
        for position, (payload, size_bits, media_type) in enumerate(payloads):
            offset = offsets[position]
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
                    if stage is not None:
                        stage.woken(loop)   # by the read-ahead stage's put
                add_get_stalled(stalled)
            got.append(loop)
            if paced:
                wait = t_start + offset + 0.0 - loop
                if wait > 0:
                    if stage is not None:
                        stage.woken(loop)   # at its pace target, queued now
                    loop = loop + wait
            add_paced(loop)
            element = StreamElement(payload, position,
                                    WorldTime(t_start + offset),
                                    media_type, size_bits)
            elements.append(element)
            if stage is None:
                duration = size_bits / bps
                if duration > 0:
                    loop = loop + duration
                deposit(element, loop + latency)
            else:
                loop = stage.offer(position, loop)
            sent.append(loop)
        if stage is None:
            deposit(END_OF_STREAM, loop + latency)
        else:
            loop = stage.offer(len(payloads), loop)
            stage.deposit()
        if seeked:
            io._positioned = True
        #: when the pacing loop is done: its last send (or put).
        self.final = loop
        #: when the pacing loop reaches each element: as the one before
        #: it goes out.
        self.begun: List[float] = [t_start] + sent[:-1]

        # How far each of the four clocks above has been settled.
        self._n_begun = self._n_read = self._n_put = self._n_sent = 0
        metrics = simulator.obs.metrics
        self._m_put = metrics.counter("stream.elements_buffered")
        self._m_producer_stalls = metrics.counter("stream.producer_stalls")
        self._m_consumer_stalls = metrics.counter("stream.consumer_stalls")
        self._m_occupancy = metrics.histogram("stream.buffer_occupancy")
        self._wake = simulator.event(f"{source.name}:cut")
        self._timer: Optional[int] = None
        #: the read-ahead buffer, once a cut has made it real.
        self.fetched: Optional[StreamBuffer] = None
        self._process = simulator.active
        self._attach(self)

    def _attach(self, run: Optional["ClockedRun"]) -> None:
        """Point every object whose counters this run owns at it (or, with
        ``None``, away from it)."""
        source, connection, stage = self.source, self.connection, self.stage
        source.clocked = connection.clocked = run
        hook = None if run is None else self.cut
        self._process.on_abandon = hook
        reservation = connection.reservation
        if stage is not None:
            out = stage.out
            reservation = out.reservation
            stage.transformer.clocked = stage.buffer.clocked = run
            out.clocked = out.buffer.feeder = run
            stage.process.on_abandon = hook
        reservation.clocked = run
        _enlist(reservation.channel._clocked, self, run)
        if source.io_stream is not None:
            self._attach_io(run)
        metrics = self.simulator.obs.metrics
        if run is None:
            metrics.remove_flush_hook(self.settle)
        else:
            metrics.add_flush_hook(self.settle)

    def _attach_io(self, run: Optional["ClockedRun"]) -> None:
        io = self.source.io_stream
        io.clocked = run
        _enlist(io.device._clocked, self, run)

    # -- the source's side ----------------------------------------------------
    def clock_out(self) -> Generator:
        """Generator subroutine: sleep until the pacing loop is done.

        Returns ``None`` when the run ran out, or, when it was cut, where
        the per-element loop takes over: ``(position, stage)``; the
        read-ahead buffer, if there is one, is in ``fetched`` by then.
        """
        self._timer = self.simulator.wake_at(self.final, self._process,
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
            if self.stage is None:
                self._attach(None)
            elif self.source.io_stream is not None:
                self._attach_io(None)   # its release is the device's end
            return None
        return resume

    def sleep(self, transformer) -> Generator:
        """Generator subroutine: the folded transformer, from its first
        look, sleeps until it has sent end-of-stream on.  Returns ``None``
        or, after a cut, ``(stage, held, where, resumed)``: the outer
        connection a held element is serialized on, or the private
        buffer a get waits in."""
        stage = self.stage
        simulator = self.simulator
        stage.joined = True
        stage.timer = simulator.wake_at(stage.got[-1], simulator.active,
                                        _RAN_OUT)
        try:
            woke = yield WaitEvent(stage.wake)
        except GeneratorExit:       # a discarded simulation, not an event
            raise
        except BaseException:
            self.cut()
            raise
        if woke is _RAN_OUT:
            stage.timer = None
            self.settle()
            self._attach(None)
            return None
        return stage.resume + ((stage.wake, woke),)

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
                bits = 0
                while n < total and self.read[n] <= now:
                    bits += payloads[n][1]
                    if self.put_stalled[n]:
                        self._m_producer_stalls.inc()
                    n += 1
                self._n_read = n
                io._bits_read += bits
                io.device._account_read(bits)
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
            if self.stage is None:
                connection = self.connection
                connection._elements_sent += n - first
                connection._bits_sent += bits
                reservation = connection.reservation
                reservation._bits_transmitted += bits
                reservation.channel._account(bits)
        if self.stage is not None:
            self.stage.settle(now)

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
        """End the run at the current time; the source (and the folded
        transformer) wake and carry on per element from exactly where the
        per-element loops would be."""
        if self.source.clocked is not self:
            return      # cut already, or run out
        simulator = self.simulator
        now = simulator._clock.now
        self.settle()
        stage = self.stage
        total = len(self.payloads)
        position = self._n_sent
        # what the pacing loop (or the folded transformer) still sends on
        hop, sent = ((self.connection, position) if stage is None
                     else (stage.out, stage.n_sent))
        if sent == total and (stage is None or stage.n_got > total):
            return  # everything is on the wire; the run is running out
        running = self._timer is not None      # the pacing loop asleep in it
        self._attach(None)
        hop.buffer.withdraw(total - sent + 1)
        if running:
            simulator.cancel(self._timer)
            self._timer = None
        # Every process stays asleep for as long as it would per element:
        # until the delay each is in runs out (a wake-up that goes stale,
        # as that delay's would, if the process dies first), queued in the
        # order those delays were.
        if stage is not None and stage.queued() < self.asleep_since():
            stage.hand_over()
        if running:
            if self.source.io_stream is None:
                self._wake_source(position, now)
            elif self._read_ahead_since() <= self.asleep_since():
                self._hand_over_read_ahead(position, now)
                self._wake_source(position, now)
            else:
                self._wake_source(position, now)
                self._hand_over_read_ahead(position, now)
        if stage is not None and stage.resume is None:
            stage.hand_over()

    def _wake_source(self, position: int, now: float) -> None:
        if position == len(self.payloads) or (
                self.stage is not None and self.paced[position] <= now):
            # Stalled on the full private buffer: its put waits on.
            self._wake.trigger((position, PUTTING))
        elif (self.source.io_stream is not None
              and self.got[position] > now):
            # Waiting for the read-ahead stage, not for a time.
            self._wake.trigger((position, FETCHING))
        elif self.paced[position] > now:
            self.simulator.wake_at(self.paced[position], self._process,
                                   (position, PACING))
        else:
            self.simulator.wake_at(self.sent[position], self._process,
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
        taken = position + (position < len(self.got)
                            and self.got[position] <= now)
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


def _enlist(group: dict, run: ClockedRun, attach) -> None:
    """Add ``run`` to a ledger's clocked runs (a dict: cuts go in start
    order), or take it out."""
    if attach is None:
        group.pop(run, None)
    else:
        group[run] = None
