"""Bounded stream buffers with backpressure.

The carrier of a port connection: producers block (in virtual time) when
the buffer is full, consumers block when it is empty.  Bounded buffers are
what makes "system resources (buffers ...) are limited" (§3.3) true inside
the simulation — a slow sink really does stall its upstream source.

``put``/``get`` are generator subroutines for DES processes::

    yield from buffer.put(element)
    element = yield from buffer.get()

A hop with propagation latency hands elements over *timed*:
``deposit(element, at)`` stamps the element with its arrival time and
returns at once.  Nothing downstream sees it before ``at``: the buffer
admits due arrivals when its consumer next looks (or when a statistic is
read), exactly as a delivery process sleeping until ``at`` and then
calling ``put`` would have — same capacity bound, one producer stall per
arrival that finds the buffer full, same occupancy samples — and a
consumer waiting in ``get`` is woken at the head arrival's time.  Ties go
to the arrival: an element due at ``t`` is in the buffer for a ``get``
at ``t``.

While a consumer run (``repro.activities.consumer``) has the buffer's
future worked out, ``clocked`` points at it: every statistic is read
through it, and it cuts itself before a withdrawal changes that future.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional, Tuple

from repro.errors import SimulationError
from repro.sim import Process, SettledCounter, SimEvent, Simulator, WaitEvent

#: what a consumer waiting in ``get`` is resumed with when the wake-up at
#: its head arrival's time fires (a ``put`` resumes it with ``None``).
_DUE = object()


class StreamBuffer:
    """FIFO of stream elements with a capacity bound."""

    def __init__(self, simulator: Simulator, capacity: int = 8, name: str = "buffer") -> None:
        if capacity < 1:
            raise SimulationError(f"buffer capacity must be >= 1, got {capacity}")
        self.simulator = simulator
        self.capacity = capacity
        self.name = name
        self._not_full_name = f"{name}:not_full"
        self._not_empty_name = f"{name}:not_empty"
        self._items: Deque[Any] = deque()
        self._not_full: Deque[SimEvent] = deque()
        self._not_empty: Deque[SimEvent] = deque()
        #: timed deposits not yet due, oldest first: ``(arrival time, item)``.
        self._arrivals: Deque[Tuple[float, Any]] = deque()
        #: due deposits that found the buffer full; each is let in, in a
        #: kernel event of its own, at the instant a ``get`` makes room.
        self._blocked: Deque[Any] = deque()
        self._letting_in = 0
        #: the consumer waiting in ``get`` and its wake-up at the head
        #: arrival's time (a ``Simulator.wake_at`` handle).
        self._sleeper: Optional[Process] = None
        self._timer: Optional[int] = None
        self.closed = False
        # Statistics for the resource-pressure benchmarks (the public
        # names admit due arrivals first, see the properties below).
        self._total_put = 0
        self._producer_stalls = 0
        self._consumer_stalls = 0
        self._high_watermark = 0
        #: the consumer run that owns this buffer's future, if any.
        self.clocked = None
        #: the clocked-out run whose timed deposits carry payloads it
        #: settles (a folded transformer's), if any: settled before an
        #: arrival is let in.
        self.feeder = None
        metrics = simulator.obs.metrics
        self._metrics = metrics
        self._m_put = metrics.counter("stream.elements_buffered")
        self._m_producer_stalls = metrics.counter("stream.producer_stalls")
        self._m_consumer_stalls = metrics.counter("stream.consumer_stalls")
        self._m_occupancy = metrics.histogram("stream.buffer_occupancy")

    # -- reads: settle due arrivals first ------------------------------------
    def _settled(self) -> "StreamBuffer":
        if self.clocked is not None:
            self.clocked.settle()
        elif self._arrivals:
            self._admit_due()
        return self

    consumer_stalls = SettledCounter("_consumer_stalls")

    def __len__(self) -> int:
        return len(self._settled()._items)

    @property
    def total_put(self) -> int:
        return self._settled()._total_put

    @property
    def producer_stalls(self) -> int:
        return self._settled()._producer_stalls

    @property
    def high_watermark(self) -> int:
        return self._settled()._high_watermark

    # -- untimed hand-off ------------------------------------------------------
    def put(self, item: Any, stalled: bool = False) -> Generator:
        """Generator subroutine: enqueue, stalling while full.

        ``stalled`` resumes a stall that has been counted already (a
        read-ahead stage taken over from a cut clock-out run).
        """
        items = self._items
        capacity = self.capacity
        if len(items) >= capacity:
            # One stall per blocking episode: a woken producer that is
            # barged past and re-waits is still the *same* stall.
            if not stalled:
                self._producer_stalls += 1
                self._m_producer_stalls.inc()
            while len(items) >= capacity:
                if self.closed:
                    return
                event = SimEvent(self.simulator, self._not_full_name)
                self._not_full.append(event)
                yield WaitEvent(event)
        # ``_append``, inlined: every element of every hop without
        # latency comes through here, and the call shows in
        # ``stream_elements_per_s``.
        items.append(item)
        self._total_put += 1
        self._m_put.inc()
        occupancy = len(items)
        self._m_occupancy.observe(occupancy)
        if occupancy > self._high_watermark:
            self._high_watermark = occupancy
        not_empty = self._not_empty
        if not_empty:
            not_empty.popleft().trigger()

    def _append(self, item: Any) -> None:
        items = self._items
        items.append(item)
        self._total_put += 1
        self._m_put.inc()
        occupancy = len(items)
        self._m_occupancy.observe(occupancy)
        if occupancy > self._high_watermark:
            self._high_watermark = occupancy
        not_empty = self._not_empty
        if not_empty:
            not_empty.popleft().trigger()

    def close(self) -> None:
        """The consumer is gone for good: no producer blocks from now on
        (what does not fit is dropped), and blocked ones are released."""
        self.closed = True
        while self._not_full:
            self._not_full.popleft().trigger()

    def get(self, stalled: bool = False,
            resumed: Optional[Tuple[SimEvent, Any]] = None) -> Generator:
        """Generator subroutine: dequeue, stalling while empty.

        ``stalled`` as for :meth:`put`; ``resumed`` takes over a wait that
        a cut consumer run left registered (see :meth:`_wait_for`): the
        event it waited on and what woke it.
        """
        items = self._items
        if resumed is None:
            if self._arrivals:
                self._admit_due()
            if not items and not stalled:
                self._count_consumer_stall()
        while resumed is not None or not items:
            if resumed is None:
                # Wait for a put, or for the head arrival to fall due.
                event = SimEvent(self.simulator, self._not_empty_name)
                self._wait_for(event, self.simulator.active)
                woke = yield WaitEvent(event)
            else:
                (event, woke), resumed = resumed, None
            self._sleeper = None
            if woke is _DUE:
                self._timer = None
                if not event.triggered:
                    self._not_empty.remove(event)
            elif self._timer is not None:
                self.simulator.cancel(self._timer)
                self._timer = None
            if self._arrivals:
                self._admit_due()
        item = items.popleft()
        not_full = self._not_full
        if not_full:
            not_full.popleft().trigger()
        elif self._blocked and len(self._blocked) > self._letting_in:
            self._letting_in += 1
            simulator = self.simulator
            simulator._push(simulator._clock.now, self._let_in)
        return item

    def _wait_for(self, event: SimEvent, process: Process) -> None:
        """What a get does before it waits: register ``event`` to be
        triggered by the next put, and wake ``process`` at the head
        arrival's time."""
        self._not_empty.append(event)
        self._sleeper = process
        if self._arrivals:
            self._timer = self.simulator.wake_at(self._arrivals[0][0],
                                                 process, _DUE)

    def _count_consumer_stall(self) -> None:
        self._consumer_stalls += 1
        self._m_consumer_stalls.inc()

    # -- timed hand-off ----------------------------------------------------------
    def deposit(self, item: Any, at: float) -> None:
        """Hand ``item`` over at virtual time ``at`` (not before now).

        Deposits from one producer must come in arrival order.
        """
        if not self._arrivals and not self._blocked:
            self._metrics.add_flush_hook(self._admit_due)
        self._arrivals.append((at, item))
        if self._sleeper is not None and self._timer is None:
            self._timer = self.simulator.wake_at(self._arrivals[0][0],
                                                 self._sleeper, _DUE)

    def withdraw(self, count: int) -> None:
        """Take back the last ``count`` deposits, none of them due yet
        (the unsent tail of a cut run)."""
        if self.clocked is not None:
            self.clocked.cut()
        arrivals = self._arrivals
        for _ in range(count):
            arrivals.pop()
        if count and not arrivals:
            if self._timer is not None:
                # The waiting consumer was to wake for a withdrawn
                # arrival; the next deposit re-arms it.
                self.simulator.cancel(self._timer)
                self._timer = None
            self._unhook_if_settled()

    def _unhook_if_settled(self) -> None:
        """The flush hook that settles due arrivals on a metrics read
        stays registered only while there is something to settle."""
        if not self._arrivals and not self._blocked:
            self._metrics.remove_flush_hook(self._admit_due)

    def _admit_due(self) -> None:
        """Let in every arrival that is due, as its delivery process would
        have at its arrival time (nothing else touches ``_items`` between
        two looks, so doing it late changes no sample)."""
        if self.feeder is not None:
            self.feeder.settle()
        now = self.simulator._clock.now
        arrivals = self._arrivals
        blocked = self._blocked
        items = self._items
        capacity = self.capacity
        while arrivals and arrivals[0][0] <= now:
            item = arrivals.popleft()[1]
            if blocked or len(items) >= capacity:
                self._producer_stalls += 1
                self._m_producer_stalls.inc()
                blocked.append(item)
            else:
                self._append(item)
        self._unhook_if_settled()

    def _let_in(self) -> None:
        """Kernel event: a blocked arrival takes the slot a ``get`` freed."""
        self._letting_in -= 1
        self._append(self._blocked.popleft())
        self._unhook_if_settled()
