"""Run-length consumption of a clocked-out stream (DESIGN.md §6.10).

The client side of the paper's asynchronous interface (§3.1, §4.3
statement 6): a source clocked out by a :class:`ClockedRun` has already
deposited every element, with its arrival time, in the hop's buffer.
When that hop feeds zero or more transformers that cost no virtual time
and end in a sink, and nobody listens to their per-element events, the
whole consumer side's timeline is known at its first look too.  A
:class:`ConsumerRun` computes it then, in one pass of a model
(:class:`_Timeline`) that repeats what the per-element processes and
their buffers do, in the order the kernel would do it (an arrival is
admitted before a get at the same instant), and records every buffer
operation, transform and presentation as an *op* stamped with its
virtual time.  Each process then sleeps on one wake-up until its last
element.  A chain whose model fills a buffer is not a run: the model
stops there (:class:`Filled`), and the chain goes per element from its
first look.

The source side's two rules carry over:

*settle on read* — the ops are applied to the real buffers, transformers
and sink when something reads them: a ``SettledCounter``, a buffer
statistic, the sink's ``log`` or ``presented``, or the metrics registry
(flush hook).  Ops apply in stream order, so a stateful decoder
decodes every chunk in turn.  The runs of one simulator settle together,
op time by op time (:class:`ConsumerRuns`), so float instruments shared by
several sinks (``stream.latency_ms``) add in the per-element order;

*the cut* — anything that could change an element not yet presented cuts
the run first: an upstream cut (``StreamBuffer.withdraw``), a stop, a
caught handler, an interrupt or hang of one of its processes.  The cut
settles, replays the model up to now, and leaves every process waiting
exactly where the per-element loop would be waiting (in a get or a
presentation delay), its wake-ups queued in the order the kernel had
them; each then carries on per element.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from operator import itemgetter
from typing import TYPE_CHECKING, Generator, List, Optional, Sequence

from repro.activities.clockout import FRESH
from repro.activities.events import EVENT_LAST_ELEMENT
from repro.sim import WaitEvent
from repro.streams.element import END_OF_STREAM

if TYPE_CHECKING:  # pragma: no cover
    from repro.activities.ports import Connection
    from repro.sim import Simulator

# Where a process taken over from a cut run stands (past ``FRESH``,
# nothing taken over): waiting in a get, or holding an element until its
# presentation time.
GETTING, DELAYED = range(FRESH + 1, FRESH + 3)

#: what a process is resumed with when its part of the run is over.
_RAN_OUT = object()

# The ops a run records (see ``ConsumerRun._apply``).
ADMIT, GET, TRANSFORM, PUT, STALL_GET, PRESENT, LAST = range(7)

# Model wake-up kinds: a get's timer at its head arrival, a trigger (an
# element admitted or put), the end of a presentation delay.
_DUE, _TRIGGER, _DELAY = range(3)
# Model process states.
_GET_WAIT, _DELAYING, _DONE = range(3)
_INF = float("inf")


class Filled(Exception):
    """The model found a buffer full: the chain is not a consumer run."""


class _Timeline:
    """The chain's processes and buffers, as the kernel would run them.

    Process ``p`` consumes buffer ``p``; every process but the last (the
    sink) produces into buffer ``p + 1``.  Items are element positions,
    ``len(sched)`` being end-of-stream.  Wake-ups are ``(time, seq,
    process, epoch, kind)``, ``seq`` numbering pushes in kernel order and
    ``epoch`` the suspension they belong to, as in the kernel.  An
    arrival or a put that finds its buffer full raises :class:`Filled`.
    """

    def __init__(self, t0: float, arrivals: Sequence[float],
                 capacities: Sequence[int], sched: Optional[List[float]]) -> None:
        self.arrivals = arrivals
        self.capacities = capacities
        self.sched = sched
        self.eos = len(arrivals) - 1
        count = len(capacities)
        self.last = count - 1
        self.items = [deque() for _ in range(count)]
        self.not_empty = [-1] * count
        self.state = [_GET_WAIT] * count
        self.epoch = [0] * count
        self.hand = [-1] * count
        self.final = [_INF] * count
        self.next_arrival = 0
        self.ops: list = []
        self.now = t0
        self.seq = 0
        self.heap: list = []
        # At its first look every process found its buffer empty (the
        # stall is counted as it happens, not as an op) and waits; the
        # head's get armed a timer at the first arrival.
        for process in range(count):
            self.not_empty[process] = process
        self._push(arrivals[0], 0, _DUE)

    def _push(self, time: float, process: int, kind: int) -> None:
        self.seq += 1
        heappush(self.heap, (time, self.seq, process, self.epoch[process], kind))

    def run(self, until: float = _INF) -> "_Timeline":
        heap, epoch, state = self.heap, self.epoch, self.state
        while heap and heap[0][0] <= until:
            now, _, process, woken, kind = heappop(heap)
            self.now = now
            if woken == epoch[process] and state[process] != _DONE:
                epoch[process] += 1
                self._resume(process, kind)
        return self

    # -- the buffers --------------------------------------------------------
    def _wake_consumer(self, buffer: int) -> None:
        waiter = self.not_empty[buffer]
        if waiter >= 0:
            self.not_empty[buffer] = -1
            self._push(self.now, waiter, _TRIGGER)

    def _admit_due(self) -> None:
        """Let in the due arrivals.  Their ops are stamped with their
        arrival times: the real buffer lets an arrival in whenever it is
        read after it is due, and nothing has touched the buffer since."""
        arrivals, items, ops = self.arrivals, self.items[0], self.ops
        now, capacity = self.now, self.capacities[0]
        position = self.next_arrival
        while position <= self.eos and arrivals[position] <= now:
            if len(items) >= capacity:
                raise Filled
            items.append(position)
            ops.append((arrivals[position], ADMIT, 0))
            self._wake_consumer(0)
            position += 1
        self.next_arrival = position

    def _get(self, process: int) -> bool:
        """A get that has not waited yet: True with the item in hand,
        False after a stall, waiting."""
        if (process == 0 and self.next_arrival <= self.eos
                and self.arrivals[self.next_arrival] <= self.now):
            self._admit_due()
        if not self.items[process]:
            self.ops.append((self.now, STALL_GET, process))
            self._wait_get(process)
            return False
        self._pop(process)
        return True

    def _wait_get(self, process: int) -> None:
        self.state[process] = _GET_WAIT
        self.not_empty[process] = process
        if process == 0 and self.next_arrival <= self.eos:
            self._push(self.arrivals[self.next_arrival], 0, _DUE)

    def _pop(self, process: int) -> None:
        self.hand[process] = self.items[process].popleft()
        self.ops.append((self.now, GET, process))

    def _put(self, process: int) -> None:
        buffer = process + 1
        if len(self.items[buffer]) >= self.capacities[buffer]:
            raise Filled
        self.items[buffer].append(self.hand[process])
        self.ops.append((self.now, PUT, buffer))
        self._wake_consumer(buffer)

    # -- the processes ------------------------------------------------------
    def _resume(self, process: int, kind: int) -> None:
        state = self.state[process]
        if state == _GET_WAIT:
            if kind == _DUE and self.not_empty[process] == process:
                self.not_empty[process] = -1
            if process == 0:
                self._admit_due()
            if not self.items[process]:
                self._wait_get(process)
                return
            self._pop(process)
            self._carry_on(process)
        else:       # a sink at the end of its presentation delay
            self.ops.append((self.now, PRESENT, process))
            if self._get(process):
                self._carry_on(process)

    def _carry_on(self, process: int) -> None:
        """Run the process on from an element in hand until it waits or
        ends."""
        eos, ops = self.eos, self.ops
        if process == self.last:
            sched = self.sched
            while True:
                position = self.hand[process]
                if position == eos:
                    ops.append((self.now, LAST, process))
                    self._finish(process)
                    return
                if sched is not None:
                    wait = sched[position] - self.now
                    if wait > 0:
                        self.state[process] = _DELAYING
                        self._push(self.now + wait, process, _DELAY)
                        return
                ops.append((self.now, PRESENT, process))
                if not self._get(process):
                    return
        while True:
            if self.hand[process] != eos:
                ops.append((self.now, TRANSFORM, process))
            self._put(process)
            if self.hand[process] == eos:
                self._finish(process)
                return
            if not self._get(process):
                return

    def _finish(self, process: int) -> None:
        self.state[process] = _DONE
        self.final[process] = self.now


class ConsumerRun:
    """The timeline of one consumer chain, computed at its first look.

    ``chain`` is the head consumer, then each transformer's downstream
    activity, ending in the sink; ``connections[p]`` feeds ``chain[p]``.
    """

    def __init__(self, chain: Sequence, connections: Sequence["Connection"]) -> None:
        head = chain[0]
        simulator = head.simulator
        self.simulator = simulator
        self.chain = list(chain)
        self.connections = list(connections)
        self.buffers = [connection.buffer for connection in connections]
        self.processes = [activity.process for activity in chain]
        source = self.buffers[0]
        sink = chain[-1]
        self.t0 = simulator.now_s
        self.arrival_times = [at for at, _ in source._arrivals]
        self.capacities = [buffer.capacity for buffer in self.buffers]
        self.sched = ([sink._scheduled_time(element)
                       for _, element in list(source._arrivals)[:-1]]
                      if sink.paced else None)
        timeline = self._timeline().run()
        # In time order; admissions, stamped early, move up.
        timeline.ops.sort(key=itemgetter(0))
        self.ops = timeline.ops
        self.final = timeline.final
        #: how many ops have been applied, and what each process holds.
        self._applied = 0
        self.hands: List = [None] * len(chain)
        self._joined = [False] * len(chain)
        self._left = 0
        self._wakes = [simulator.event(f"{activity.name}:cut")
                       for activity in chain]
        self._timers: List[Optional[int]] = [None] * len(chain)
        #: where each process takes over after a cut.
        self._resumes: List = [None] * len(chain)
        self.runs = runs_of(simulator)
        #: what a read of anything this run owns calls: every run of the
        #: simulator is settled, in time order.
        self.settle = self.runs.settle
        self._attach(self)
        # What a due arrival does is an op now; the buffer's own flush
        # hook would admit it a second time.
        source._metrics.remove_flush_hook(source._admit_due)
        self.runs.add(self)

    def _timeline(self) -> _Timeline:
        return _Timeline(self.t0, self.arrival_times, self.capacities,
                         self.sched)

    def _attach(self, run: Optional["ConsumerRun"]) -> None:
        """Point every object whose counters this run owns at it (or,
        with ``None``, away from it)."""
        for activity in self.chain:
            activity.clocked = run
        for buffer in self.buffers:
            buffer.clocked = run
        for connection in self.connections[1:]:
            connection.clocked = run
        for process in self.processes:
            process.on_abandon = None if run is None else self.cut

    # -- the processes' side -------------------------------------------------
    def sleep(self, activity) -> Generator:
        """Generator subroutine: sleep until the activity's last element.

        Returns ``None`` when its part of the run ran out, or where the
        per-element loop takes over after a cut: ``(stage, held, buffer,
        resumed)``, ``resumed`` being the get's ``(event, woke)``.
        """
        process = self.chain.index(activity)
        simulator = self.simulator
        # Its first look, as the per-element loop has it: an empty buffer.
        self.buffers[process]._count_consumer_stall()
        self._joined[process] = True
        wake = self._wakes[process]
        self._timers[process] = simulator.wake_at(
            self.final[process], simulator.active, _RAN_OUT)
        try:
            woke = yield WaitEvent(wake)
        except GeneratorExit:       # a discarded simulation, not an event
            raise
        except BaseException:
            # An interrupt: it meets the process where the per-element
            # loop would have it.
            self.cut()
            raise
        if woke is _RAN_OUT:
            self._timers[process] = None
            self.settle()
            self._left += 1
            if self._left == len(self.chain) and self.buffers[0].clocked is self:
                self._detach()
            return None
        stage, held = self._resumes[process]
        return stage, held, self.buffers[process], (wake, woke)

    # -- settle on read ------------------------------------------------------
    def next_time(self) -> float:
        applied = self._applied
        return self.ops[applied][0] if applied < len(self.ops) else _INF

    def _apply(self, until: float) -> None:
        """Apply every op whose time is not after ``until``, in order."""
        ops = self.ops
        count = len(ops)
        index = self._applied
        if index == count or ops[index][0] > until:
            return
        buffers, hands, chain = self.buffers, self.hands, self.chain
        source = buffers[0]
        while index < count:
            at, code, which = ops[index]
            if at > until:
                break
            index += 1
            if code == GET:
                hands[which] = buffers[which]._items.popleft()
            elif code == ADMIT:
                source._append(source._arrivals.popleft()[1])
            elif code == TRANSFORM:
                element = hands[which] = chain[which]._transform(hands[which])
                connection = self.connections[which + 1]
                connection._elements_sent += 1
                connection._bits_sent += element.size_bits
            elif code == PUT:
                item = hands[which - 1]
                buffers[which]._append(item)
                if item is not END_OF_STREAM:
                    chain[which - 1]._count_processed()
            elif code == STALL_GET:
                buffers[which]._count_consumer_stall()
            elif code == PRESENT:
                chain[which]._present_element(hands[which], at)
            else:       # LAST
                sink = chain[which]
                sink._emit(EVENT_LAST_ELEMENT, sink._elements_consumed)
        self._applied = index

    # -- the cut -------------------------------------------------------------
    def cut(self) -> None:
        """End the run at the current time; every process waits where the
        per-element loop would be waiting, and carries on per element."""
        if self.buffers[0].clocked is not self:
            return      # cut already, or run out
        simulator = self.simulator
        self.settle()
        now = simulator.now_s
        timeline = self._timeline().run(now)
        self._detach()
        wakes, joined, processes = self._wakes, self._joined, self.processes
        for process, state in enumerate(timeline.state):
            if not joined[process] or state == _DONE:
                continue        # its own first look, or its last wake-up, is to come
            simulator.cancel(self._timers[process])
            self._timers[process] = None
            if state == _GET_WAIT:
                buffer = self.buffers[process]
                if not buffer._arrivals:    # a get with a timer waits below
                    buffer._wait_for(wakes[process], processes[process])
                self._resumes[process] = (GETTING, None)
            else:
                self._resumes[process] = (DELAYED, self.hands[process])
        # The timed waits, queued in the order the kernel had them.
        for at, _, process, epoch, kind in sorted(timeline.heap,
                                                  key=lambda entry: entry[1]):
            if (not joined[process] or epoch != timeline.epoch[process]
                    or timeline.state[process] == _DONE):
                continue
            if kind == _DUE:
                self.buffers[0]._wait_for(wakes[0], processes[0])
            else:
                simulator.wake_at(at, processes[process])

    def _detach(self) -> None:
        self._attach(None)
        self.runs.remove(self)
        source = self.buffers[0]
        if source._arrivals:
            source._metrics.add_flush_hook(source._admit_due)


class ConsumerRuns:
    """The consumer runs of one simulator, settled together: op time by
    op time across runs (ties in the order the runs began), so what
    their sinks add to a shared float instrument adds in time order."""

    def __init__(self, simulator: "Simulator") -> None:
        self._clock = simulator._clock
        self._metrics = simulator.obs.metrics
        self.active: List[ConsumerRun] = []

    def add(self, run: ConsumerRun) -> None:
        if not self.active:
            self._metrics.add_flush_hook(self.settle)
        self.active.append(run)

    def remove(self, run: ConsumerRun) -> None:
        self.active.remove(run)
        if not self.active:
            self._metrics.remove_flush_hook(self.settle)

    def settle(self) -> None:
        """Apply every op of every run that is due by now."""
        active = self.active
        if not active:
            return
        now = self._clock.now
        if len(active) == 1:
            active[0]._apply(now)
            return
        while True:
            first, at = None, now
            for run in active:
                due = run.next_time()
                if due < at or (first is None and due == at):
                    first, at = run, due
            if first is None:
                return
            first._apply(at)


def runs_of(simulator: "Simulator") -> ConsumerRuns:
    """The simulator's :class:`ConsumerRuns`, made on first use."""
    runs = getattr(simulator, "_consumer_runs", None)
    if runs is None:
        runs = simulator._consumer_runs = ConsumerRuns(simulator)
    return runs
