"""Generator-based discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock (a :class:`~repro.avtime.WorldTime`)
and an event queue.  User code is written as generator functions that yield
*commands*:

``Delay(dt)``
    Suspend the process for ``dt`` virtual seconds.
``WaitEvent(ev)``
    Suspend until ``ev.trigger(payload)`` fires; the yield evaluates to the
    payload.
``WaitProcess(proc)``
    Suspend until another process finishes; evaluates to its return value.
    If the process failed, its error is re-raised at the yield point.
``Timeout(target, seconds)``
    Like ``WaitEvent``/``WaitProcess`` on ``target``, but with a deadline:
    if the target has not completed after ``seconds`` virtual time,
    :class:`~repro.errors.DeadlineExceeded` is raised at the yield point.
``Acquire(res)`` / ``Release(res)``
    Capacity-based resource handshake (see :mod:`repro.sim.resource`).

Processes may also ``yield`` a nested generator, which runs as a subroutine
(its return value becomes the value of the yield; an exception raised by
the subroutine propagates to the caller's yield), so process logic can be
factored into helper generators.

Fault primitives (see :mod:`repro.faults`): ``Process.interrupt(exc)``
throws an exception into a suspended process at the current virtual time
(a *crash* fault); ``Process.abandon()`` wedges a process forever without
completing it (a *hang* fault — its watchers stay blocked, which is what
``Timeout`` defends against).  A process that dies from an
:class:`~repro.errors.Interrupted` or :class:`~repro.errors.FaultError`
is recorded as a *fault* (``sim.process_faults``), not a failure, and
does not abort ``run()`` — so degradation under injected faults can be
measured instead of exploding.

Internally every suspension has an *epoch*: wakeups carry the epoch of
the suspension they belong to and are discarded if the process has since
been resumed by something else (an interrupt, a timeout, an earlier
trigger).  That is what makes asynchronous interruption safe — a stale
event trigger can never resume a process that has already moved on.

Determinism: ties in the event queue break by (time, sequence number), so
identical inputs replay identical schedules — which is what makes the
benchmark harness reproducible.

Observability: every simulator publishes ``sim.*`` metrics to its
:class:`~repro.obs.Obs` (kernel counters are pre-bound, so the per-event
cost is one attribute increment) and, when tracing is enabled, one span
per process covering its whole virtual lifetime.

Hot-path design (see DESIGN.md "Performance"):

* Queue entries are plain 6-tuples ``(time, seq, kind, proc, epoch,
  payload)``.  ``seq`` is unique, so heap comparisons never look past
  ``(time, seq)`` — entry ordering is tuple-cheap and the (time, seq)
  tie-break is structurally identical to the previous implementation.
* Process wakeups carry ``(proc, epoch, value)`` directly instead of a
  per-wakeup closure; staleness is checked inline at dispatch.
* Yielded commands dispatch through a table keyed on their exact type
  (:data:`_COMMAND_CODE`) instead of an ``isinstance`` chain; a command
  subclass is an unsupported command, like ``yield 42``.
* A stale wake-up (a ``Timeout`` timer whose target already completed,
  a waiter overtaken by an interrupt) stays queued until its time: it
  is popped, moves the clock, counts in ``sim.events_dispatched`` and
  does nothing.
* A wake-up queued with :meth:`Simulator.wake_at` lands at an *absolute*
  virtual time (``now + (t - now)`` can miss ``t`` by an ulp) and can be
  cancelled.  A cancelled entry is not a stale one: it is discarded at
  the head of the queue without moving the clock or
  ``sim.events_dispatched``, so a run that is cut short (a stopped
  stream's end-of-run timer) ends when its last real event does.  The
  run loop pays one truth test of an (almost always empty) set for it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterator, List, Optional, Tuple, Union

from dataclasses import dataclass
from weakref import WeakMethod

from repro.avtime import WorldTime
from repro.errors import DeadlineExceeded, FaultError, Interrupted, SimulationError
from repro.obs import Obs, attach

ProcessGen = Generator[Any, Any, Any]


@dataclass(frozen=True, slots=True)
class Delay:
    """Command: suspend the yielding process for ``seconds`` virtual time."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise SimulationError(f"cannot delay a negative duration ({self.seconds})")


@dataclass(frozen=True, slots=True)
class WaitEvent:
    """Command: suspend until the event triggers."""

    event: "SimEvent"


@dataclass(frozen=True, slots=True)
class WaitProcess:
    """Command: suspend until the process completes."""

    process: "Process"


@dataclass(frozen=True, slots=True)
class Timeout:
    """Command: wait on an event or process, but give up after ``seconds``.

    Evaluates to the event payload / process result when the target
    completes in time; raises :class:`~repro.errors.DeadlineExceeded` at
    the yield point when the deadline passes first.  A target completing
    at *exactly* the deadline loses the tie (the timer was scheduled
    first), which keeps the outcome deterministic.
    """

    target: Union["SimEvent", "Process"]
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise SimulationError(f"cannot time out after a negative duration ({self.seconds})")


@dataclass(frozen=True, slots=True)
class Acquire:
    """Command: acquire ``amount`` units of a resource, queueing if needed."""

    resource: Any
    amount: int = 1


@dataclass(frozen=True, slots=True)
class Release:
    """Command: release ``amount`` units of a resource."""

    resource: Any
    amount: int = 1


class SimEvent:
    """A one-shot event processes can wait on.

    ``trigger(payload)`` wakes every waiter; late waiters (waiting after
    the trigger) resume immediately with the same payload.
    """

    __slots__ = ("simulator", "name", "_triggered", "_payload", "_waiters")

    def __init__(self, simulator: "Simulator", name: str = "") -> None:
        self.simulator = simulator
        self.name = name
        self._triggered = False
        self._payload: Any = None
        self._waiters: List[Tuple[Process, int]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    def trigger(self, payload: Any = None) -> None:
        """Fire the event once, waking every waiter with ``payload``."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._payload = payload
        self.simulator._m_triggered.inc()
        waiters, self._waiters = self._waiters, []
        for proc, epoch in waiters:
            self.simulator._schedule_resume(proc, payload, epoch=epoch)

    def _add_waiter(self, proc: "Process") -> None:
        if self._triggered:
            self.simulator._schedule_resume(proc, self._payload)
        else:
            self._waiters.append((proc, proc._epoch))


class Process:
    """A running simulation process wrapping a user generator."""

    __slots__ = ("simulator", "name", "_gen", "_stack", "done", "result", "error",
                 "_watchers", "_span", "_epoch", "_abandoned", "on_abandon")

    def __init__(self, simulator: "Simulator", gen: ProcessGen, name: str) -> None:
        self.simulator = simulator
        self.name = name
        self._gen = gen
        # Stack of generators for subroutine calls (yield <generator>).
        self._stack: list[ProcessGen] = [gen]
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._watchers: List[Tuple[Process, int]] = []
        self._span = None  # lifetime trace span, set by spawn()
        # Suspension epoch: incremented on every resume; pending wakeups
        # from a previous suspension are discarded (see module docstring).
        self._epoch = 0
        self._abandoned = False
        #: called by :meth:`abandon`, before the process is wedged: a
        #: process that has scheduled work ahead of itself (a clocked-out
        #: stream run) takes back what a hung process would never do.
        self.on_abandon: Optional[Callable[[], None]] = None

    def interrupt(self, error: Optional[BaseException] = None) -> None:
        """Throw ``error`` into the process at the current virtual time.

        The default is a fresh :class:`~repro.errors.Interrupted`.  The
        exception is raised at the process's current yield point; the
        process may catch it (cleanup, retry) or die from it — an
        uncaught ``Interrupted``/``FaultError`` is recorded as a fault,
        not a simulation failure.  No-op on a finished process.
        """
        if self.done or self._abandoned:
            return
        sim = self.simulator
        exc = error if error is not None else Interrupted(
            f"process {self.name!r} interrupted"
        )

        def fire() -> None:
            if not self.done and not self._abandoned:
                sim._step(self, None, throw=exc)

        sim._push(sim._clock.now, fire)

    def abandon(self) -> None:
        """Wedge the process forever (a simulated hang).

        The process never completes: its watchers are never woken and its
        pending wakeups are discarded.  Dependents waiting with plain
        ``WaitProcess`` will deadlock — exactly the failure mode
        ``Timeout`` exists to bound.  Counted as ``sim.process_faults``.
        """
        if self.done or self._abandoned:
            return
        if self.on_abandon is not None:
            self.on_abandon()
        self._abandoned = True
        self._epoch += 1  # invalidate any pending wakeup
        sim = self.simulator
        sim.live_processes -= 1
        sim._m_faults.inc()
        if self._span is not None:
            self._span.end(error="abandoned")
            self._span = None

    def _add_watcher(self, proc: "Process") -> None:
        if self.done:
            if self.error is not None:
                self.simulator._schedule_throw(proc, self.error, proc._epoch)
            else:
                self.simulator._schedule_resume(proc, self.result)
        else:
            self._watchers.append((proc, proc._epoch))

    def __repr__(self) -> str:
        state = ("done" if self.done
                 else "abandoned" if self._abandoned else "running")
        return f"Process({self.name!r}, {state})"


# Queue-entry kinds (index 2 of the 6-tuple).
_RESUME = 0   # payload = value sent into the generator
_THROW = 1    # payload = exception thrown at the yield point
_CALL = 2     # payload = plain callable (proc is None, never stale)

#: queue entry: (time, seq, kind, proc, epoch, payload).  ``seq`` is
#: unique per simulator, so tuple comparison stops at (time, seq) and the
#: remaining elements never need to be comparable.
_QueueEntry = Tuple[float, int, int, Optional["Process"], int, Any]

# Type-keyed command dispatch (exact types: a subclass is unsupported).
_CMD_DELAY = 1
_CMD_WAIT_EVENT = 2
_CMD_WAIT_PROCESS = 3
_CMD_TIMEOUT = 4
_CMD_ACQUIRE = 5
_CMD_RELEASE = 6

_COMMAND_CODE = {
    Delay: _CMD_DELAY,
    WaitEvent: _CMD_WAIT_EVENT,
    WaitProcess: _CMD_WAIT_PROCESS,
    Timeout: _CMD_TIMEOUT,
    Acquire: _CMD_ACQUIRE,
    Release: _CMD_RELEASE,
}


class EpochTicker:
    """Handle for a repeating callable registered with
    :meth:`Simulator.schedule_every`.

    The herd layer advances vectorized client populations on a fixed
    epoch cadence *alongside* the discrete event loop: each tick is an
    ordinary queue entry, so foreground processes scheduled at the same
    instant interleave deterministically by ``(time, seq)``.  The
    action receives the zero-based tick index; ``cancel()`` stops the
    cadence (the pending entry becomes a no-op), and an action raising
    ``StopIteration`` stops it from the inside.
    """

    __slots__ = ("simulator", "interval_s", "action", "until_s",
                 "ticks", "cancelled")

    def __init__(self, simulator: "Simulator", interval_s: float,
                 action: Callable[[int], Any],
                 until_s: Optional[float]) -> None:
        if interval_s <= 0:
            raise SimulationError(
                f"epoch interval must be positive, got {interval_s}")
        self.simulator = simulator
        self.interval_s = interval_s
        self.action = action
        self.until_s = until_s
        self.ticks = 0
        self.cancelled = False

    def cancel(self) -> None:
        """Stop the cadence.  The action is dropped with it: an action
        is usually a bound method of the ticker's owner, which holds the
        ticker, and a stopped ticker has no use for it."""
        self.cancelled = True
        self.action = None

    def _fire(self) -> None:
        if self.cancelled:
            return
        try:
            self.action(self.ticks)
        except StopIteration:
            self.cancel()
            return
        self.ticks += 1
        next_at = self.simulator._clock.now + self.interval_s
        if self.until_s is not None and next_at > self.until_s + 1e-12:
            self.cancel()
            return
        self.simulator._push(next_at, self._fire)


def weak_hook(method: Callable[..., Any]) -> Callable[..., None]:
    """A hook that calls the bound ``method`` while its object lives.

    For a component that registers one of its methods on something it
    holds (the watchdog on its simulator, a cluster on its nodes, a cache
    tier on its cluster): the holder calling back no longer keeps the
    component alive, so a finished run is freed by reference counting
    (DESIGN.md decision 23).  For registration-time hooks, never for a
    per-element path.
    """
    ref = WeakMethod(method)

    def hook(*args: Any) -> None:
        target = ref()
        if target is not None:
            target(*args)
    return hook


class Clock:
    """A simulator's virtual time in seconds, readable without the simulator.

    The simulator advances ``now``; the tracer and decision log of its
    obs scope call the clock to stamp what they record.  The clock holds
    nothing, so the scope the simulator points at does not point back
    (DESIGN.md decision 23): a finished run is freed by reference
    counting, and the clock stays readable for as long as anything can
    still record, a generator closed by the collector included.
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Simulator:
    """The event loop: virtual clock + priority queue of pending actions."""

    def __init__(self, obs: Optional[Obs] = None) -> None:
        self._queue: list[_QueueEntry] = []
        self._seq = 0
        self._clock = Clock()
        #: sequence numbers of cancelled wake-ups still in the heap.
        self._cancelled: set = set()
        #: the process being stepped (what ``wake_at`` is handed by a
        #: generator subroutine that does not know who is running it);
        #: None between steps, so a queued callable never sees the last
        #: process stepped, and a finished run holds none.
        self.active: Optional[Process] = None
        #: number of spawned processes that have not finished (nor been
        #: abandoned) — bounded bookkeeping; finished processes are not
        #: retained by the kernel.
        self.live_processes = 0
        #: the first non-fault process error, recorded at finish time and
        #: re-raised by every subsequent ``run()``.
        self._first_failure: Optional[BaseException] = None
        #: observers of the first failure — called exactly once, at the
        #: moment ``_first_failure`` is recorded, while the dying
        #: process's state is still inspectable.  Supervisors (the
        #: watchdog) use this to leave postmortem evidence for crashes
        #: that would otherwise only surface as a raise from ``run()``.
        self._failure_hooks: List[Callable[[Process, BaseException], None]] = []
        self.obs = attach(obs)
        self.obs.tracer.bind_clock(self._clock)
        self.obs.decisions.bind_clock(self._clock)
        # Pre-bound tracer: the disabled-tracing check in spawn() is one
        # attribute load instead of two.
        self._tracer = self.obs.tracer
        metrics = self.obs.metrics
        self._m_dispatched = metrics.counter("sim.events_dispatched")
        self._m_spawned = metrics.counter("sim.processes_spawned")
        self._m_finished = metrics.counter("sim.processes_finished")
        self._m_failures = metrics.counter("sim.process_failures")
        self._m_faults = metrics.counter("sim.process_faults")
        self._m_triggered = metrics.counter("sim.events_triggered")

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> WorldTime:
        """Current virtual world time."""
        return WorldTime(self._clock.now)

    @property
    def now_s(self) -> float:
        """``now`` in seconds, as the plain float the kernel keeps."""
        return self._clock.now

    # -- public API ------------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        return SimEvent(self, name)

    def spawn(self, gen: ProcessGen, name: str = "process",
              at: Optional[float] = None) -> Process:
        """Register a generator as a process, starting at the current
        time (or at the absolute time ``at``: a process that takes over
        work whose current wait ends then)."""
        if not isinstance(gen, Iterator):
            raise SimulationError(f"spawn() requires a generator, got {type(gen).__name__}")
        proc = Process(self, gen, name)
        self.live_processes += 1
        self._m_spawned.inc()
        tracer = self._tracer
        if tracer.enabled:
            proc._span = tracer.begin(name, "sim.process", track=name)
        if at is None:
            self._schedule_resume(proc, None)
        else:
            self.wake_at(at, proc)
        return proc

    def add_failure_hook(
            self, hook: Callable[["Process", BaseException], None]) -> None:
        """Observe the run's *first* non-fault process failure.

        ``hook(process, error)`` fires once, synchronously, when the
        failure is recorded — before ``run()`` re-raises it.  A hook
        that itself raises is swallowed: supervision must never mask
        the original failure.
        """
        self._failure_hooks.append(hook)

    def schedule_at(self, when: WorldTime, action: Callable[[], None]) -> None:
        """Run a plain callable at virtual time ``when``."""
        if when.seconds < self._clock.now:
            raise SimulationError(f"cannot schedule in the past ({when!r} < now {self.now!r})")
        self._push(when.seconds, action)

    def wake_at(self, when: float, target: Union[Process, Callable[[], None]],
                value: Any = None) -> int:
        """Queue a wake-up at the *absolute* virtual time ``when``.

        ``target`` is a process, resumed with ``value`` if it is still in
        the suspension it is in (or about to enter) now, or a plain
        callable.  Returns a handle for :meth:`cancel`.
        """
        now = self._clock.now
        if when < now:
            raise SimulationError(
                f"cannot wake in the past ({when} < now {now})")
        self._seq += 1
        if isinstance(target, Process):
            heappush(self._queue,
                     (when, self._seq, _RESUME, target, target._epoch, value))
        else:
            heappush(self._queue, (when, self._seq, _CALL, None, 0, target))
        return self._seq

    def cancel(self, handle: int) -> None:
        """Cancel a :meth:`wake_at` wake-up that has not been dispatched.

        The entry is dropped when it reaches the head of the queue,
        without advancing the clock or counting as a dispatched event.
        """
        self._cancelled.add(handle)

    def schedule_every(self, interval_s: float, action: Callable[[int], Any],
                       until: Optional[WorldTime] = None,
                       start_at: Optional[WorldTime] = None) -> EpochTicker:
        """Run ``action(tick_index)`` every ``interval_s`` virtual seconds.

        The epoch tick hook: a fixed cadence advanced through the same
        event queue as every process, so per-epoch batch work (the herd
        coupler) and per-event discrete work interleave
        deterministically.  The first tick fires at ``start_at``
        (default: now); ticks stop after ``until``, on
        :meth:`EpochTicker.cancel`, or when the action raises
        ``StopIteration``.  Returns the :class:`EpochTicker` handle.
        """
        now = self._clock.now
        first = now if start_at is None else start_at.seconds
        if first < now:
            raise SimulationError(
                f"cannot start an epoch cadence in the past "
                f"({first} < now {now})")
        ticker = EpochTicker(self, interval_s,
                             action, until.seconds if until else None)
        self._push(first, ticker._fire)
        return ticker

    def run(self, until: Optional[WorldTime] = None) -> WorldTime:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final virtual time.  If any process raised (other
        than dying from an injected fault), the first such failure
        propagates after being recorded on the process.  ``until``
        before now is an error: the clock never runs backwards.
        """
        limit = until.seconds if until is not None else None
        if limit is not None and limit < self._clock.now:
            raise SimulationError(
                f"cannot run in the past ({until!r} < now {self.now!r})")
        queue = self._queue
        step = self._step
        clock = self._clock
        m_inc = self._m_dispatched.inc
        cancelled = self._cancelled
        while queue:
            entry = queue[0]
            if cancelled and entry[1] in cancelled:
                cancelled.remove(heappop(queue)[1])
                continue
            etime = entry[0]
            if limit is not None and etime > limit:
                break
            heappop(queue)
            clock.now = etime
            m_inc()
            kind = entry[2]
            if kind == _CALL:
                entry[5]()
            else:
                proc = entry[3]
                if (entry[4] == proc._epoch and not proc.done
                        and not proc._abandoned):
                    if kind == _RESUME:
                        step(proc, entry[5])
                    else:
                        step(proc, None, entry[5])
        if limit is not None:
            clock.now = limit
        if self._first_failure is not None:
            raise self._first_failure
        return self.now

    def run_until_complete(self, proc: Process) -> Any:
        """Run until ``proc`` finishes; return its result."""
        queue = self._queue
        step = self._step
        clock = self._clock
        m_inc = self._m_dispatched.inc
        cancelled = self._cancelled
        while not proc.done and queue:
            entry = heappop(queue)
            if cancelled and entry[1] in cancelled:
                cancelled.remove(entry[1])
                continue
            clock.now = entry[0]
            m_inc()
            kind = entry[2]
            if kind == _CALL:
                entry[5]()
            else:
                target = entry[3]
                if (entry[4] == target._epoch and not target.done
                        and not target._abandoned):
                    if kind == _RESUME:
                        step(target, entry[5])
                    else:
                        step(target, None, entry[5])
        if proc.error is not None:
            raise proc.error
        if not proc.done:
            raise SimulationError(f"queue drained before {proc!r} completed (deadlock?)")
        return proc.result

    # -- internals ---------------------------------------------------------
    def _push(self, time: float, action: Callable[[], None]) -> None:
        """Queue a plain callable (never stale)."""
        self._seq += 1
        heappush(self._queue, (time, self._seq, _CALL, None, 0, action))

    def _schedule_resume(self, proc: Process, value: Any, delay: float = 0.0,
                         epoch: Optional[int] = None) -> None:
        """Schedule ``proc`` to resume with ``value``.

        ``epoch`` is the suspension the wakeup belongs to (default: the
        current one); the wakeup is dropped if the process has since been
        resumed by something else.
        """
        self._seq += 1
        heappush(self._queue,
                 (self._clock.now + delay, self._seq, _RESUME, proc,
                  proc._epoch if epoch is None else epoch, value))

    def _schedule_throw(self, proc: Process, exc: BaseException,
                        epoch: int, delay: float = 0.0) -> None:
        """Schedule ``exc`` to be raised at ``proc``'s yield point."""
        self._seq += 1
        heappush(self._queue,
                 (self._clock.now + delay, self._seq, _THROW, proc, epoch, exc))

    def _step(self, proc: Process, send_value: Any,
              throw: Optional[BaseException] = None) -> None:
        if proc.done or proc._abandoned:
            return
        self.active = proc
        try:
            proc._epoch += 1
            stack = proc._stack
            command_code = _COMMAND_CODE.get
            while True:
                gen = stack[-1]
                try:
                    if throw is not None:
                        exc, throw = throw, None
                        command = gen.throw(exc)
                    else:
                        command = gen.send(send_value)
                except StopIteration as stop:
                    stack.pop()
                    if stack:
                        # Subroutine returned: resume the caller with its value.
                        send_value = stop.value
                        continue
                    self._finish(proc, stop.value, None)
                    return
                except BaseException as exc:  # noqa: BLE001 - recorded / propagated
                    stack.pop()
                    if stack:
                        # Subroutine raised: propagate into the caller, which
                        # may catch it at its yield point.
                        throw = exc
                        send_value = None
                        continue
                    self._finish(proc, None, exc)
                    return
                code = command_code(type(command))
                if code is None and isinstance(command, Iterator):
                    stack.append(command)
                    send_value = None
                    continue
                if code == _CMD_DELAY:
                    # Inlined _schedule_resume for the epoch just entered.
                    self._seq += 1
                    heappush(self._queue, (self._clock.now + command.seconds, self._seq,
                                           _RESUME, proc, proc._epoch, None))
                    return
                if code == _CMD_WAIT_EVENT:
                    command.event._add_waiter(proc)
                    return
                if code == _CMD_WAIT_PROCESS:
                    command.process._add_watcher(proc)
                    return
                if code == _CMD_TIMEOUT:
                    epoch = proc._epoch
                    target = command.target
                    if isinstance(target, Process):
                        target._add_watcher(proc)
                    else:
                        target._add_waiter(proc)
                    self._schedule_throw(
                        proc,
                        DeadlineExceeded(
                            f"timed out after {command.seconds:g}s waiting for "
                            f"{getattr(target, 'name', target)!r}"
                        ),
                        epoch, delay=command.seconds,
                    )
                    return
                if code == _CMD_ACQUIRE:
                    command.resource._acquire(proc, command.amount)
                    return
                if code == _CMD_RELEASE:
                    command.resource._release(command.amount)
                    send_value = None
                    continue
                self._finish(
                    proc,
                    None,
                    SimulationError(f"process {proc.name!r} yielded unsupported command {command!r}"),
                )
                return
        finally:
            self.active = None

    def _finish(self, proc: Process, result: Any, error: Optional[BaseException]) -> None:
        proc.done = True
        proc.result = result
        proc.error = error
        self.live_processes -= 1
        self._m_finished.inc()
        if error is not None:
            if isinstance(error, (FaultError, Interrupted)):
                # An injected fault killed the process: expected, measured,
                # and never escalated to a run() abort.
                self._m_faults.inc()
            else:
                self._m_failures.inc()
                if self._first_failure is None:
                    self._first_failure = error
                    for hook in self._failure_hooks:
                        try:
                            hook(proc, error)
                        except Exception:
                            pass
        if proc._span is not None:
            proc._span.end() if error is None else proc._span.end(error=repr(error))
            proc._span = None
        watchers, proc._watchers = proc._watchers, []
        for watcher, epoch in watchers:
            if error is not None:
                self._schedule_throw(watcher, error, epoch)
            else:
                self._schedule_resume(watcher, result, epoch=epoch)
