"""The DES kernel: delays, events, subroutines, resources, determinism."""

import pytest

from repro.avtime import WorldTime
from repro.errors import DeadlineExceeded, FaultError, Interrupted, SimulationError
from repro.sim import (
    Acquire,
    Delay,
    Release,
    SimResource,
    Simulator,
    Timeout,
    WaitEvent,
    WaitProcess,
)


class TestDelays:
    def test_delay_advances_clock(self, sim):
        log = []

        def proc():
            yield Delay(1.5)
            log.append(sim.now.seconds)
            yield Delay(0.5)
            log.append(sim.now.seconds)

        sim.spawn(proc())
        sim.run()
        assert log == [1.5, 2.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Delay(-1.0)

    def test_run_until_limit(self, sim):
        ticks = []

        def ticker():
            for _ in range(100):
                yield Delay(1.0)
                ticks.append(sim.now.seconds)

        sim.spawn(ticker())
        end = sim.run(until=WorldTime(5.5))
        assert end == WorldTime(5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_zero_delay_keeps_fifo_order(self, sim):
        order = []

        def make(name):
            def proc():
                yield Delay(0.0)
                order.append(name)
            return proc()

        for name in "abc":
            sim.spawn(make(name))
        sim.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_trigger_wakes_waiter_with_payload(self, sim):
        event = sim.event("go")
        got = []

        def waiter():
            payload = yield WaitEvent(event)
            got.append((payload, sim.now.seconds))

        def firer():
            yield Delay(2.0)
            event.trigger("hello")

        sim.spawn(waiter())
        sim.spawn(firer())
        sim.run()
        assert got == [("hello", 2.0)]

    def test_late_waiter_resumes_immediately(self, sim):
        event = sim.event()
        event.trigger(42)
        got = []

        def late():
            value = yield WaitEvent(event)
            got.append(value)

        sim.spawn(late())
        sim.run()
        assert got == [42]

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.trigger()
        with pytest.raises(SimulationError):
            event.trigger()


class TestProcesses:
    def test_wait_process_gets_return_value(self, sim):
        def worker():
            yield Delay(1.0)
            return "result"

        def waiter(proc):
            value = yield WaitProcess(proc)
            return value

        worker_proc = sim.spawn(worker())
        waiter_proc = sim.spawn(waiter(worker_proc))
        assert sim.run_until_complete(waiter_proc) == "result"

    def test_subroutine_generators(self, sim):
        def helper(n):
            yield Delay(n)
            return n * 2

        def main():
            a = yield helper(1.0)
            b = yield helper(2.0)
            return a + b

        proc = sim.spawn(main())
        assert sim.run_until_complete(proc) == 6
        assert sim.now.seconds == 3.0

    def test_process_error_propagates_from_run(self, sim):
        def bad():
            yield Delay(1.0)
            raise ValueError("boom")

        sim.spawn(bad())
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_unsupported_yield_is_error(self):
        # Commands dispatch on their exact type: a subclass of one is
        # as unsupported as a plain value.
        class Nap(Delay):
            pass

        for command in (42, Nap(1.0)):
            sim = Simulator()

            def bad():
                yield command

            sim.spawn(bad())
            with pytest.raises(SimulationError, match="unsupported command"):
                sim.run()

    def test_spawn_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.spawn(lambda: None)  # type: ignore[arg-type]

    def test_deadlock_detected_by_run_until_complete(self, sim):
        event = sim.event()

        def stuck():
            yield WaitEvent(event)

        proc = sim.spawn(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(proc)


class TestScheduleAt:
    def test_callable_runs_at_time(self, sim):
        fired = []
        sim.schedule_at(WorldTime(3.0), lambda: fired.append(sim.now.seconds))
        sim.run()
        assert fired == [3.0]

    def test_cannot_schedule_in_past(self, sim):
        sim.schedule_at(WorldTime(1.0), lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(WorldTime(0.5), lambda: None)


class TestWakeAt:
    """Absolute, cancellable wake-ups (what a clocked-out stream run
    sleeps on, see ``repro.activities.clockout``)."""

    def test_lands_on_the_absolute_time(self, sim):
        # now + (t - now) misses t by an ulp for these two.
        now, t = 0.49548131256434724, 1.7014261750099402
        assert now + (t - now) != t
        woke = []

        def sleeper():
            yield Delay(now)
            sim.wake_at(t, sim.active, "due")
            woke.append((yield WaitEvent(sim.event())))
            woke.append(sim.now.seconds)

        sim.spawn(sleeper())
        sim.run()
        assert woke == ["due", t]

    def test_callable_target_and_past_time(self, sim):
        fired = []
        sim.wake_at(2.5, lambda: fired.append(sim.now.seconds))
        sim.run()
        assert fired == [2.5]
        with pytest.raises(SimulationError, match="in the past"):
            sim.wake_at(1.0, lambda: None)

    def test_cancelled_wakeup_moves_neither_clock_nor_count(self, sim):
        fired = []
        sim.schedule_at(WorldTime(1.0), lambda: fired.append("real"))
        handle = sim.wake_at(9.0, lambda: fired.append("cancelled"))
        sim.cancel(handle)
        assert sim.run().seconds == 1.0
        assert fired == ["real"]
        assert sim.obs.metrics.counter("sim.events_dispatched").value == 1
        assert not sim._cancelled and not sim._queue

    def test_run_until_complete_drops_a_cancelled_wakeup(self, sim):
        fired = []
        handle = sim.wake_at(0.5, lambda: fired.append("cancelled"))
        sim.cancel(handle)

        def sleeper():
            yield Delay(1.0)
            return "done"

        assert sim.run_until_complete(sim.spawn(sleeper())) == "done"
        assert fired == [] and sim.now.seconds == 1.0
        assert not sim._cancelled and not sim._queue

    def test_a_cancelled_cadence_fires_no_more(self, sim):
        ticks = []
        ticker = sim.schedule_every(1.0, ticks.append)
        sim.run(until=WorldTime(1.5))
        ticker.cancel()     # the fire queued for 2.0 finds it cancelled
        sim.run()
        assert ticks == [0, 1] and ticker.ticks == 2

    def test_stale_wakeup_is_still_a_counted_pop(self, sim):
        # Not cancelled, only overtaken: popped, counted, and it moves
        # the clock, as stale wake-ups always have.
        event = sim.event()

        def sleeper():
            sim.wake_at(9.0, sim.active)
            yield WaitEvent(event)

        sim.spawn(sleeper())
        sim.schedule_at(WorldTime(1.0), event.trigger)
        assert sim.run().seconds == 9.0
        assert sim.obs.metrics.counter("sim.events_dispatched").value == 4
        assert not sim._queue and not sim._cancelled

    def test_cancelling_a_process_wakeup_keeps_the_books(self, sim):
        event = sim.event()
        handles = []

        def sleeper():
            handles.append(sim.wake_at(9.0, sim.active))
            yield WaitEvent(event)          # woken at 1.0: the timer is stale
            sim.cancel(handles[0])          # ...and cancelled after the fact
            handles.append(sim.wake_at(8.0, sim.active))
            sim.cancel(handles[1])          # cancelled while live
            yield Delay(1.0)

        process = sim.spawn(sleeper())
        sim.schedule_at(WorldTime(1.0), event.trigger)
        assert sim.run().seconds == 2.0
        assert process.done
        assert not sim._queue and not sim._cancelled

    def test_stale_then_cancelled_wakeup_is_dropped_uncounted(self, sim):
        # The 50 s wake-up goes stale at 1.0 s (the event wins), then is
        # cancelled: it moves neither the clock nor the count, while the
        # six stale 30 s Timeout timers still do.
        event = sim.event()

        def nap():
            yield Delay(0.001)

        def sleeper():
            handle = sim.wake_at(50.0, sim.active)
            yield WaitEvent(event)
            for _ in range(6):
                inner = sim.spawn(nap())
                yield Timeout(inner, 30.0)
            sim.cancel(handle)

        sim.spawn(sleeper())
        sim.schedule_at(WorldTime(1.0), event.trigger)
        assert sim.run().seconds == 31.005      # not 50.0
        assert sim.obs.metrics.counter("sim.events_dispatched").value == 27
        assert not sim._queue and not sim._cancelled

    def test_spawn_at_starts_the_process_then(self, sim):
        started = []

        def late():
            started.append(sim.now.seconds)
            yield Delay(1.0)

        sim.spawn(late(), at=4.0)
        assert sim.run().seconds == 5.0
        assert started == [4.0]

    def test_on_abandon_runs_before_the_process_is_wedged(self, sim):
        seen = []

        def proc():
            yield Delay(10.0)

        process = sim.spawn(proc())
        process.on_abandon = lambda: seen.append(process._abandoned)
        process.abandon()
        process.abandon()
        assert seen == [False] and process._abandoned


class TestResources:
    def test_capacity_enforced_with_queueing(self, sim):
        resource = SimResource(sim, capacity=1, name="device")
        order = []

        def user(name, hold):
            yield Acquire(resource)
            order.append((name, "got", sim.now.seconds))
            yield Delay(hold)
            yield Release(resource)

        sim.spawn(user("a", 2.0))
        sim.spawn(user("b", 1.0))
        sim.run()
        assert order == [("a", "got", 0.0), ("b", "got", 2.0)]
        assert resource.wait_count == 1

    def test_multi_unit_acquire(self, sim):
        resource = SimResource(sim, capacity=3)
        got = []

        def user(units, hold):
            yield Acquire(resource, units)
            got.append((units, sim.now.seconds))
            yield Delay(hold)
            yield Release(resource, units)

        sim.spawn(user(2, 1.0))
        sim.spawn(user(2, 1.0))  # must wait for first
        sim.run()
        assert got == [(2, 0.0), (2, 1.0)]

    def test_over_capacity_acquire_rejected(self, sim):
        resource = SimResource(sim, capacity=2)

        def greedy():
            yield Acquire(resource, 3)

        sim.spawn(greedy())
        with pytest.raises(SimulationError):
            sim.run()

    def test_release_more_than_held_rejected(self, sim):
        resource = SimResource(sim, capacity=2)

        def bad():
            yield Acquire(resource, 1)
            yield Release(resource, 2)

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimulationError):
            SimResource(sim, capacity=0)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            simulator = Simulator()
            trace = []

            def proc(name, period):
                for _ in range(5):
                    yield Delay(period)
                    trace.append((name, simulator.now.seconds))

            simulator.spawn(proc("x", 0.3))
            simulator.spawn(proc("y", 0.5))
            simulator.run()
            return trace

        assert build_and_run() == build_and_run()


class TestKernelMetrics:
    """The kernel publishes sim.* metrics on every run (no opt-in)."""

    def test_dispatch_and_process_counters(self, sim):
        def proc():
            yield Delay(0.5)
            yield Delay(0.5)

        sim.spawn(proc())
        sim.spawn(proc())
        sim.run()
        metrics = sim.obs.metrics
        assert metrics.counter("sim.events_dispatched").value > 0
        assert metrics.counter("sim.processes_spawned").value == 2
        assert metrics.counter("sim.processes_finished").value == 2
        assert metrics.counter("sim.process_failures").value == 0

    def test_failure_counter(self, sim):
        def bad():
            yield Delay(0.1)
            raise RuntimeError("boom")

        sim.spawn(bad())
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.obs.metrics.counter("sim.process_failures").value == 1

    def test_resource_wait_histogram(self, sim):
        resource = SimResource(sim, capacity=1)

        def holder():
            yield Acquire(resource)
            yield Delay(2.0)
            yield Release(resource)

        def waiter():
            yield Delay(0.5)     # arrive while the holder has the unit
            yield Acquire(resource)
            yield Release(resource)

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        metrics = sim.obs.metrics
        wait = metrics.histogram("sim.resource_wait_s")
        assert wait.count == 2                       # one per grant
        assert wait.max == pytest.approx(1.5)        # waiter queued 0.5 -> 2.0
        assert metrics.counter("sim.resource_grants").value == 2
        assert metrics.counter("sim.resource_waits").value == 1


class TestFaultPrimitives:
    """interrupt(), abandon() and Timeout — the kernel surface the fault
    injector is built on."""

    def test_interrupt_is_catchable_at_the_yield_point(self, sim):
        log = []

        def proc():
            try:
                yield Delay(10.0)
            except Interrupted:
                log.append(sim.now.seconds)
                yield Delay(1.0)       # the process may carry on afterwards
                log.append(sim.now.seconds)

        process = sim.spawn(proc())
        sim.schedule_at(WorldTime(2.0), process.interrupt)
        sim.run()
        assert log == [pytest.approx(2.0), pytest.approx(3.0)]
        assert process.done and process.error is None

    def test_uncaught_interrupt_is_a_fault_not_a_failure(self, sim):
        def proc():
            yield Delay(10.0)

        process = sim.spawn(proc())
        sim.schedule_at(WorldTime(1.0), process.interrupt)
        sim.run()                       # must NOT raise
        assert isinstance(process.error, Interrupted)
        metrics = sim.obs.metrics
        assert metrics.counter("sim.process_faults").value == 1
        assert metrics.counter("sim.process_failures").value == 0

    def test_stale_wakeup_is_discarded_after_interrupt(self, sim):
        # The epoch mechanism: a trigger registered before the interrupt
        # must not resume the process out of a *later* suspension.
        event = sim.event("stale")
        log = []

        def proc():
            try:
                yield WaitEvent(event)
                log.append("event")
            except Interrupted:
                log.append("interrupted")
            yield Delay(5.0)
            log.append("slept")

        process = sim.spawn(proc())
        sim.schedule_at(WorldTime(1.0), process.interrupt)
        sim.schedule_at(WorldTime(2.0), event.trigger)   # lands mid-Delay
        end = sim.run()
        assert log == ["interrupted", "slept"]
        assert end.seconds == pytest.approx(6.0)         # Delay ran in full

    def test_abandon_wedges_without_completing(self, sim):
        def proc():
            yield Delay(10.0)
            return "never"

        process = sim.spawn(proc())
        assert sim.live_processes == 1
        process.abandon()
        assert sim.live_processes == 0
        sim.run()
        assert process._abandoned and not process.done
        assert sim.obs.metrics.counter("sim.process_faults").value == 1

    def test_timeout_passes_payload_when_target_is_in_time(self, sim):
        event = sim.event("prompt")
        sim.schedule_at(WorldTime(0.5), lambda: event.trigger("payload"))

        def proc():
            return (yield Timeout(event, 1.0))

        assert sim.run_until_complete(sim.spawn(proc())) == "payload"

    def test_timeout_raises_when_deadline_passes_first(self, sim):
        event = sim.event("tardy")
        sim.schedule_at(WorldTime(2.0), event.trigger)
        when = []

        def proc():
            try:
                yield Timeout(event, 1.0)
            except DeadlineExceeded:
                when.append(sim.now.seconds)

        sim.spawn(proc())
        sim.run()
        assert when == [pytest.approx(1.0)]

    def test_waitprocess_reraises_child_fault_in_watcher(self, sim):
        def child():
            yield Delay(1.0)
            raise FaultError("injected")

        child_proc = sim.spawn(child())

        def parent():
            try:
                yield WaitProcess(child_proc)
            except FaultError as exc:
                return f"caught: {exc}"

        parent_proc = sim.spawn(parent())
        sim.run()
        assert parent_proc.result == "caught: injected"

    def test_subroutine_exception_propagates_to_caller(self, sim):
        def sub():
            yield Delay(0.5)
            raise FaultError("inner")

        def proc():
            try:
                yield sub()
            except FaultError:
                return "handled"

        assert sim.run_until_complete(sim.spawn(proc())) == "handled"


class TestRunBookkeeping:
    """The kernel keeps a bounded live-process count and records the first
    failure at finish time (it used to retain every process ever spawned
    and rescan the list after each run)."""

    def test_live_processes_drops_to_zero(self, sim):
        def proc():
            yield Delay(0.1)

        for _ in range(50):
            sim.spawn(proc())
        assert sim.live_processes == 50
        sim.run()
        assert sim.live_processes == 0

    def test_first_failure_by_finish_time_is_raised_and_persists(self, sim):
        def fail_at(t, message):
            yield Delay(t)
            raise RuntimeError(message)

        sim.spawn(fail_at(2.0, "second"))
        sim.spawn(fail_at(1.0, "first"))
        with pytest.raises(RuntimeError, match="first"):
            sim.run()
        # The failure is sticky: later runs re-raise it too.
        with pytest.raises(RuntimeError, match="first"):
            sim.run()
        assert sim.obs.metrics.counter("sim.process_failures").value == 2

    def test_run_until_the_past_is_refused(self, sim):
        sim.schedule_at(WorldTime(10.0), lambda: None)
        assert sim.run(until=WorldTime(6.0)).seconds == 6.0
        assert sim.run(until=WorldTime(6.0)).seconds == 6.0   # now: legal
        with pytest.raises(SimulationError, match="in the past"):
            sim.run(until=WorldTime(2.0))
        assert sim.now_s == 6.0
        with pytest.raises(SimulationError, match="in the past"):
            sim.schedule_at(WorldTime(3.0), lambda: None)


class TestActiveProcess:
    """``Simulator.active`` names the process being stepped and nothing
    else: it used to keep the last process stepped after a run returned,
    and a queued callable (an epoch tick, a ``wake_at`` callable) saw
    that stale process."""

    def test_none_once_a_run_returns(self, sim):
        seen = []

        def proc():
            seen.append(sim.active)
            yield Delay(1.0)
            seen.append(sim.active)

        process = sim.spawn(proc(), "p")
        sim.run()
        assert seen == [process, process]
        assert sim.active is None
        other = sim.spawn(proc(), "q")
        sim.run_until_complete(other)
        assert sim.active is None

    def test_a_queued_callable_sees_no_process(self, sim):
        seen = []

        def proc():
            yield Delay(1.0)
            # Queued behind this step, at the same instant.
            sim.wake_at(sim.now_s, lambda: seen.append(sim.active))
            sim.schedule_every(0.5, lambda tick: seen.append(sim.active),
                               until=WorldTime(1.5))

        sim.spawn(proc(), "p")
        sim.run()
        assert seen == [None, None, None]
