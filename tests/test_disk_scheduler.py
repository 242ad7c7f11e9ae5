"""Disk-head scheduling: FCFS vs C-SCAN."""

import pytest

from repro.avtime import WorldTime
from repro.sim import Delay, Simulator, WaitEvent
from repro.storage.scheduler import DiskScheduler, Policy
from repro.errors import SchedulerStoppedError, StorageError


def run_workload(policy, positions, bits=100_000):
    """Submit interleaved requests from two 'streams'; return scheduler."""
    sim = Simulator()
    disk = DiskScheduler(sim, policy=policy)
    disk.start()
    completed = []

    def client():
        requests = [disk.submit(p, bits) for p in positions]
        for request in requests:
            yield WaitEvent(request.done)
            completed.append(request)

    proc = sim.spawn(client())
    sim.run_until_complete(proc)
    disk.stop()
    sim.run()
    return disk, completed


class TestPolicies:
    # Two sequential streams interleaved: the FCFS worst case.
    POSITIONS = [10, 900, 20, 910, 30, 920, 40, 930, 50, 940]

    def test_all_requests_served_under_both(self):
        for policy in (Policy.FCFS, Policy.CSCAN):
            disk, completed = run_workload(policy, self.POSITIONS)
            assert disk.requests_served == len(self.POSITIONS)
            assert len(completed) == len(self.POSITIONS)

    def test_cscan_reduces_seek_distance(self):
        fcfs, _ = run_workload(Policy.FCFS, self.POSITIONS)
        cscan, _ = run_workload(Policy.CSCAN, self.POSITIONS)
        assert cscan.total_seek_distance < fcfs.total_seek_distance / 3

    def test_fcfs_preserves_order(self):
        _, completed = run_workload(Policy.FCFS, self.POSITIONS)
        served_order = [r.position for r in completed]
        assert served_order == self.POSITIONS

    def test_cscan_serves_ascending_then_wraps(self):
        sim = Simulator()
        disk = DiskScheduler(sim, policy=Policy.CSCAN)
        requests = [disk.submit(p, 1000) for p in (500, 100, 700, 300, 900)]
        disk.start()

        def watcher():
            for request in requests:
                yield WaitEvent(request.done)

        proc = sim.spawn(watcher())
        sim.run_until_complete(proc)
        order = sorted(requests, key=lambda r: r.completed_at)
        # Head starts at 0: everything is 'ahead', so pure ascending order.
        assert [r.position for r in order] == [100, 300, 500, 700, 900]
        disk.stop()

    def test_requests_submitted_while_busy(self):
        sim = Simulator()
        disk = DiskScheduler(sim, policy=Policy.CSCAN)
        disk.start()
        done = []

        def early():
            request = disk.submit(100, 1_000_000)
            yield WaitEvent(request.done)
            done.append("early")

        def late():
            yield Delay(0.005)  # arrives while the first transfer runs
            request = disk.submit(50, 1_000_000)
            yield WaitEvent(request.done)
            done.append("late")

        sim.spawn(early())
        sim.spawn(late())
        sim.run()
        assert done == ["early", "late"]
        disk.stop()

    def test_validation(self):
        sim = Simulator()
        disk = DiskScheduler(sim)
        with pytest.raises(StorageError):
            disk.submit(-1, 100)
        with pytest.raises(StorageError):
            disk.submit(10**9, 100)
        with pytest.raises(StorageError):
            disk.submit(10, -5)
        disk.start()
        with pytest.raises(StorageError, match="already started"):
            disk.start()
        with pytest.raises(StorageError):
            DiskScheduler(sim, cylinders=0)

    def test_read_subroutine(self):
        sim = Simulator()
        disk = DiskScheduler(sim, policy=Policy.FCFS)
        disk.start()

        def client():
            request = yield disk.read(200, 480_000)
            return request

        proc = sim.spawn(client())
        request = sim.run_until_complete(proc)
        assert request.completed_at > 0
        # 200 cylinders * 20 µs + 480000/48e6 = 0.004 + 0.010
        assert request.completed_at == pytest.approx(0.014)
        disk.stop()


class TestShutdownSemantics:
    """stop() must never strand a waiter: queued requests fail with their
    done events fired (this used to deadlock run_until_complete)."""

    def _started(self, sim):
        disk = DiskScheduler(sim, policy=Policy.FCFS)
        disk.start()
        return disk

    def test_stop_with_queued_requests_does_not_deadlock(self, sim):
        disk = self._started(sim)
        outcomes = []

        def client(position):
            try:
                yield disk.read(position, 10_000_000)
            except SchedulerStoppedError:
                outcomes.append(("failed", position))
                return "failed"
            outcomes.append(("served", position))
            return "served"

        procs = [sim.spawn(client(p)) for p in (100, 200, 300)]
        sim.schedule_at(WorldTime(0.001), disk.stop)
        # The regression: this used to hang forever ("queue drained before
        # process completed") because queued done events never fired.
        results = [sim.run_until_complete(proc) for proc in procs]
        # The in-flight transfer completes; the two queued ones fail.
        assert results == ["served", "failed", "failed"]
        assert disk.requests_failed == 2
        assert sim.obs.metrics.counter(
            "storage.disk_requests_failed").value == 2

    def test_failed_request_carries_error_payload(self, sim):
        disk = self._started(sim)
        blocker = disk.submit(100, 10_000_000)
        queued = disk.submit(200, 10_000_000)
        sim.schedule_at(WorldTime(0.001), disk.stop)
        sim.run()
        assert blocker.completed and blocker.error is None
        assert queued.error is not None and not queued.completed
        assert isinstance(queued.error, SchedulerStoppedError)
        assert queued.done.triggered
        # The request carries the error; the event does not point back
        # at it (a request and its event are freed by refcount).
        assert queued.done._payload is None

    def test_submit_after_stop_raises(self, sim):
        disk = self._started(sim)
        disk.stop()
        with pytest.raises(SchedulerStoppedError):
            disk.submit(10, 1000)

    def test_drain_serves_backlog_before_exiting(self, sim):
        disk = self._started(sim)
        requests = [disk.submit(p, 10_000_000) for p in (100, 200, 300)]
        disk.stop(drain=True)
        sim.run()
        assert all(r.completed and r.error is None for r in requests)
        assert disk.requests_failed == 0
        assert not disk.running
        with pytest.raises(SchedulerStoppedError):
            disk.submit(10, 1000)

    def test_restart_after_stop_serves_again(self, sim):
        disk = self._started(sim)
        disk.stop()
        disk.start()

        def client():
            return (yield disk.read(50, 480_000))

        request = sim.run_until_complete(sim.spawn(client()))
        assert request.completed
        assert disk.running

    def test_stop_is_idempotent(self, sim):
        disk = self._started(sim)
        disk.stop()
        disk.stop()     # a second stop is a no-op, not an error
        assert not disk.running


class TestDeadlineAccounting:
    """completed_at uses an explicit None sentinel: a request really can
    complete at virtual time 0.0 (this used to read ``completed_at > 0``)."""

    def test_completion_at_virtual_time_zero(self, sim):
        disk = DiskScheduler(sim, policy=Policy.FCFS)
        disk.start()
        # Head starts at 0; zero distance and zero bits = zero service time.
        request = disk.submit(0, 0, deadline=1.0)

        def wait():
            yield WaitEvent(request.done)

        sim.run_until_complete(sim.spawn(wait()))
        assert request.completed_at == 0.0
        assert request.completed          # NOT mistaken for "pending"
        assert request.wait_seconds == 0.0
        assert not request.missed_deadline
        assert disk.deadline_misses == 0
        assert disk.mean_wait([request]) == 0.0

    def test_pending_request_raises_on_wait_seconds(self, sim):
        disk = DiskScheduler(sim, policy=Policy.FCFS)
        request = disk.submit(10, 1000)
        assert not request.completed
        with pytest.raises(StorageError, match="not completed"):
            request.wait_seconds

    def test_deadline_miss_still_detected(self, sim):
        disk = DiskScheduler(sim, policy=Policy.FCFS)
        disk.start()
        # 500 cylinders * 20 us + 480000/48e6 = 0.020 s > the 0.005 deadline.
        request = disk.submit(500, 480_000, deadline=0.005)

        def wait():
            yield WaitEvent(request.done)

        sim.run_until_complete(sim.spawn(wait()))
        assert request.missed_deadline
        assert disk.deadline_misses == 1
