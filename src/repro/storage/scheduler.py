"""Disk-head scheduling for concurrent stream requests.

"disk accesses are scheduled by the storage sub-system" (§3.3) — with
several concurrent AV streams reading from one disk, the order the head
services requests in determines total seek overhead.  This module models
the head position explicitly and implements the two classic policies:

* **FCFS** — requests served in arrival order; the head zig-zags;
* **C-SCAN** — the elevator: service in ascending position order, then
  sweep back; seek totals drop sharply under concurrent sequential
  streams.

``DiskScheduler`` runs as a DES server process: clients submit
:class:`DiskRequest` objects and wait on per-request events; the bench
``bench_ablation_scheduler.py`` measures the policy gap.

Shutdown semantics: ``stop()`` *fails* every queued request (each
``done`` event fires with the request carrying a
:class:`~repro.errors.SchedulerStoppedError`) so no waiter is ever
stranded; ``stop(drain=True)`` instead serves the backlog
before the server exits.  A stopped scheduler can be restarted with
``start()`` — which is how the fault injector models a disk outage.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import Deque, Generator, List, Optional, Tuple

from repro.errors import SchedulerStoppedError, StorageError
from repro.sim import Delay, SimEvent, Simulator, WaitEvent


class Policy(Enum):
    FCFS = "fcfs"
    CSCAN = "c-scan"


@dataclass
class DiskRequest:
    """One transfer request against the disk."""

    position: int       # logical track/cylinder of the extent
    bits: int           # transfer size
    done: SimEvent = field(repr=False, default=None)
    submitted_at: float = 0.0
    #: virtual completion time; ``None`` until the transfer finishes (a
    #: request really can complete at virtual time 0.0, so the sentinel
    #: must not be a magic float).
    completed_at: Optional[float] = None
    #: virtual time by which the transfer must complete (None = best-effort);
    #: a completion past the deadline counts as a ``storage.deadline_misses``.
    deadline: Optional[float] = None
    #: why the request failed (e.g. the scheduler stopped); the ``done``
    #: event still fires.  It fires without a payload: the waiter holds
    #: the request, and an event holding it back would make the pair a
    #: cycle that outlives the run (DESIGN.md decision 23).
    error: Optional[BaseException] = None

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def wait_seconds(self) -> float:
        if self.completed_at is None:
            raise StorageError("request has not completed")
        return self.completed_at - self.submitted_at

    @property
    def missed_deadline(self) -> bool:
        return (self.deadline is not None and self.completed_at is not None
                and self.completed_at > self.deadline + 1e-12)


class DiskScheduler:
    """A single-head disk served under a pluggable scheduling policy.

    Parameters
    ----------
    cylinders:
        Number of head positions; seek time is proportional to distance.
    seek_per_cylinder_s:
        Seconds to move the head one cylinder.
    transfer_bps:
        Media transfer rate once positioned.
    """

    def __init__(self, simulator: Simulator, policy: Policy = Policy.CSCAN,
                 cylinders: int = 1000, seek_per_cylinder_s: float = 0.00002,
                 transfer_bps: float = 48_000_000.0) -> None:
        if cylinders < 1:
            raise StorageError(f"cylinder count must be >= 1, got {cylinders}")
        if transfer_bps <= 0:
            raise StorageError(f"transfer rate must be positive, got {transfer_bps}")
        self.simulator = simulator
        self.policy = policy
        self.cylinders = cylinders
        self.seek_per_cylinder_s = seek_per_cylinder_s
        self.transfer_bps = transfer_bps
        self.head_position = 0
        #: FCFS backlog (arrival order).  Under C-SCAN the backlog lives
        #: in the two heaps below instead and this deque stays empty.
        self._queue: Deque[DiskRequest] = deque()
        # C-SCAN: requests at or ahead of the head vs. behind it, each a
        # min-heap keyed (position, seq) — seq is the arrival number, so
        # equal positions serve in arrival order, matching the old O(n)
        # scan's first-minimum choice.  The head only descends when the
        # ahead heap empties (sweep back), at which point the heaps swap;
        # insert-time classification therefore never goes stale.
        self._ahead: List[Tuple[int, int, DiskRequest]] = []
        self._behind: List[Tuple[int, int, DiskRequest]] = []
        self._arrivals = 0
        self._wake: Optional[SimEvent] = None
        self._running = False
        self._stopped = False   # started once, then stopped (rejects submits)
        self._drain = False
        #: fault-injection knob: service times are multiplied by this
        #: factor (1.0 = healthy; >1 = injected slowdown).
        self.service_scale = 1.0
        self.total_seek_distance = 0
        self.requests_served = 0
        self.requests_failed = 0
        self.deadline_misses = 0
        #: 1 while a picked request is being seeked/transferred.  Load
        #: scorers add this to ``queue_depth``: a disk one second into a
        #: long transfer is busy even though nothing is *queued*.
        self.in_service = 0
        metrics = simulator.obs.metrics
        self._m_requests = metrics.counter("storage.disk_requests")
        self._m_seeks = metrics.counter("storage.seek_cylinders")
        self._m_wait_s = metrics.histogram("storage.disk_wait_s")
        self._m_queue_depth = metrics.histogram("storage.disk_queue_depth")
        self._m_misses = metrics.counter("storage.deadline_misses")
        self._m_failed = metrics.counter("storage.disk_requests_failed")

    @property
    def running(self) -> bool:
        return self._running

    # -- client API ----------------------------------------------------------
    def submit(self, position: int, bits: int,
               deadline: Optional[float] = None) -> DiskRequest:
        """Queue a request; wait on ``request.done`` for completion."""
        if not 0 <= position < self.cylinders:
            raise StorageError(
                f"position {position} outside [0, {self.cylinders})"
            )
        if bits < 0:
            raise StorageError(f"transfer size must be >= 0, got {bits}")
        if self._stopped:
            raise SchedulerStoppedError(
                f"disk scheduler ({self.policy.value}) is stopped"
            )
        request = DiskRequest(position, bits, self.simulator.event("disk-done"),
                              submitted_at=self.simulator.now_s,
                              deadline=deadline)
        if self.policy is Policy.FCFS:
            self._queue.append(request)
        else:
            self._arrivals += 1
            entry = (position, self._arrivals, request)
            if position >= self.head_position:
                heappush(self._ahead, entry)
            else:
                heappush(self._behind, entry)
        self._m_requests.inc()
        self._m_queue_depth.observe(self.queue_depth)
        if self._wake is not None and not self._wake.triggered:
            self._wake.trigger()
        return request

    @property
    def queue_depth(self) -> int:
        """Requests queued but not yet picked for service."""
        return len(self._queue) + len(self._ahead) + len(self._behind)

    def read(self, position: int, bits: int,
             deadline: Optional[float] = None) -> Generator:
        """DES subroutine: submit and wait; raises if the request failed."""
        request = self.submit(position, bits, deadline)
        yield WaitEvent(request.done)
        if request.error is not None:
            raise request.error
        return request

    # -- the server process ------------------------------------------------
    def start(self) -> None:
        """Start (or restart after ``stop()``) the server process."""
        if self._running:
            raise StorageError("disk scheduler already started")
        self._running = True
        self._stopped = False
        self._drain = False
        self.simulator.spawn(self._serve(), name=f"disk-{self.policy.value}")

    def stop(self, drain: bool = False) -> None:
        """Stop the server.

        With ``drain=False`` (default) every queued request fails
        immediately: its ``done`` event fires with the request carrying a
        :class:`~repro.errors.SchedulerStoppedError`, so waiters always
        wake instead of deadlocking.  With ``drain=True`` the backlog is
        served first, then the server exits.  An in-flight transfer
        always completes either way.
        """
        if not self._running:
            return
        self._running = False
        self._stopped = True
        self._drain = drain
        if not drain:
            self._fail_pending(SchedulerStoppedError(
                f"disk scheduler ({self.policy.value}) stopped with "
                f"{self.queue_depth} requests queued"
            ))
        if self._wake is not None and not self._wake.triggered:
            self._wake.trigger()

    def _fail_pending(self, error: BaseException) -> None:
        # Fail in arrival order regardless of policy, so waiters wake in
        # the same deterministic order the FIFO implementation used.
        pending = list(self._queue)
        self._queue.clear()
        if self._ahead or self._behind:
            heaped = self._ahead + self._behind
            self._ahead.clear()
            self._behind.clear()
            heaped.sort(key=lambda e: e[1])
            pending.extend(e[2] for e in heaped)
        for request in pending:
            request.error = error
            self.requests_failed += 1
            self._m_failed.inc()
            request.done.trigger()

    def _pick(self) -> DiskRequest:
        if self.policy is Policy.FCFS:
            return self._queue.popleft()
        # C-SCAN: nearest request at or ahead of the head (ascending);
        # when none remain ahead, sweep back to the lowest — i.e. the
        # heaps swap roles.  O(log n) per pick instead of an O(n) scan.
        if not self._ahead:
            self._ahead, self._behind = self._behind, self._ahead
        return heappop(self._ahead)[2]

    def _serve(self) -> Generator:
        while True:
            if not self.queue_depth:
                if not self._running:
                    return
                self._wake = self.simulator.event("disk-wake")
                yield WaitEvent(self._wake)
                self._wake = None
                continue
            # Stopped without drain: stop() already failed the backlog;
            # anything left here arrived in the same tick — fail it too.
            if not self._running and not self._drain:
                self._fail_pending(SchedulerStoppedError(
                    f"disk scheduler ({self.policy.value}) stopped"
                ))
                return
            request = self._pick()
            self.in_service = 1
            distance = abs(request.position - self.head_position)
            self.total_seek_distance += distance
            self._m_seeks.inc(distance)
            self.head_position = request.position
            tracer = self.simulator.obs.tracer
            span = tracer.begin(
                "disk.service", "storage", track=f"disk-{self.policy.value}",
                position=request.position, bits=request.bits,
            ) if tracer.enabled else None
            service = (distance * self.seek_per_cylinder_s
                       + request.bits / self.transfer_bps) * self.service_scale
            if service > 0:
                yield Delay(service)
            request.completed_at = self.simulator.now_s
            self.requests_served += 1
            self._m_wait_s.observe(request.wait_seconds)
            if request.missed_deadline:
                self.deadline_misses += 1
                self._m_misses.inc()
            if span is not None:
                span.end(seek_cylinders=distance)
            self.in_service = 0
            request.done.trigger()

    def mean_wait(self, requests: List[DiskRequest]) -> float:
        waits = [r.wait_seconds for r in requests if r.completed]
        if not waits:
            raise StorageError("no completed requests to average")
        return sum(waits) / len(waits)
