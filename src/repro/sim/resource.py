"""Capacity-based simulation resources.

``SimResource`` models anything with finite concurrent capacity inside the
simulation — a device that admits one stream, a channel with N reserved
slots, a buffer pool.  Processes interact with it through the kernel's
``Acquire``/``Release`` commands; waiters queue FIFO, which models the
paper's observation that "client requests can tie up resources ... for
significant periods of time" and lets the benchmarks measure those waits.

Each acquisition that had to queue publishes its virtual wait time to the
``sim.resource_wait_s`` histogram (see :mod:`repro.obs`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Process, Simulator


class SimResource:
    """A counted resource with FIFO queueing.

    Attributes
    ----------
    capacity:
        Total units available.
    in_use:
        Units currently held.
    """

    __slots__ = ("simulator", "name", "capacity", "in_use", "_waiters",
                 "wait_count", "grant_count", "_m_waits", "_m_wait_s", "_m_grants")

    def __init__(self, simulator: "Simulator", capacity: int, name: str = "resource") -> None:
        if capacity <= 0:
            raise SimulationError(f"resource capacity must be positive, got {capacity}")
        self.simulator = simulator
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        # (process, amount, queued_at, suspension epoch); the epoch lets
        # _release() skip waiters that were interrupted while queued
        # instead of granting capacity to a process that moved on.
        self._waiters: Deque[Tuple["Process", int, float, int]] = deque()
        self.wait_count = 0  # number of acquisitions that had to queue
        self.grant_count = 0
        metrics = simulator.obs.metrics
        self._m_waits = metrics.counter("sim.resource_waits")
        self._m_grants = metrics.counter("sim.resource_grants")
        self._m_wait_s = metrics.histogram("sim.resource_wait_s")

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def would_block(self, amount: int = 1) -> bool:
        return amount > self.available or bool(self._waiters)

    # -- kernel protocol ---------------------------------------------------
    def _acquire(self, proc: "Process", amount: int) -> None:
        if amount <= 0 or amount > self.capacity:
            raise SimulationError(
                f"cannot acquire {amount} units of {self.name!r} (capacity {self.capacity})"
            )
        if not self._waiters and amount <= self.available:
            self.in_use += amount
            self.grant_count += 1
            self._m_grants.inc()
            self._m_wait_s.observe(0.0)
            self.simulator._schedule_resume(proc, None)
        else:
            self.wait_count += 1
            self._m_waits.inc()
            self._waiters.append((proc, amount, self.simulator._clock.now, proc._epoch))

    def _release(self, amount: int) -> None:
        if amount <= 0 or amount > self.in_use:
            raise SimulationError(
                f"cannot release {amount} units of {self.name!r} ({self.in_use} in use)"
            )
        self.in_use -= amount
        while self._waiters:
            proc, want, queued_at, epoch = self._waiters[0]
            if proc.done or proc._abandoned or proc._epoch != epoch:
                # Interrupted (or wedged) while queued: the claim lapses.
                self._waiters.popleft()
                continue
            if want > self.available:
                break
            self._waiters.popleft()
            self.in_use += want
            self.grant_count += 1
            self._m_grants.inc()
            self._m_wait_s.observe(self.simulator._clock.now - queued_at)
            self.simulator._schedule_resume(proc, None, epoch=epoch)

    def __repr__(self) -> str:
        return f"SimResource({self.name!r}, {self.in_use}/{self.capacity} in use)"
