"""Shared special-purpose device management (paper §3.3).

"Certain devices are very expensive (e.g., digital video effects
processors) and it is more cost-effective if they can be shared by
different clients."  The database therefore owns pools of shared devices;
creating an activity that needs one either *allocates* (fail-fast — the
paper's "if insufficient resources were available this statement would
fail") or *acquires* (queued, for clients willing to wait; benchmark C6
measures those waits).
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.errors import DeviceBusyError, ResourceError
from repro.sim import Acquire, SimResource, Simulator


class SharedDevicePool:
    """A counted pool of one kind of shared device (mixers, DVEs...)."""

    def __init__(self, simulator: Simulator, kind: str, count: int) -> None:
        if count <= 0:
            raise ResourceError(f"device pool {kind!r} needs count >= 1, got {count}")
        self.kind = kind
        self.count = count
        self._resource = SimResource(simulator, count, name=kind)
        self.allocation_failures = 0

    @property
    def available(self) -> int:
        return self._resource.available

    @property
    def in_use(self) -> int:
        return self._resource.in_use

    @property
    def wait_count(self) -> int:
        return self._resource.wait_count

    def allocate(self) -> "DeviceLease":
        """Fail-fast allocation (the §4.3 statement-fails semantics)."""
        if self._resource.would_block():
            self.allocation_failures += 1
            raise DeviceBusyError(
                f"no {self.kind!r} device available "
                f"({self.in_use}/{self.count} in use)"
            )
        self._resource.in_use += 1
        self._resource.grant_count += 1
        return DeviceLease(self)

    def acquire(self) -> Generator:
        """DES subroutine: queue until a device frees up."""
        yield Acquire(self._resource)
        return DeviceLease(self, acquired=True)

    def _release(self) -> None:
        self._resource._release(1)


class DeviceLease:
    """Holds one unit of a pool until released.

    Usable as a context manager: ``with pool.allocate() as lease: ...``
    gives the unit back on exit even when the body raises (exit is
    idempotent; an explicit double ``release()`` still errors).
    """

    def __init__(self, pool: SharedDevicePool, acquired: bool = False) -> None:
        self.pool = pool
        self.acquired = acquired
        self.released = False

    def release(self) -> None:
        if self.released:
            raise ResourceError(f"{self.pool.kind!r} lease already released")
        self.released = True
        self.pool._release()

    def __enter__(self) -> "DeviceLease":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self.released:
            self.release()


class ResourceManager:
    """All shared device pools of one AV database system."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._pools: Dict[str, SharedDevicePool] = {}

    def add_pool(self, kind: str, count: int) -> SharedDevicePool:
        if kind in self._pools:
            raise ResourceError(f"device pool {kind!r} already exists")
        pool = SharedDevicePool(self.simulator, kind, count)
        self._pools[kind] = pool
        return pool

    def pool(self, kind: str) -> SharedDevicePool:
        try:
            return self._pools[kind]
        except KeyError:
            raise ResourceError(
                f"no device pool {kind!r} (pools: {sorted(self._pools)})"
            ) from None

    def allocate(self, kind: str) -> DeviceLease:
        return self.pool(kind).allocate()
