"""Extent allocation on a storage device.

AV values are large and sequential; devices hand out contiguous byte
extents via first-fit with coalescing free.  The allocator underlies the
storage-minimization requirement ("techniques to minimize storage space on
the physical level", §2) and makes :class:`OutOfSpaceError` a real,
testable failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List

from repro.errors import OutOfSpaceError, StorageError

_extent_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Extent:
    """A contiguous byte range on one device."""

    device_name: str
    offset: int
    length: int
    id: int

    @property
    def end(self) -> int:
        return self.offset + self.length


class ExtentAllocator:
    """First-fit allocator with free-range coalescing."""

    def __init__(self, device_name: str, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise StorageError(f"device capacity must be positive, got {capacity_bytes}")
        self.device_name = device_name
        self.capacity_bytes = capacity_bytes
        # Sorted list of (offset, length) free ranges.
        self._free: List[tuple[int, int]] = [(0, capacity_bytes)]
        self._allocated: dict[int, Extent] = {}

    @property
    def free_bytes(self) -> int:
        return sum(length for _, length in self._free)

    @property
    def used_bytes(self) -> int:
        return self.capacity_bytes - self.free_bytes

    @property
    def largest_free_extent(self) -> int:
        return max((length for _, length in self._free), default=0)

    def allocate(self, nbytes: int) -> Extent:
        """First-fit allocation of ``nbytes`` contiguous bytes."""
        if nbytes <= 0:
            raise StorageError(f"allocation size must be positive, got {nbytes}")
        for i, (offset, length) in enumerate(self._free):
            if length >= nbytes:
                extent = Extent(self.device_name, offset, nbytes, next(_extent_ids))
                remaining = length - nbytes
                if remaining:
                    self._free[i] = (offset + nbytes, remaining)
                else:
                    del self._free[i]
                self._allocated[extent.id] = extent
                return extent
        raise OutOfSpaceError(
            f"device {self.device_name!r}: no free extent of {nbytes} bytes "
            f"(largest free: {self.largest_free_extent}, total free: {self.free_bytes})"
        )

    def free(self, extent: Extent) -> None:
        """Return an extent to the free list, coalescing neighbours."""
        if extent.id not in self._allocated:
            raise StorageError(
                f"extent {extent.id} is not allocated on {self.device_name!r}"
            )
        del self._allocated[extent.id]
        ranges = self._free + [(extent.offset, extent.length)]
        ranges.sort()
        merged: List[tuple[int, int]] = []
        for offset, length in ranges:
            if merged and merged[-1][0] + merged[-1][1] == offset:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((offset, length))
        self._free = merged
