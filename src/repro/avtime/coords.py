"""World-time and object-time coordinate values.

``WorldTime`` is a thin, totally ordered wrapper around seconds (stored as a
``float``).  ``ObjectTime`` is an integer index into a media value's element
sequence (frame number, sample number, text-item number).  Keeping them as
distinct types catches the classic unit bug — passing a frame number where
seconds are expected — at the API boundary rather than deep inside a stream
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from typing import Union

from repro.errors import TemporalError

Number = Union[int, float]


@total_ordering
@dataclass(frozen=True, slots=True)
class WorldTime:
    """A point (or span, when used as a duration) on the world-time axis.

    Units are seconds, as prescribed by the framework's ``MediaValue``
    class.  Instances are immutable and support arithmetic that stays in
    the world-time domain: ``WorldTime + WorldTime``, ``WorldTime -
    WorldTime``, scaling by a plain number, and division by either a number
    (yielding ``WorldTime``) or another ``WorldTime`` (yielding a unitless
    ratio).
    """

    seconds: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.seconds):
            raise TemporalError(f"world time must be finite, got {self.seconds!r}")

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls) -> "WorldTime":
        return cls(0.0)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "WorldTime") -> "WorldTime":
        if not isinstance(other, WorldTime):
            return NotImplemented
        return WorldTime(self.seconds + other.seconds)

    def __sub__(self, other: "WorldTime") -> "WorldTime":
        if not isinstance(other, WorldTime):
            return NotImplemented
        return WorldTime(self.seconds - other.seconds)

    def __mul__(self, factor: Number) -> "WorldTime":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return WorldTime(self.seconds * factor)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["WorldTime", Number]):
        if isinstance(other, WorldTime):
            if other.seconds == 0:
                raise TemporalError("division by zero world time")
            return self.seconds / other.seconds
        if isinstance(other, (int, float)):
            if other == 0:
                raise TemporalError("division of world time by zero")
            return WorldTime(self.seconds / other)
        return NotImplemented

    def __neg__(self) -> "WorldTime":
        return WorldTime(-self.seconds)

    def __abs__(self) -> "WorldTime":
        return WorldTime(abs(self.seconds))

    # -- ordering ----------------------------------------------------------
    def __lt__(self, other: "WorldTime") -> bool:
        if not isinstance(other, WorldTime):
            return NotImplemented
        return self.seconds < other.seconds

    # -- conversions ---------------------------------------------------
    def is_negative(self) -> bool:
        return self.seconds < 0

    def __repr__(self) -> str:
        return f"WorldTime({self.seconds:g}s)"


@total_ordering
@dataclass(frozen=True, slots=True)
class ObjectTime:
    """A point on a media value's object-time axis.

    Object time is an integer element index; the meaning of one unit is a
    media-type responsibility (one video frame, one audio sample, one text
    item).  Negative indices are permitted as *relative* offsets but most
    APIs validate against a value's element count.
    """

    index: int

    def __post_init__(self) -> None:
        if not isinstance(self.index, int):
            raise TemporalError(f"object time must be an integer index, got {self.index!r}")

    def __add__(self, other: "ObjectTime") -> "ObjectTime":
        if not isinstance(other, ObjectTime):
            return NotImplemented
        return ObjectTime(self.index + other.index)

    def __sub__(self, other: "ObjectTime") -> "ObjectTime":
        if not isinstance(other, ObjectTime):
            return NotImplemented
        return ObjectTime(self.index - other.index)

    def __lt__(self, other: "ObjectTime") -> bool:
        if not isinstance(other, ObjectTime):
            return NotImplemented
        return self.index < other.index

    def __int__(self) -> int:
        return self.index
