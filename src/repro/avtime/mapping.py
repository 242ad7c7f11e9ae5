"""Affine world-time/object-time mappings.

A ``MediaValue`` (paper section 4.1) owns a mapping between world time and
its object-time axis and exposes ``WorldToObject``, ``ObjectToWorld``,
``Scale`` and ``Translate``.  ``TimeMapping`` implements that contract for
the common case of constant-rate media: object index ``i`` occupies world
time ``start + i / (rate * speed)``.

``Scale(f)`` stretches presentation (``f > 1`` plays slower: each element
occupies more world time), matching the paper's notion of scaling a
temporal sequence.  ``Translate(t)`` shifts the sequence's world-time
origin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.avtime.coords import ObjectTime, WorldTime
from repro.errors import TemporalError


@dataclass(frozen=True, slots=True)
class TimeMapping:
    """Affine mapping between world time and element indices.

    Attributes
    ----------
    rate:
        Native elements per second of the medium (frame rate, sample rate).
    start:
        World time at which object time 0 is presented.
    scale:
        Temporal scale factor; element ``i`` is presented at
        ``start + scale * i / rate``.  ``scale == 2`` is half-speed
        (slow motion), ``scale == 0.5`` double speed.
    """

    rate: float
    start: WorldTime = WorldTime.zero()
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise TemporalError(f"element rate must be positive, got {self.rate}")
        if self.scale <= 0:
            raise TemporalError(f"temporal scale must be positive, got {self.scale}")

    # -- the paper's four methods -------------------------------------
    def world_to_object(self, when: WorldTime) -> ObjectTime:
        """Element index presented at world time ``when`` (floor)."""
        offset = (when - self.start).seconds
        return ObjectTime(int(offset * self.rate / self.scale // 1))

    def object_to_world(self, index: ObjectTime) -> WorldTime:
        """World time at which element ``index`` begins presentation."""
        return self.start + WorldTime(self.scale * index.index / self.rate)

    def scaled(self, factor: float) -> "TimeMapping":
        """Return a mapping with presentation stretched by ``factor``."""
        if factor <= 0:
            raise TemporalError(f"scale factor must be positive, got {factor}")
        return TimeMapping(self.rate, self.start, self.scale * factor)

    def translated(self, delta: WorldTime) -> "TimeMapping":
        """Return a mapping shifted later by ``delta``."""
        return TimeMapping(self.rate, self.start + delta, self.scale)

    # -- derived quantities --------------------------------------------
    def duration_of(self, element_count: int) -> WorldTime:
        """World-time presentation span of ``element_count`` elements."""
        if element_count < 0:
            raise TemporalError(f"element count must be >= 0, got {element_count}")
        return WorldTime(self.scale * element_count / self.rate)

    def element_period(self) -> WorldTime:
        """World time occupied by one element."""
        return WorldTime(self.scale / self.rate)
