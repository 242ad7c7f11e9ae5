"""The abstract ``MediaValue`` framework class (paper §4.1).

The paper's partial specification::

    class MediaValue {
        WorldTime   duration
        WorldTime   start
        ObjectTime  WorldToObject(WorldTime)
        WorldTime   ObjectToWorld(ObjectTime)
        Scale(float)
        Translate(WorldTime)
        MediaValue  Element(WorldTime)
    }

"The units of world time are specified by the MediaValue class, while the
units of object time are a subclass responsibility."  Here the mapping
between the two axes is delegated to :class:`~repro.avtime.TimeMapping`;
subclasses supply the element count, the native element rate and the
actual element payloads.

``Scale`` and ``Translate`` are *non-mutating* — they return a re-mapped
value sharing the underlying element storage, which implements the paper's
"data sharing through aggregation" storage-minimization requirement (§2).
"""

from __future__ import annotations

import abc
import copy
from typing import Any

from repro.avtime import Interval, ObjectTime, TimeMapping, WorldTime
from repro.errors import TemporalError
from repro.values.mediatype import MediaType


class MediaValue(abc.ABC):
    """Abstract base of all AV values.

    Concrete subclasses must provide element storage and may not be
    instantiated through this class.  The temporal interface is fully
    implemented here in terms of a :class:`TimeMapping`.
    """

    def __init__(self, mapping: TimeMapping) -> None:
        self._mapping = mapping

    # -- subclass responsibilities --------------------------------------
    @property
    @abc.abstractmethod
    def media_type(self) -> MediaType:
        """The media data type governing this value's elements."""

    @property
    @abc.abstractmethod
    def element_count(self) -> int:
        """Number of data elements in the (finite) sequence."""

    @abc.abstractmethod
    def element_payload(self, index: int) -> Any:
        """The raw payload of element ``index`` (frame array, sample...)."""

    @abc.abstractmethod
    def element_size_bits(self, index: int) -> int:
        """Stored size of element ``index`` in bits."""

    def _with_mapping(self, mapping: TimeMapping) -> "MediaValue":
        """A copy of this value presented under ``mapping`` (shared storage)."""
        clone = copy.copy(self)
        clone._mapping = mapping
        return clone

    # -- the paper's temporal interface -----------------------------------
    @property
    def mapping(self) -> TimeMapping:
        return self._mapping

    @property
    def start(self) -> WorldTime:
        """World time at which the value's first element is presented."""
        return self._mapping.start

    @property
    def duration(self) -> WorldTime:
        """World-time presentation span of the whole value."""
        return self._mapping.duration_of(self.element_count)

    @property
    def interval(self) -> Interval:
        """The value's presentation interval ``[start, start+duration)``."""
        return Interval(self.start, self.duration)

    def world_to_object(self, when: WorldTime) -> ObjectTime:
        """Element index presented at world time ``when``.

        Raises :class:`TemporalError` when ``when`` falls outside the
        value's presentation interval.
        """
        index = self._mapping.world_to_object(when)
        if index.index < 0 or index.index >= self.element_count:
            raise TemporalError(
                f"world time {when!r} outside value interval {self.interval!r}"
            )
        return index

    def object_to_world(self, index: ObjectTime) -> WorldTime:
        """World time at which element ``index`` begins presentation."""
        self._check_index(index.index)
        return self._mapping.object_to_world(index)

    def scale(self, factor: float) -> "MediaValue":
        """Stretch presentation by ``factor`` (``> 1`` plays slower)."""
        return self._with_mapping(self._mapping.scaled(factor))

    def translate(self, delta: WorldTime) -> "MediaValue":
        """Shift the presentation start by ``delta``."""
        return self._with_mapping(self._mapping.translated(delta))

    def element(self, when: WorldTime) -> Any:
        """The paper's ``Element(WorldTime)``: payload presented at ``when``."""
        return self.element_payload(self.world_to_object(when).index)

    # -- data rate (definition 2) ---------------------------------------
    @property
    def rate(self) -> float:
        """Native element rate (elements per second of media time)."""
        return self._mapping.rate

    def data_size_bits(self) -> int:
        """Total stored size of all elements, in bits.

        This per-element loop is the fallback for third-party subclasses
        and the reference the tests compare against; every concrete value
        in this package answers in constant time (a closed form, or a
        total taken once when the storage was built).
        """
        return sum(self.element_size_bits(i) for i in range(self.element_count))

    def data_rate_bps(self) -> float:
        """Average data rate in bits per second of presentation time.

        "The type of v (and v itself) determine r, the data rate of v":
        for constant-size encodings this is exactly the type's rate; for
        variable-size encodings (MPEG-like) it is the value's own average.
        """
        seconds = self.duration.seconds
        if seconds == 0:
            return 0.0
        return self.data_size_bits() / seconds

    # -- helpers -----------------------------------------------------------
    def _check_index(self, index: int) -> None:
        if index < 0 or index >= self.element_count:
            raise TemporalError(
                f"element index {index} out of range [0, {self.element_count})"
            )

    def __len__(self) -> int:
        return self.element_count
