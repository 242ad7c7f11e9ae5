"""Stream elements: the unit of active AV data.

Each element carries its payload plus the metadata the stream machinery
needs: the object-time index it came from, the *ideal* world time at which
it should be presented (what the producing source's time mapping says,
before any jitter), its media type and its wire size in bits (what channel
transfer and traffic accounting charge for).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.avtime import WorldTime
from repro.errors import SimulationError
from repro.values.mediatype import MediaType


def _byte_size(obj: Any) -> int | None:
    """The measurable byte length of a payload, or None if opaque."""
    nbytes = getattr(obj, "nbytes", None)  # numpy arrays
    if nbytes is not None:
        return nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    return None


@dataclass(frozen=True, slots=True)
class StreamElement:
    """One data element in flight."""

    payload: Any
    index: int
    ideal_time: WorldTime
    media_type: MediaType
    size_bits: int

    def __post_init__(self) -> None:
        # Traffic accounting (channels, devices, obs counters) sums
        # size_bits; a negative size would silently corrupt every total.
        if self.size_bits < 0:
            raise SimulationError(
                f"stream element size_bits must be >= 0, got {self.size_bits} "
                f"(element index {self.index})"
            )

    def with_payload(self, payload: Any, media_type: MediaType | None = None,
                     size_bits: int | None = None) -> "StreamElement":
        """A transformed copy (same timing identity, new payload).

        ``size_bits`` inheritance rule: omitting ``size_bits`` is only
        valid when the new payload has the same type and (when
        measurable: ndarray / bytes) the same byte length as the old
        one — a transformer that changes the payload's shape must say
        what the new wire size is, otherwise channel and device traffic
        accounting would silently keep charging the old size.
        """
        if size_bits is None:
            old = self.payload
            if payload is not old:
                old_n = _byte_size(old)
                if (type(payload) is not type(old)
                        or (old_n is not None and _byte_size(payload) != old_n)):
                    raise SimulationError(
                        f"with_payload changed the payload "
                        f"({type(old).__name__}/{old_n} -> "
                        f"{type(payload).__name__}/{_byte_size(payload)} bytes) "
                        f"without an explicit size_bits; traffic accounting "
                        f"cannot inherit {self.size_bits} bits (element index "
                        f"{self.index})"
                    )
            size_bits = self.size_bits
        elif size_bits < 0:
            raise SimulationError(
                f"stream element size_bits must be >= 0, got {size_bits} "
                f"(element index {self.index})"
            )
        # Five slot stores: frozen-dataclass __init__ + __post_init__ via
        # replace() costs ~3x as much, and size_bits is validated above.
        # StreamElement has no subclass, so the copy is one.
        new = object.__new__(StreamElement)
        _set = object.__setattr__
        _set(new, "payload", payload)
        _set(new, "index", self.index)
        _set(new, "ideal_time", self.ideal_time)
        _set(new, "media_type", media_type or self.media_type)
        _set(new, "size_bits", size_bits)
        return new


class EndOfStream:
    """Sentinel closing a stream; compares equal to itself only."""

    _instance: "EndOfStream | None" = None

    def __new__(cls) -> "EndOfStream":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "END_OF_STREAM"


END_OF_STREAM = EndOfStream()
