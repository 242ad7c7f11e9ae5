"""Media data types (paper §3.1, definition 2).

"Each AV value has a media data type governing the encoding and
interpretation of its elements.  The type of v (and v itself) determine r,
the data rate of v."

A :class:`MediaType` names a (kind, encoding) pair and knows whether the
encoding is compressed — the distinction Table 1 draws between "raw" and
"compressed" port data types.  The :class:`MediaTypeRegistry` holds the
standard types the paper names (CD audio, CCIR 601 video, JPEG/MPEG/DVI
compressed video, LaserVision analog video) plus the raw working types.

Port-type compatibility (flow composition, §4.2) is *exact-type* matching
with one relaxation: a port declared with an abstract kind-level type
(e.g. "any video") accepts any type of that kind.  This mirrors the
paper's abstract activities whose port types "are not fully specified".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, Optional

from repro.errors import MediaTypeError


class MediaKind(Enum):
    """Top-level medium classification."""

    VIDEO = "video"
    AUDIO = "audio"
    TEXT = "text"
    IMAGE = "image"
    MIDI = "midi"
    GEOMETRY = "geometry"  # camera poses / scene streams (Scenario II)


@dataclass(frozen=True, slots=True)
class MediaType:
    """A named media data type.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"video/jpeg"``.
    kind:
        The medium (:class:`MediaKind`).
    encoding:
        Encoding label, e.g. ``"raw"``, ``"jpeg"``, ``"pcm"``.  ``"*"``
        marks an abstract kind-level type that matches any encoding.
    compressed:
        Whether elements are compressed (Table 1's raw/compressed split).
    analog:
        Whether the representation is analog (LaserVision videodiscs);
        analog values must be digitized by a digitizer activity before
        digital processing.
    native_rate:
        Default element rate in elements/second (frames/s or samples/s),
        ``None`` where the type spans a range of rates (MPEG, DVI).
    """

    name: str
    kind: MediaKind
    encoding: str
    compressed: bool = False
    analog: bool = False
    native_rate: Optional[float] = None

    @property
    def is_abstract(self) -> bool:
        """Kind-level wildcard types (``encoding == "*"``)."""
        return self.encoding == "*"

    def accepts(self, other: "MediaType") -> bool:
        """Port-compatibility: can a port of this type carry ``other``?

        Exact match, or this type is the kind-level wildcard for
        ``other``'s kind.  Analog and digital types never interchange.
        """
        if self == other:
            return True
        if self.is_abstract and self.kind is other.kind and not other.analog:
            return True
        return False


class MediaTypeRegistry:
    """Mutable registry of media types, pre-seeded with the standard set."""

    def __init__(self) -> None:
        self._types: Dict[str, MediaType] = {}

    def register(self, media_type: MediaType) -> MediaType:
        if media_type.name in self._types:
            raise MediaTypeError(f"media type {media_type.name!r} already registered")
        self._types[media_type.name] = media_type
        return media_type

    def get(self, name: str) -> MediaType:
        try:
            return self._types[name]
        except KeyError:
            raise MediaTypeError(f"unknown media type {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[MediaType]:
        return iter(self._types.values())

    def __len__(self) -> int:
        return len(self._types)


def _seed(registry: MediaTypeRegistry) -> None:
    V, A = MediaKind.VIDEO, MediaKind.AUDIO
    registry.register(MediaType("video/*", V, "*"))
    registry.register(MediaType("video/raw", V, "raw", native_rate=30.0))
    # CCIR 601: uncompressed studio digital video, 13.5 MHz luma sampling.
    registry.register(MediaType("video/ccir601", V, "ccir601", native_rate=30.0))
    registry.register(MediaType("video/rle", V, "rle", compressed=True))
    registry.register(MediaType("video/jpeg", V, "jpeg", compressed=True))
    registry.register(MediaType("video/mpeg", V, "mpeg", compressed=True))
    registry.register(MediaType("video/dvi", V, "dvi", compressed=True))
    # LaserVision: analog video on videodisc, digitized on read.
    registry.register(MediaType("video/lv-analog", V, "lv", analog=True, native_rate=30.0))
    registry.register(MediaType("audio/*", A, "*"))
    registry.register(MediaType("audio/pcm", A, "pcm"))
    # CD encoded audio: stereo 16-bit PCM at 44.1 kHz (paper §3.1).
    registry.register(MediaType("audio/cd", A, "cd-pcm", native_rate=44100.0))
    registry.register(MediaType("audio/mulaw", A, "mulaw", compressed=True, native_rate=8000.0))
    registry.register(MediaType("audio/adpcm", A, "adpcm", compressed=True))
    registry.register(MediaType("text/*", MediaKind.TEXT, "*"))
    registry.register(MediaType("text/stream", MediaKind.TEXT, "stream"))
    registry.register(MediaType("image/raster", MediaKind.IMAGE, "raster"))
    registry.register(MediaType("midi/events", MediaKind.MIDI, "events"))
    registry.register(MediaType("geometry/pose", MediaKind.GEOMETRY, "pose"))


STANDARD_TYPES = MediaTypeRegistry()
_seed(STANDARD_TYPES)


def standard_type(name: str) -> MediaType:
    """Look up one of the pre-registered standard media types."""
    return STANDARD_TYPES.get(name)
