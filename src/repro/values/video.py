"""Video values (paper §4.1).

The paper's specialization::

    class VideoValue subclass-of MediaValue {
        int width
        int height
        int depth
        int numFrame
        ImageValue frame[numFrame]
    }

"Each of these classes would in turn have a number of specializations
reflecting different encoding and storage strategies ... Possible
specializations of VideoValue include JPEG-VideoValue, MPEG-VideoValue,
DVI-VideoValue, CCIR-VideoValue and LV-VideoValue (for values stored on
LaserVision videodiscs) ... an application working with existing AV values
can use the generic VideoValue class and thus be screened from underlying
differences in representation."

Frames are numpy arrays: shape ``(height, width)`` for 8-bit grayscale or
``(height, width, 3)`` for 24-bit colour, dtype ``uint8``.
"""

from __future__ import annotations

import abc
from typing import Any, List, Protocol, Sequence

import numpy as np

from repro.avtime import TimeMapping, WorldTime
from repro.errors import DataModelError, MediaTypeError
from repro.values.base import MediaValue
from repro.values.mediatype import MediaType, standard_type


def frame_shape(width: int, height: int, depth: int) -> tuple[int, ...]:
    """Array shape of a single frame for the given pixel geometry."""
    if depth == 8:
        return (height, width)
    if depth == 24:
        return (height, width, 3)
    raise DataModelError(f"unsupported pixel depth {depth} (use 8 or 24)")


def validate_frame(frame: np.ndarray, width: int, height: int, depth: int) -> np.ndarray:
    """Check dtype and geometry of one frame array."""
    expected = frame_shape(width, height, depth)
    if frame.dtype != np.uint8:
        raise DataModelError(f"frames must be uint8, got {frame.dtype}")
    if frame.shape != expected:
        raise DataModelError(f"frame shape {frame.shape} != expected {expected}")
    return frame


class VideoFrameCodec(Protocol):
    """Protocol encoded video values use to decode their chunks.

    Implemented by the codecs in :mod:`repro.codecs`; kept as a protocol so
    the value layer does not import the codec layer.
    """

    name: str

    def decode_frame_at(
        self, chunks: Sequence[bytes], index: int, width: int, height: int, depth: int
    ) -> np.ndarray: ...


class VideoValue(MediaValue, abc.ABC):
    """Generic video: a sequence of raster frames at a frame rate.

    Applications program against this class; the representation-specific
    subclasses below differ only in storage and ``media_type``.
    """

    def __init__(self, width: int, height: int, depth: int, mapping: TimeMapping) -> None:
        if width <= 0 or height <= 0:
            raise DataModelError(f"frame geometry must be positive, got {width}x{height}")
        frame_shape(width, height, depth)  # validates depth
        super().__init__(mapping)
        self.width = width
        self.height = height
        self.depth = depth

    @property
    def num_frames(self) -> int:
        """The paper's ``numFrame`` attribute."""
        return self.element_count

    @abc.abstractmethod
    def frame(self, index: int) -> np.ndarray:
        """Decoded frame ``index`` as a numpy array."""

    def element_payload(self, index: int) -> Any:
        return self.frame(index)

    def frame_at(self, when: WorldTime) -> np.ndarray:
        """Frame presented at world time ``when``."""
        return self.frame(self.world_to_object(when).index)

    def element_value(self, when: WorldTime) -> "MediaValue":
        """The paper's ``MediaValue Element(WorldTime)`` signature: the
        element at ``when`` *as a media value* (a still image whose
        display span is one frame period)."""
        from repro.values.image import ImageValue
        frame = self.frame_at(when)
        return ImageValue(frame, display_seconds=self.mapping.element_period().seconds)

    @property
    def geometry(self) -> tuple[int, int, int]:
        return (self.width, self.height, self.depth)

    def raw_frame_bits(self) -> int:
        """Uncompressed size of one frame in bits."""
        return self.width * self.height * self.depth


class RawVideoValue(VideoValue):
    """Uncompressed video held as one contiguous frame array."""

    _TYPE_NAME = "video/raw"

    def __init__(self, frames: np.ndarray, rate: float = 30.0,
                 mapping: TimeMapping | None = None) -> None:
        frames = np.asarray(frames, dtype=np.uint8)
        if frames.ndim == 3:
            depth = 8
            n, height, width = frames.shape
        elif frames.ndim == 4 and frames.shape[3] == 3:
            depth = 24
            n, height, width, _ = frames.shape
        else:
            raise DataModelError(
                f"frames must have shape (n,h,w) or (n,h,w,3), got {frames.shape}"
            )
        if n == 0:
            raise DataModelError("a video value must contain at least one frame")
        super().__init__(width, height, depth, mapping or TimeMapping(rate))
        self._frames = frames

    @property
    def media_type(self) -> MediaType:
        return standard_type(self._TYPE_NAME)

    @property
    def element_count(self) -> int:
        return int(self._frames.shape[0])

    def frame(self, index: int) -> np.ndarray:
        self._check_index(index)
        return self._frames[index]

    def element_size_bits(self, index: int) -> int:
        self._check_index(index)
        return self.raw_frame_bits()

    def data_size_bits(self) -> int:
        return self.raw_frame_bits() * self.element_count

    @property
    def frames_array(self) -> np.ndarray:
        """The full (n, h, w[, 3]) frame array (shared, do not mutate)."""
        return self._frames


class CCIRVideoValue(RawVideoValue):
    """CCIR 601 studio digital video: uncompressed, fixed type rate."""

    _TYPE_NAME = "video/ccir601"


class LVVideoValue(RawVideoValue):
    """Video stored in analog form on a LaserVision videodisc.

    The frame array stands for the analog master's latent content; reading
    the frames digitally models digitize-on-read.  Analog values cannot be
    carried on digital ports (see :meth:`MediaType.accepts`) — they must
    pass through a digitizer activity first.
    """

    _TYPE_NAME = "video/lv-analog"


class EncodedVideoValue(VideoValue):
    """Compressed video: one encoded chunk per frame, decoded on access."""

    _TYPE_NAME = "video/rle"  # overridden by subclasses

    def __init__(self, chunks: List[bytes], codec: VideoFrameCodec,
                 width: int, height: int, depth: int, rate: float = 30.0,
                 mapping: TimeMapping | None = None) -> None:
        if not chunks:
            raise DataModelError("a video value must contain at least one frame")
        super().__init__(width, height, depth, mapping or TimeMapping(rate))
        self._chunks = list(chunks)
        self._stored_bits = sum(len(c) for c in self._chunks) * 8
        self._codec = codec
        expected = self._expected_codec_name()
        if expected is not None and codec.name != expected:
            raise MediaTypeError(
                f"{type(self).__name__} requires the {expected!r} codec, got {codec.name!r}"
            )

    @classmethod
    def _expected_codec_name(cls) -> str | None:
        """Codec name this class requires, or None for the generic class."""
        return None

    @property
    def media_type(self) -> MediaType:
        return standard_type(self._TYPE_NAME)

    @property
    def codec(self) -> VideoFrameCodec:
        return self._codec

    @property
    def chunks(self) -> List[bytes]:
        return self._chunks

    @property
    def element_count(self) -> int:
        return len(self._chunks)

    def frame(self, index: int) -> np.ndarray:
        self._check_index(index)
        return self._codec.decode_frame_at(
            self._chunks, index, self.width, self.height, self.depth
        )

    def element_size_bits(self, index: int) -> int:
        self._check_index(index)
        return len(self._chunks[index]) * 8

    def data_size_bits(self) -> int:
        return self._stored_bits

    def compression_ratio(self) -> float:
        """Raw bits over stored bits for the whole value."""
        stored = self.data_size_bits()
        if stored == 0:
            return float("inf")
        return self.raw_frame_bits() * self.element_count / stored


class JPEGVideoValue(EncodedVideoValue):
    """Intraframe block-DCT compressed video (JPEG-like)."""

    _TYPE_NAME = "video/jpeg"

    @classmethod
    def _expected_codec_name(cls) -> str | None:
        return "jpeg"


class MPEGVideoValue(EncodedVideoValue):
    """Interframe keyframe+delta compressed video (MPEG-like)."""

    _TYPE_NAME = "video/mpeg"

    @classmethod
    def _expected_codec_name(cls) -> str | None:
        return "mpeg"


class DVIVideoValue(EncodedVideoValue):
    """Block vector-quantization compressed video (DVI-like)."""

    _TYPE_NAME = "video/dvi"

    @classmethod
    def _expected_codec_name(cls) -> str | None:
        return "dvi"
