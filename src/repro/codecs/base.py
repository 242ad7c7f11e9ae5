"""Video codec base class.

A video codec transforms between decoded frame arrays and per-frame
encoded chunks.  The chunk list is the storage format of
:class:`~repro.values.EncodedVideoValue`; ``decode_frame_at`` receives the
whole chunk list so interframe codecs can resolve dependencies (walk back
to the nearest keyframe).
"""

from __future__ import annotations

import abc
from typing import List, Sequence

import numpy as np

from repro.errors import CodecError
from repro.values.video import EncodedVideoValue, VideoValue, frame_shape


class VideoCodec(abc.ABC):
    """Transforms frame arrays <-> encoded chunk sequences."""

    #: registry key; also the codec-compatibility tag on encoded values.
    name: str = "abstract"
    #: class of encoded value this codec produces.
    value_class: type[EncodedVideoValue] = EncodedVideoValue

    @abc.abstractmethod
    def encode_frames(self, frames: Sequence[np.ndarray]) -> List[bytes]:
        """Encode a frame sequence into one chunk per frame."""

    @abc.abstractmethod
    def decode_frame_at(self, chunks: Sequence[bytes], index: int,
                        width: int, height: int, depth: int) -> np.ndarray:
        """Decode frame ``index`` from the chunk sequence."""

    def encode_value(self, value: VideoValue) -> EncodedVideoValue:
        """Encode a whole video value, preserving its time mapping."""
        frames = [value.frame(i) for i in range(value.num_frames)]
        chunks = self.encode_frames(frames)
        return self.value_class(
            chunks, self, value.width, value.height, value.depth,
            mapping=value.mapping,
        )

    def decode_value(self, value: EncodedVideoValue) -> "np.ndarray":
        """Decode every frame into a single (n, h, w[, 3]) array."""
        frames = [
            self.decode_frame_at(value.chunks, i, value.width, value.height, value.depth)
            for i in range(value.num_frames)
        ]
        return np.stack(frames)

    # -- streaming interface (used by encoder/decoder activities) ---------
    def stream_encoder(self) -> "StreamEncoder":
        """Stateful per-frame encoder for live streams.

        The default treats every frame independently (correct for
        intraframe codecs); interframe codecs override with a stateful
        version.
        """
        return _StatelessStreamEncoder(self)

    def stream_decoder(self, width: int, height: int, depth: int) -> "StreamDecoder":
        """Stateful per-chunk decoder for live streams."""
        return _StatelessStreamDecoder(self, width, height, depth)

    # -- helpers for subclasses -----------------------------------------
    @staticmethod
    def _check_geometry(frame: np.ndarray, width: int, height: int, depth: int) -> None:
        expected = frame_shape(width, height, depth)
        if frame.shape != expected:
            raise CodecError(f"decoded frame shape {frame.shape} != expected {expected}")


class StreamEncoder(abc.ABC):
    """Per-frame encoder with stream state."""

    @abc.abstractmethod
    def encode_next(self, frame: np.ndarray) -> bytes: ...


class StreamDecoder(abc.ABC):
    """Per-chunk decoder with stream state."""

    @abc.abstractmethod
    def decode_next(self, chunk: bytes) -> np.ndarray: ...


class _StatelessStreamEncoder(StreamEncoder):
    def __init__(self, codec: VideoCodec) -> None:
        self._codec = codec

    def encode_next(self, frame: np.ndarray) -> bytes:
        return self._codec.encode_frames([frame])[0]


class _StatelessStreamDecoder(StreamDecoder):
    def __init__(self, codec: VideoCodec, width: int, height: int, depth: int) -> None:
        self._codec = codec
        self._geometry = (width, height, depth)

    def decode_next(self, chunk: bytes) -> np.ndarray:
        return self._codec.decode_frame_at([chunk], 0, *self._geometry)
