"""The video codec base class and the stream protocol of both media.

A codec carries ``name`` (the registry key and the compatibility tag on
encoded values) and ``value_class`` (the encoded value it produces).  The
encoder and decoder activities run its stream protocol, one element at a
time: ``stream_encoder().encode_next(element)`` gives the chunk and
``stream_decoder(*geometry).decode_next(chunk)`` the element, where a
video codec's geometry is ``(width, height, depth)`` and an audio
codec's its channel count.  ``decode_frame_at`` receives a video value's
whole chunk list so interframe codecs can walk back to the keyframe.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Sequence

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

    # -- the stream protocol ----------------------------------------------
    # The defaults code every frame alone (correct for intraframe
    # codecs); interframe codecs override both with stateful versions.
    def stream_encoder(self) -> "_Stateless":
        return _Stateless(lambda frame: self.encode_frames([frame])[0])

    def stream_decoder(self, width: int, height: int, depth: int) -> "_Stateless":
        return _Stateless(lambda chunk: self.decode_frame_at(
            [chunk], 0, width, height, depth))

    # -- helpers for subclasses -----------------------------------------
    @staticmethod
    def _check_geometry(frame: np.ndarray, width: int, height: int, depth: int) -> None:
        expected = frame_shape(width, height, depth)
        if frame.shape != expected:
            raise CodecError(f"decoded frame shape {frame.shape} != expected {expected}")


class _Stateless:
    """The stream coder of a codec that codes each element alone: its
    ``encode_next`` (or ``decode_next``) is ``code``, one element a call."""

    def __init__(self, code: Callable) -> None:
        self.encode_next = self.decode_next = code
