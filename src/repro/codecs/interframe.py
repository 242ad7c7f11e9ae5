"""Interframe keyframe/delta codec (MPEG-like).

Groups of pictures: every ``gop``-th frame is a keyframe encoded
intraframe with the DCT codec; the frames between are *delta* frames
coding the quantized difference against the previous *reconstructed*
frame (reconstructed, not original, so encoder and decoder stay in
lockstep and quantization error does not drift).

On temporally coherent video this reaches noticeably higher compression
than the intraframe codec; on uncorrelated frames it degrades toward
intra performance — the shape benchmark C2 checks.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Sequence

import numpy as np

from repro.codecs.base import VideoCodec
from repro.codecs.dct import JPEGCodec, _reconstruct
from repro.errors import CodecError
from repro.values.video import MPEGVideoValue


class MPEGCodec(VideoCodec):
    """Keyframe + quantized-delta interframe coding."""

    name = "mpeg"
    value_class = MPEGVideoValue

    _HEADER = struct.Struct("<4sc")
    _MAGIC = b"MPG0"
    _KEY = b"K"
    _DELTA = b"D"

    def __init__(self, quality: int = 75, gop: int = 10, delta_quant: int = 4) -> None:
        if gop < 1:
            raise CodecError(f"GOP length must be >= 1, got {gop}")
        if delta_quant < 1:
            raise CodecError(f"delta quantizer must be >= 1, got {delta_quant}")
        self.quality = quality
        self.gop = gop
        self.delta_quant = delta_quant
        self._intra = JPEGCodec(quality)

    # -- encoding ----------------------------------------------------------
    def encode_frames(self, frames: Sequence[np.ndarray]) -> List[bytes]:
        """Encode a sequence as keyframes + reconstructed-reference deltas."""
        encoder = self.stream_encoder()
        return [encoder.encode_next(frame) for frame in frames]

    # -- decoding ----------------------------------------------------------
    def _chunk_kind(self, chunk: bytes) -> bytes:
        if len(chunk) < self._HEADER.size:
            raise CodecError(f"MPEG chunk of {len(chunk)} bytes is shorter "
                             f"than its {self._HEADER.size}-byte header")
        magic, kind = self._HEADER.unpack_from(chunk)
        if magic != self._MAGIC:
            raise CodecError(f"not an MPEG-codec chunk (magic {magic!r})")
        if kind != self._KEY and kind != self._DELTA:
            raise CodecError(f"MPEG chunk of unknown kind {kind!r}")
        return kind

    def _decode_key(self, chunk: bytes, width: int, height: int, depth: int) -> np.ndarray:
        return self._intra.decode_frame(chunk[self._HEADER.size:], width, height, depth)

    def _apply_delta(self, reference: np.ndarray, chunk: bytes,
                     width: int, height: int, depth: int) -> np.ndarray:
        try:
            raw = zlib.decompress(chunk[self._HEADER.size:])
        except zlib.error as error:
            raise CodecError(f"corrupt MPEG delta payload: {error}") from None
        if len(raw) != reference.size:
            raise CodecError(f"MPEG delta of {len(raw)} bytes for a frame of "
                             f"{reference.size}")
        quantized = np.frombuffer(raw, dtype=np.int8).reshape(reference.shape)
        frame = quantized.astype(np.int16)
        frame *= self.delta_quant
        frame += reference
        return frame.clip(0, 255, out=frame).astype(np.uint8)

    def decode_frame_at(self, chunks: Sequence[bytes], index: int,
                        width: int, height: int, depth: int) -> np.ndarray:
        """Random access: walk back to the keyframe, roll deltas forward."""
        if not 0 <= index < len(chunks):
            raise CodecError(f"frame index {index} out of range [0, {len(chunks)})")
        # Walk back to the governing keyframe, then roll deltas forward.
        key = index
        while key > 0 and self._chunk_kind(chunks[key]) != self._KEY:
            key -= 1
        if self._chunk_kind(chunks[key]) != self._KEY:
            raise CodecError(f"no keyframe found at or before frame {index}")
        frame = self._decode_key(chunks[key], width, height, depth)
        for i in range(key + 1, index + 1):
            frame = self._apply_delta(frame, chunks[i], width, height, depth)
        self._check_geometry(frame, width, height, depth)
        return frame

    def stream_encoder(self):
        return _MPEGStreamEncoder(self)

    def stream_decoder(self, width: int, height: int, depth: int):
        return _MPEGStreamDecoder(self, width, height, depth)

    def decode_value(self, value) -> np.ndarray:
        """Sequential decode of every frame (linear, not quadratic)."""
        decoder = self.stream_decoder(value.width, value.height, value.depth)
        return np.stack([decoder.decode_next(chunk) for chunk in value.chunks])


class _MPEGStreamEncoder:
    """Stateful live encoder: keyframe every GOP, deltas between."""

    def __init__(self, codec: MPEGCodec) -> None:
        self._codec = codec
        self._count = 0
        self._shape: tuple[int, ...] | None = None
        self._reference: np.ndarray | None = None

    def encode_next(self, frame: np.ndarray) -> bytes:
        """Encode one live frame, keeping GOP and reference state.

        The rolling reconstructed reference is held as int16 (its values
        stay in [0, 255], so the representation is lossless), so the
        delta path runs without per-frame uint8<->int16 round trips. A
        keyframe's reference is rebuilt from the coefficients just
        quantized, by the decoder's own inverse. Every frame must have
        the first frame's geometry.
        """
        frame = np.asarray(frame)
        codec = self._codec
        if self._shape is not None and frame.shape != self._shape:
            raise CodecError(f"frame of shape {frame.shape} in a stream of "
                             f"{self._shape} frames")
        if self._count % codec.gop == 0:
            intra_chunk, quantized = codec._intra._encode(frame)
            chunk = codec._HEADER.pack(codec._MAGIC, codec._KEY) + intra_chunk
            height, width = frame.shape[:2]
            depth = 8 if frame.ndim == 2 else 24
            self._reference = _reconstruct(
                quantized, codec.quality, width, height, depth
            ).astype(np.int16)
            self._shape = frame.shape
        else:
            delta = frame.astype(np.int16) - self._reference
            quantized = (delta // codec.delta_quant).astype(np.int8)
            payload = zlib.compress(quantized.tobytes(), level=6)
            chunk = codec._HEADER.pack(codec._MAGIC, codec._DELTA) + payload
            restored = quantized.astype(np.int16) * codec.delta_quant
            self._reference = np.clip(self._reference + restored, 0, 255)
        self._count += 1
        return chunk


class _MPEGStreamDecoder:
    """Stateful live decoder: rolls the reference frame forward."""

    def __init__(self, codec: MPEGCodec, width: int, height: int, depth: int) -> None:
        self._codec = codec
        self._geometry = (width, height, depth)
        self._reference: np.ndarray | None = None

    def decode_next(self, chunk: bytes) -> np.ndarray:
        """Decode the next chunk, rolling the reference frame forward."""
        codec = self._codec
        if codec._chunk_kind(chunk) == codec._KEY:
            self._reference = codec._decode_key(chunk, *self._geometry)
        else:
            if self._reference is None:
                raise CodecError("delta chunk before any keyframe in stream")
            self._reference = codec._apply_delta(self._reference, chunk, *self._geometry)
        return self._reference
