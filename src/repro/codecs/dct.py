"""Intraframe block-DCT codec (JPEG-like).

Each frame channel is tiled into 8x8 blocks, transformed with the
orthonormal DCT-II, quantized with a JPEG-style quantization table scaled
by a quality parameter, and entropy-coded with DEFLATE.  Lossy: higher
``quality`` keeps more coefficient precision at a lower compression ratio,
so benchmark C5 can sweep the rate/quality trade-off with a real knob.
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache
from typing import List, Sequence

import numpy as np

from repro.codecs.base import VideoCodec
from repro.errors import CodecError
from repro.values.video import JPEGVideoValue, frame_shape

BLOCK = 8

# The luminance quantization table of JPEG Annex K — the classic trade-off
# between low- and high-frequency precision.
_QUANT_BASE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


def _dct_matrix(n: int = BLOCK) -> np.ndarray:
    """Orthonormal DCT-II matrix: ``D @ x`` transforms columns."""
    k = np.arange(n)[:, np.newaxis]
    i = np.arange(n)[np.newaxis, :]
    mat = np.cos(np.pi * (2 * i + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    mat[0, :] = np.sqrt(1.0 / n)
    return mat


_DCT = _dct_matrix()
_IDCT = _DCT.T


def quant_table(quality: int) -> np.ndarray:
    """JPEG-style quality scaling of the base table (quality 1..100).

    Built once per quality and shared read-only: every decoded frame
    and keyframe reads it.
    """
    if not 1 <= quality <= 100:
        raise CodecError(f"JPEG quality must be in [1, 100], got {quality}")
    return _quant_table(quality)


@lru_cache(maxsize=None)
def _quant_table(quality: int) -> np.ndarray:
    if quality < 50:
        scale = 5000.0 / quality
    else:
        scale = 200.0 - 2.0 * quality
    table = np.clip(np.floor((_QUANT_BASE * scale + 50.0) / 100.0), 1.0, 255.0)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _tiled_table(quality: int, blocks: int) -> np.ndarray:
    """``quant_table(quality)`` repeated for ``blocks`` blocks: one
    contiguous multiply dequantizes a frame (the same products as the
    broadcast, faster)."""
    table = np.tile(quant_table(quality), (blocks, 1, 1))
    table.flags.writeable = False
    return table


def _reconstruct(quantized: np.ndarray, quality: int,
                 width: int, height: int, depth: int) -> np.ndarray:
    """Inverse path: (C, rows, cols, 8, 8) int16 coefficients -> uint8 frame.

    The decoder runs it on a chunk's payload, and the interframe encoder
    on the coefficients it just quantized, so a keyframe's reference is
    the decoded keyframe without a zlib round trip.
    """
    channels, rows, cols = quantized.shape[:3]
    ph, pw = rows * BLOCK, cols * BLOCK
    quantized = quantized.reshape(-1, BLOCK, BLOCK)
    coeffs = quantized.astype(np.float64)
    coeffs *= _tiled_table(quality, len(quantized))
    blocks = _IDCT @ coeffs @ _DCT
    # Every block of every plane at once: shifted and clamped in place
    # (clip's elementwise result), then cast to uint8 straight into
    # raster order, (C, H/8, W/8, 8, 8) -> (C, H, W).
    blocks += 128.0
    blocks.clip(0.0, 255.0, out=blocks)
    planes = np.empty((channels, ph, pw), dtype=np.uint8)
    np.copyto(planes.reshape(channels, rows, BLOCK, cols, BLOCK)
              .transpose(0, 1, 3, 2, 4),
              blocks.reshape(channels, rows, cols, BLOCK, BLOCK),
              casting="unsafe")
    if ph != height or pw != width:
        planes = np.ascontiguousarray(planes[:, :height, :width])
    if depth == 8:
        return planes[0]
    return np.ascontiguousarray(planes.transpose(1, 2, 0))


class JPEGCodec(VideoCodec):
    """Intraframe DCT codec with a JPEG-style quality knob."""

    name = "jpeg"
    value_class = JPEGVideoValue

    #: chunk header: magic, quality, padded height, padded width
    _HEADER = struct.Struct("<4sBHH")
    _MAGIC = b"JPG0"

    def __init__(self, quality: int = 75) -> None:
        self.quality = quality
        self._table = quant_table(quality)

    def encode_frame(self, frame: np.ndarray) -> bytes:
        """Encode one frame (used directly by the interframe codec)."""
        return self._encode(frame)[0]

    def _encode(self, frame: np.ndarray) -> tuple[bytes, np.ndarray]:
        """Forward path: a (H, W) or (H, W, 3) frame -> (chunk, coefficients).

        The coefficients are int16, (channels, block rows, block
        columns, 8, 8) in the chunk's block order. The planes are copied
        once into a float64 block array, and centring, both transform
        matmuls, the division and the rounding run in that array and
        one scratch array, so a frame's working set stays in cache.
        """
        frame = np.asarray(frame)
        if frame.ndim == 2:
            planes = frame[None]
        elif frame.ndim == 3 and frame.shape[2] == 3:
            planes = frame.transpose(2, 0, 1)
        else:
            raise CodecError(f"a frame is (H, W) or (H, W, 3), not {frame.shape}")
        h, w = frame.shape[:2]
        if h % BLOCK or w % BLOCK:
            planes = np.pad(planes, ((0, 0), (0, -h % BLOCK), (0, -w % BLOCK)),
                            mode="edge")
        channels, ph, pw = planes.shape
        rows, cols = ph // BLOCK, pw // BLOCK
        blocks = np.empty((channels, rows, cols, BLOCK, BLOCK))
        np.copyto(blocks, planes.reshape(channels, rows, BLOCK, cols, BLOCK)
                  .transpose(0, 1, 3, 2, 4), casting="unsafe")
        blocks -= 128.0
        scratch = np.matmul(_DCT, blocks)
        np.matmul(scratch, _IDCT, out=blocks)
        blocks /= self._table
        quantized = np.rint(blocks, out=blocks).astype(np.int16)
        header = self._HEADER.pack(self._MAGIC, self.quality, ph, pw)
        return header + zlib.compress(quantized.tobytes(), level=6), quantized

    def decode_frame(self, chunk: bytes, width: int, height: int, depth: int) -> np.ndarray:
        """Decode one intraframe chunk back to a uint8 frame.

        A chunk that is not one this codec wrote for that geometry
        (truncated, corrupted, another codec's) raises ``CodecError``.
        """
        if len(chunk) < self._HEADER.size:
            raise CodecError(f"JPEG chunk of {len(chunk)} bytes is shorter "
                             f"than its {self._HEADER.size}-byte header")
        magic, quality, ph, pw = self._HEADER.unpack_from(chunk)
        if magic != self._MAGIC:
            raise CodecError(f"not a JPEG-codec chunk (magic {magic!r})")
        channels = 1 if depth == 8 else 3
        if (ph % BLOCK or pw % BLOCK or not height <= ph < height + BLOCK
                or not width <= pw < width + BLOCK):
            raise CodecError(f"JPEG chunk padded to {pw}x{ph} does not hold "
                             f"a {width}x{height} frame")
        try:
            raw = zlib.decompress(chunk[self._HEADER.size:])
        except zlib.error as error:
            raise CodecError(f"corrupt JPEG chunk payload: {error}") from None
        if len(raw) != channels * ph * pw * 2:
            raise CodecError(f"JPEG chunk holds {len(raw)} coefficient bytes, "
                             f"not the {channels * ph * pw * 2} of "
                             f"{channels} {pw}x{ph} plane(s)")
        quantized = np.frombuffer(raw, dtype=np.int16).reshape(
            channels, ph // BLOCK, pw // BLOCK, BLOCK, BLOCK)
        return _reconstruct(quantized, quality, width, height, depth)

    # -- VideoCodec interface --------------------------------------------
    def encode_frames(self, frames: Sequence[np.ndarray]) -> List[bytes]:
        return [self.encode_frame(f) for f in frames]

    def decode_frame_at(self, chunks: Sequence[bytes], index: int,
                        width: int, height: int, depth: int) -> np.ndarray:
        frame_shape(width, height, depth)  # validate geometry early
        return self.decode_frame(chunks[index], width, height, depth)
