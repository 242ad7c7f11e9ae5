"""Audio codecs: µ-law companding and IMA-style ADPCM.

Both are :class:`AudioCodec` block codecs over int16 PCM:

* **µ-law** — the G.711 companding curve, 16-bit → 8-bit, the natural
  representation for the paper's "voice quality" factor;
* **ADPCM** — 4-bit adaptive differential coding in the style of IMA
  ADPCM (step-size table + predictor), giving ~4x compression.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.codecs.base import _Stateless
from repro.errors import CodecError
from repro.values.audio import ADPCMAudioValue, AudioValue, EncodedAudioValue, MuLawAudioValue

_MU = 255.0
_CLIP = 32635


class AudioCodec(abc.ABC):
    """Transforms int16 PCM <-> encoded blocks, each coded alone.

    A value is encoded as one block per ``block_samples`` sample frames;
    a stream as one block per element, whatever its length.
    """

    name: str = "abstract"
    value_class: type[EncodedAudioValue] = EncodedAudioValue
    block_samples = 1024

    @abc.abstractmethod
    def encode_block(self, block: np.ndarray) -> bytes:
        """Encode one (channels, n) int16 block."""

    @abc.abstractmethod
    def check_block(self, block: bytes, num_channels: int) -> int:
        """The sample frames ``block`` holds; :class:`CodecError` unless
        it would decode for ``num_channels`` channels."""

    @abc.abstractmethod
    def decode_block(self, block: bytes, num_channels: int) -> np.ndarray:
        """Decode one block back to (channels, n) int16 PCM."""

    def encode_value(self, value: AudioValue) -> EncodedAudioValue:
        """Encode a PCM value block by block, preserving its time mapping."""
        samples = value.samples()
        blocks = [self.encode_block(samples[:, lo:lo + self.block_samples])
                  for lo in range(0, value.num_samples, self.block_samples)]
        return self.value_class(
            blocks, self, value.num_channels, value.num_samples,
            value.sample_rate, depth=value.depth, mapping=value.mapping,
        )

    def stream_encoder(self) -> "_Stateless":
        return _Stateless(self.encode_block)

    def stream_decoder(self, num_channels: int) -> "_Stateless":
        return _Stateless(lambda block: self.decode_block(block, num_channels))


def encode_mulaw(samples: np.ndarray) -> np.ndarray:
    """int16 PCM -> uint8 µ-law codes (vectorized G.711-style curve)."""
    x = np.clip(samples.astype(np.float64), -_CLIP, _CLIP) / 32768.0
    compressed = np.sign(x) * np.log1p(_MU * np.abs(x)) / np.log1p(_MU)
    return np.round((compressed + 1.0) * 127.5).astype(np.uint8)


def decode_mulaw(codes: np.ndarray) -> np.ndarray:
    """uint8 µ-law codes -> int16 PCM."""
    y = codes.astype(np.float64) / 127.5 - 1.0
    x = np.sign(y) * ((1.0 + _MU) ** np.abs(y) - 1.0) / _MU
    return np.round(x * 32768.0).astype(np.int16)


class MuLawCodec(AudioCodec):
    """Block µ-law codec: 8-bit companded codes, one per sample."""

    name = "mulaw"
    value_class = MuLawAudioValue

    def encode_block(self, block: np.ndarray) -> bytes:
        return encode_mulaw(block).tobytes()

    def check_block(self, block: bytes, num_channels: int) -> int:
        if num_channels <= 0 or len(block) % num_channels:
            raise CodecError(
                f"µ-law block of {len(block)} codes not divisible by {num_channels} channels"
            )
        return len(block) // num_channels

    def decode_block(self, block: bytes, num_channels: int) -> np.ndarray:
        self.check_block(block, num_channels)
        codes = np.frombuffer(block, dtype=np.uint8)
        return decode_mulaw(codes.reshape(num_channels, -1))


# IMA ADPCM step-size table (89 entries).
_STEPS = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
], dtype=np.int32)

_INDEX_ADJUST = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int32)


def _adpcm_step(predictor: int, index: int, code: int) -> tuple[int, int]:
    """The decoder's predictor and step index after ``code``."""
    step = int(_STEPS[index])
    delta = step // 8 + (step // 4 if code & 1 else 0) \
        + (step // 2 if code & 2 else 0) + (step if code & 4 else 0)
    predictor += -delta if code & 8 else delta
    return (max(-32768, min(32767, predictor)),
            max(0, min(88, index + int(_INDEX_ADJUST[code & 7]))))


def _adpcm_encode_channel(samples: np.ndarray) -> bytes:
    """Encode one channel to 4-bit codes (2 codes per byte)."""
    predictor = 0
    index = 0
    nibbles = []
    for sample in samples.astype(np.int32):
        step = int(_STEPS[index])
        diff = int(sample) - predictor
        code = 0
        if diff < 0:
            code = 8
            diff = -diff
        if diff >= step:
            code |= 4
            diff -= step
        if diff >= step // 2:
            code |= 2
            diff -= step // 2
        if diff >= step // 4:
            code |= 1
        # Reconstruct exactly as the decoder will.
        predictor, index = _adpcm_step(predictor, index, code)
        nibbles.append(code)
    if len(nibbles) % 2:
        nibbles.append(0)
    packed = bytearray()
    for lo in range(0, len(nibbles), 2):
        packed.append(nibbles[lo] | (nibbles[lo + 1] << 4))
    return bytes(packed)


def _adpcm_decode_channel(data: bytes, count: int) -> np.ndarray:
    """Decode the first ``count`` codes, low nibble first, of one channel."""
    predictor = 0
    index = 0
    out = np.empty(count, dtype=np.int16)
    codes = [nibble for byte in data for nibble in (byte & 0x0F, byte >> 4)]
    for n, code in enumerate(codes[:count]):
        predictor, index = _adpcm_step(predictor, index, code)
        out[n] = predictor
    return out


class ADPCMCodec(AudioCodec):
    """4-bit IMA-style ADPCM block codec: a block is its sample count,
    then each channel's codes, two a byte."""

    name = "adpcm"
    value_class = ADPCMAudioValue

    def encode_block(self, block: np.ndarray) -> bytes:
        header = block.shape[1].to_bytes(4, "little")
        return header + b"".join(_adpcm_encode_channel(channel) for channel in block)

    def check_block(self, block: bytes, num_channels: int) -> int:
        count = int.from_bytes(block[:4], "little")
        expected = 4 + num_channels * -(-count // 2)
        if num_channels <= 0 or len(block) != expected:
            raise CodecError(
                f"ADPCM block of {len(block)} bytes, expected {expected} for "
                f"{num_channels} channels of {count} samples")
        return count

    def decode_block(self, block: bytes, num_channels: int) -> np.ndarray:
        count = self.check_block(block, num_channels)
        per_channel = -(-count // 2)
        body = block[4:]
        return np.stack([
            _adpcm_decode_channel(body[c * per_channel:(c + 1) * per_channel], count)
            for c in range(num_channels)])
