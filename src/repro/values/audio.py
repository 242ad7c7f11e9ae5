"""Audio values (paper §4.1).

The paper's specialization::

    class AudioValue subclass-of MediaValue {
        int numChannel
        int depth
        int numSample
        sample[numChannel][numSample]
    }

Samples are int16 numpy arrays of shape ``(num_channels, num_samples)``.
"Digital audio is basically a sequence of digitized samples"; encoded
specializations (µ-law, ADPCM) store compressed byte blocks and decode on
access, mirroring the video hierarchy.
"""

from __future__ import annotations

import abc
from typing import Any, List, Protocol

import numpy as np

from repro.avtime import TimeMapping
from repro.errors import DataModelError
from repro.values.base import MediaValue
from repro.values.mediatype import MediaType, standard_type


class AudioBlockCodec(Protocol):
    """Protocol encoded audio values use to decode their blocks."""

    name: str
    block_samples: int

    def check_block(self, block: bytes, num_channels: int) -> int: ...

    def decode_block(self, block: bytes, num_channels: int) -> np.ndarray: ...


class AudioValue(MediaValue, abc.ABC):
    """Generic audio: channels of int16 samples at a sample rate.

    Object time counts *sample frames* (one sample per channel); the
    element payload at index ``i`` is the length-``num_channels`` int16
    vector of sample frame ``i``.
    """

    def __init__(self, num_channels: int, depth: int, mapping: TimeMapping) -> None:
        if num_channels <= 0:
            raise DataModelError(f"channel count must be positive, got {num_channels}")
        if depth not in (8, 16):
            raise DataModelError(f"unsupported sample depth {depth} (use 8 or 16)")
        super().__init__(mapping)
        self.num_channels = num_channels
        self.depth = depth

    @property
    def num_samples(self) -> int:
        """The paper's ``numSample`` attribute (per channel)."""
        return self.element_count

    @property
    def sample_rate(self) -> float:
        return self.mapping.rate

    @abc.abstractmethod
    def samples(self) -> np.ndarray:
        """Full decoded sample array of shape (num_channels, num_samples)."""

    def element_payload(self, index: int) -> Any:
        self._check_index(index)
        return self.samples()[:, index]

    def sample_slice(self, start: int, count: int) -> np.ndarray:
        """Samples ``[start, start+count)`` across all channels."""
        if start < 0 or count < 0 or start + count > self.num_samples:
            raise DataModelError(
                f"slice [{start}, {start + count}) out of range [0, {self.num_samples})"
            )
        return self.samples()[:, start:start + count]


class RawAudioValue(AudioValue):
    """Uncompressed PCM audio."""

    _TYPE_NAME = "audio/pcm"

    def __init__(self, samples: np.ndarray, sample_rate: float = 44100.0,
                 depth: int = 16, mapping: TimeMapping | None = None) -> None:
        samples = np.asarray(samples, dtype=np.int16)
        if samples.ndim == 1:
            samples = samples[np.newaxis, :]
        if samples.ndim != 2:
            raise DataModelError(
                f"samples must have shape (channels, n) or (n,), got {samples.shape}"
            )
        if samples.shape[1] == 0:
            raise DataModelError("an audio value must contain at least one sample")
        super().__init__(samples.shape[0], depth, mapping or TimeMapping(sample_rate))
        self._samples = samples

    @classmethod
    def cd_audio(cls, samples: np.ndarray) -> "RawAudioValue":
        """CD encoded audio: stereo pairs of 16-bit samples at 44.1 kHz."""
        value = cls(samples, sample_rate=44100.0, depth=16)
        if value.num_channels != 2:
            raise DataModelError("CD audio requires exactly 2 channels")
        value._type_name = "audio/cd"
        return value

    _type_name: str | None = None

    @property
    def media_type(self) -> MediaType:
        return standard_type(self._type_name or self._TYPE_NAME)

    @property
    def element_count(self) -> int:
        return int(self._samples.shape[1])

    def samples(self) -> np.ndarray:
        return self._samples

    def element_size_bits(self, index: int) -> int:
        self._check_index(index)
        return self.num_channels * self.depth

    def data_size_bits(self) -> int:
        return self.num_channels * self.depth * self.element_count


class EncodedAudioValue(AudioValue, abc.ABC):
    """Compressed audio stored as fixed-span encoded blocks."""

    _TYPE_NAME = "audio/adpcm"

    def __init__(self, blocks: List[bytes], codec: AudioBlockCodec,
                 num_channels: int, num_samples: int, sample_rate: float,
                 depth: int = 16, mapping: TimeMapping | None = None) -> None:
        if not blocks:
            raise DataModelError("an audio value must contain at least one block")
        if num_samples <= 0:
            raise DataModelError(f"sample count must be positive, got {num_samples}")
        super().__init__(num_channels, depth, mapping or TimeMapping(sample_rate))
        self._blocks = list(blocks)
        self._stored_bits = sum(len(b) for b in self._blocks) * 8
        self._codec = codec
        self._num_samples = num_samples
        self._decoded: np.ndarray | None = None

    @property
    def media_type(self) -> MediaType:
        return standard_type(self._TYPE_NAME)

    @property
    def codec(self) -> AudioBlockCodec:
        return self._codec

    @property
    def blocks(self) -> List[bytes]:
        return self._blocks

    @property
    def element_count(self) -> int:
        return self._num_samples

    def samples(self) -> np.ndarray:
        if self._decoded is None:
            parts = [self._codec.decode_block(b, self.num_channels) for b in self._blocks]
            self._decoded = np.concatenate(parts, axis=1)[:, : self._num_samples]
        return self._decoded

    def element_size_bits(self, index: int) -> int:
        self._check_index(index)
        return max(1, self._stored_bits // self._num_samples)

    def data_size_bits(self) -> int:
        return self._stored_bits

    def compression_ratio(self) -> float:
        raw = self.num_channels * self.depth * self._num_samples
        stored = self.data_size_bits()
        return raw / stored if stored else float("inf")


class MuLawAudioValue(EncodedAudioValue):
    """µ-law companded 8-bit audio (telephone 'voice quality')."""

    _TYPE_NAME = "audio/mulaw"


class ADPCMAudioValue(EncodedAudioValue):
    """4-bit adaptive differential PCM audio."""

    _TYPE_NAME = "audio/adpcm"
