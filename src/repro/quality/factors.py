"""Quality factor values and parsing.

Video quality factors use the paper's ``w x h x d @ r`` syntax, e.g. the
Newscast class declares ``quality 640 x 480 x 8 @ 30`` and the §4.3
session creates a window with ``quality 320x240x8 @ 30``.  Audio quality
factors are the named levels the paper lists: ``voice``, ``FM``, ``CD``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Dict, Union

from repro.errors import QualityError

_VIDEO_RE = re.compile(
    r"^\s*(\d+)\s*[xX]\s*(\d+)\s*[xX]\s*(\d+)\s*@\s*(\d+(?:\.\d+)?)\s*$"
)


@total_ordering
@dataclass(frozen=True, slots=True)
class VideoQuality:
    """A ``w x h x d @ r`` video quality factor."""

    width: int
    height: int
    depth: int
    rate: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise QualityError(f"quality geometry must be positive, got {self.width}x{self.height}")
        if self.depth not in (8, 24):
            raise QualityError(f"quality depth must be 8 or 24, got {self.depth}")
        if self.rate <= 0:
            raise QualityError(f"quality rate must be positive, got {self.rate}")

    @classmethod
    def parse(cls, text: str) -> "VideoQuality":
        match = _VIDEO_RE.match(text)
        if match is None:
            raise QualityError(f"malformed video quality factor {text!r} (expected 'w x h x d @ r')")
        w, h, d, r = match.groups()
        return cls(int(w), int(h), int(d), float(r))

    @property
    def raw_bps(self) -> float:
        """Uncompressed data rate this quality implies, bits/second."""
        return self.width * self.height * self.depth * self.rate

    def dominates(self, other: "VideoQuality") -> bool:
        """True when this quality is >= ``other`` in every dimension."""
        return (
            self.width >= other.width
            and self.height >= other.height
            and self.depth >= other.depth
            and self.rate >= other.rate
        )

    def __lt__(self, other: "VideoQuality") -> bool:
        if not isinstance(other, VideoQuality):
            return NotImplemented
        # Total order by implied raw data rate; ties by geometry tuple.
        return (self.raw_bps, self.width, self.height, self.depth, self.rate) < (
            other.raw_bps, other.width, other.height, other.depth, other.rate,
        )

    def __str__(self) -> str:
        rate = int(self.rate) if self.rate == int(self.rate) else self.rate
        return f"{self.width}x{self.height}x{self.depth}@{rate}"


@total_ordering
@dataclass(frozen=True, slots=True)
class AudioQuality:
    """A named audio quality level."""

    name: str
    sample_rate: float
    depth: int
    channels: int

    @property
    def raw_bps(self) -> float:
        return self.sample_rate * self.depth * self.channels

    def dominates(self, other: "AudioQuality") -> bool:
        return (
            self.sample_rate >= other.sample_rate
            and self.depth >= other.depth
            and self.channels >= other.channels
        )

    def __lt__(self, other: "AudioQuality") -> bool:
        if not isinstance(other, AudioQuality):
            return NotImplemented
        return self.raw_bps < other.raw_bps

    def __str__(self) -> str:
        return f"{self.name}-quality"


#: The paper's three named audio quality levels.
AUDIO_QUALITIES: Dict[str, AudioQuality] = {
    "voice": AudioQuality("voice", sample_rate=8000.0, depth=8, channels=1),
    "fm": AudioQuality("fm", sample_rate=22050.0, depth=16, channels=1),
    "cd": AudioQuality("cd", sample_rate=44100.0, depth=16, channels=2),
}

QualityFactor = Union[VideoQuality, AudioQuality]


def parse_quality(text: str) -> QualityFactor:
    """Parse either quality-factor syntax.

    ``"640x480x8@30"`` → :class:`VideoQuality`;
    ``"voice"`` / ``"FM-quality"`` / ``"CD"`` → :class:`AudioQuality`.
    """
    normalized = text.strip().lower().removesuffix("-quality")
    if normalized in AUDIO_QUALITIES:
        return AUDIO_QUALITIES[normalized]
    if "@" in text:
        return VideoQuality.parse(text)
    raise QualityError(
        f"unrecognized quality factor {text!r} "
        f"(expected 'w x h x d @ r' or one of {sorted(AUDIO_QUALITIES)})"
    )
