"""Frame-level editing operations on video values.

Representation-aware: raw values are sliced as array views (zero copy),
intraframe-encoded values as chunk-list slices (zero copy), and
interframe-encoded values are decoded and re-encoded so that every output
starts on a clean keyframe.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import DataModelError
from repro.values.video import (
    EncodedVideoValue,
    MPEGVideoValue,
    RawVideoValue,
    VideoValue,
)


def clip_range(value: VideoValue, start: int, count: int) -> VideoValue:
    """Frames ``[start, start+count)`` as a new value of the same class."""
    if start < 0 or count < 1 or start + count > value.num_frames:
        raise DataModelError(
            f"clip range [{start}, {start + count}) out of [0, {value.num_frames})"
        )
    if isinstance(value, MPEGVideoValue):
        # Interframe deps: re-encode the range so it is self-contained.
        frames = np.stack([value.frame(i) for i in range(start, start + count)])
        return value.codec.encode_value(
            RawVideoValue(frames, rate=value.mapping.rate)
        )
    if isinstance(value, EncodedVideoValue):
        return type(value)(
            value.chunks[start:start + count], value.codec,
            value.width, value.height, value.depth, rate=value.mapping.rate,
        )
    if isinstance(value, RawVideoValue):
        sliced = value.frames_array[start:start + count]
        clipped = type(value)(sliced, rate=value.mapping.rate)
        return clipped
    raise DataModelError(f"cannot clip {type(value).__name__}")


def cut(value: VideoValue, at_frame: int) -> Tuple[VideoValue, VideoValue]:
    """Split into [0, at) and [at, end)."""
    if at_frame < 1 or at_frame >= value.num_frames:
        raise DataModelError(
            f"cut point {at_frame} must be inside (0, {value.num_frames})"
        )
    return (
        clip_range(value, 0, at_frame),
        clip_range(value, at_frame, value.num_frames - at_frame),
    )


def _require_compatible(values: List[VideoValue]) -> None:
    geometries = {v.geometry for v in values}
    if len(geometries) != 1:
        raise DataModelError(f"geometry mismatch across values: {geometries}")
    rates = {v.mapping.rate for v in values}
    if len(rates) != 1:
        raise DataModelError(f"frame-rate mismatch across values: {rates}")


def splice(values: List[VideoValue]) -> RawVideoValue:
    """Concatenate clips into one raw value (decodes encoded inputs).

    A raw input's frame array goes into the concatenation as it is, so
    splicing raw clips copies their frames once.
    """
    if not values:
        raise DataModelError("splice needs at least one value")
    _require_compatible(values)
    frames = np.concatenate([
        v.frames_array if isinstance(v, RawVideoValue)
        else np.stack([v.frame(i) for i in range(v.num_frames)])
        for v in values
    ])
    return RawVideoValue(frames, rate=values[0].mapping.rate)


def overlay_mix(a: VideoValue, b: VideoValue, alpha: float = 0.5) -> RawVideoValue:
    """Blend two clips frame by frame: ``alpha*a + (1-alpha)*b``."""
    if not 0.0 <= alpha <= 1.0:
        raise DataModelError(f"alpha must be in [0, 1], got {alpha}")
    _require_compatible([a, b])
    n = min(a.num_frames, b.num_frames)
    frames = np.empty((n, *a.frame(0).shape), dtype=np.uint8)
    for i in range(n):
        mixed = alpha * a.frame(i).astype(np.float64) \
            + (1 - alpha) * b.frame(i).astype(np.float64)
        frames[i] = np.clip(np.round(mixed), 0, 255).astype(np.uint8)
    return RawVideoValue(frames, rate=a.mapping.rate)


def dissolve(a: VideoValue, b: VideoValue, transition_frames: int) -> RawVideoValue:
    """A -> B with a linear cross-dissolve of ``transition_frames``."""
    _require_compatible([a, b])
    if transition_frames < 1:
        raise DataModelError(f"transition needs >= 1 frame, got {transition_frames}")
    if transition_frames > min(a.num_frames, b.num_frames):
        raise DataModelError(
            f"transition of {transition_frames} frames exceeds clip lengths "
            f"({a.num_frames}, {b.num_frames})"
        )
    head = [a.frame(i) for i in range(a.num_frames - transition_frames)]
    blend = []
    for j in range(transition_frames):
        weight = (j + 1) / (transition_frames + 1)
        fa = a.frame(a.num_frames - transition_frames + j).astype(np.float64)
        fb = b.frame(j).astype(np.float64)
        blend.append(np.clip(np.round((1 - weight) * fa + weight * fb), 0, 255)
                     .astype(np.uint8))
    tail = [b.frame(i) for i in range(transition_frames, b.num_frames)]
    frames = np.stack(head + blend + tail)
    return RawVideoValue(frames, rate=a.mapping.rate)
