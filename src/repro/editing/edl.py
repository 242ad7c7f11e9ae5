"""Edit decision lists.

The professional editing workflow: an EDL is an ordered list of
(source value, in-point, out-point) segments; ``render`` produces the
program as a new value.  EDLs are cheap to build and rearrange (the
non-linear-editing interactivity the paper emphasizes); only rendering
touches frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.avtime import WorldTime
from repro.editing.ops import splice
from repro.errors import DataModelError
from repro.values.video import RawVideoValue, VideoValue


@dataclass(frozen=True, slots=True)
class Segment:
    """One EDL entry: frames [in_frame, out_frame) of a source value."""

    source: VideoValue
    in_frame: int
    out_frame: int

    def __post_init__(self) -> None:
        if not 0 <= self.in_frame < self.out_frame <= self.source.num_frames:
            raise DataModelError(
                f"segment [{self.in_frame}, {self.out_frame}) invalid for a "
                f"{self.source.num_frames}-frame source"
            )

    @property
    def frame_count(self) -> int:
        return self.out_frame - self.in_frame

    @property
    def duration(self) -> WorldTime:
        return WorldTime(self.frame_count / self.source.mapping.rate)


class EditDecisionList:
    """An ordered program of segments."""

    def __init__(self) -> None:
        self._segments: List[Segment] = []

    # -- editing (all O(1) on media data) ----------------------------------
    def append(self, source: VideoValue, in_frame: int = 0,
               out_frame: int | None = None) -> Segment:
        segment = Segment(source, in_frame,
                          source.num_frames if out_frame is None else out_frame)
        self._segments.append(segment)
        return segment

    def insert(self, position: int, segment: Segment) -> None:
        if not 0 <= position <= len(self._segments):
            raise DataModelError(
                f"insert position {position} out of [0, {len(self._segments)}]"
            )
        self._segments.insert(position, segment)

    def remove(self, position: int) -> Segment:
        if not 0 <= position < len(self._segments):
            raise DataModelError(f"no segment at position {position}")
        return self._segments.pop(position)

    def move(self, src: int, dst: int) -> None:
        segment = self.remove(src)
        self.insert(dst, segment)

    def __len__(self) -> int:
        return len(self._segments)

    # -- derived -------------------------------------------------------------
    def total_frames(self) -> int:
        return sum(s.frame_count for s in self._segments)

    def duration(self) -> WorldTime:
        total = WorldTime.zero()
        for segment in self._segments:
            total = total + segment.duration
        return total

    def render(self) -> RawVideoValue:
        """Materialize the program as one raw value: each segment's frames
        stacked once, then spliced in order (two copies in all)."""
        if not self._segments:
            raise DataModelError("cannot render an empty EDL")
        return splice([
            RawVideoValue(np.stack([s.source.frame(i)
                                    for i in range(s.in_frame, s.out_frame)]),
                          rate=s.source.mapping.rate)
            for s in self._segments
        ])
