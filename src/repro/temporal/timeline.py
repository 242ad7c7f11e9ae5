"""Per-instance timeline diagrams (Fig. 1).

"Such diagrams depict the relative timing (start time and duration) of
each component.  For example, the timeline in Fig. 1 indicates that
videoTrack starts at time t0 and ends at time t1, while the other tracks
last from t1 until t2."

A :class:`Timeline` is an ordered set of :class:`TimelineEntry` rows, each
placing one named track on the shared world-time axis.  ``render_ascii``
regenerates the figure; the Allen-relation helpers express and validate
inter-track correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.avtime import Interval, WorldTime
from repro.avtime.interval import AllenRelation
from repro.errors import TemporalError


@dataclass(frozen=True, slots=True)
class TimelineEntry:
    """One track's placement on the timeline."""

    track: str
    interval: Interval

    @property
    def start(self) -> WorldTime:
        return self.interval.start

    @property
    def end(self) -> WorldTime:
        return self.interval.end


class Timeline:
    """An ordered collection of track placements on one world-time axis."""

    def __init__(self, entries: Optional[List[TimelineEntry]] = None) -> None:
        self._entries: List[TimelineEntry] = []
        self._by_track: Dict[str, TimelineEntry] = {}
        for entry in entries or []:
            self.place_entry(entry)

    # -- construction ------------------------------------------------------
    def place(self, track: str, start: WorldTime, duration: WorldTime) -> TimelineEntry:
        return self.place_entry(TimelineEntry(track, Interval(start, duration)))

    def place_entry(self, entry: TimelineEntry) -> TimelineEntry:
        if entry.track in self._by_track:
            raise TemporalError(f"track {entry.track!r} already placed on this timeline")
        self._entries.append(entry)
        self._by_track[entry.track] = entry
        return entry

    def place_relative(self, track: str, relation: AllenRelation,
                       reference: str, duration: WorldTime,
                       offset: WorldTime = WorldTime(0.0)) -> TimelineEntry:
        """Author by constraint: place ``track`` so that it stands in
        ``relation`` to the already-placed ``reference`` track.

        The natural authoring idiom for timeline diagrams: "subtitles
        MEET the video", "commentary runs DURING the match".  ``offset``
        nudges relations that have positioning freedom (OVERLAPS, DURING,
        BEFORE/AFTER gaps); it must be positive where used.

        Supported relations: BEFORE, AFTER, MEETS, MET_BY, STARTS,
        STARTED_BY, FINISHES, FINISHED_BY, EQUALS, DURING, CONTAINS,
        OVERLAPS, OVERLAPPED_BY.  The placement is validated: the
        resulting pair must actually satisfy the requested relation
        (impossible combinations of duration/offset raise).
        """
        anchor = self.entry(reference).interval
        d = duration
        if relation is AllenRelation.BEFORE:
            gap = offset if offset.seconds > 0 else WorldTime(1e-9)
            start = anchor.start - gap - d
        elif relation is AllenRelation.AFTER:
            gap = offset if offset.seconds > 0 else WorldTime(1e-9)
            start = anchor.end + gap
        elif relation is AllenRelation.MEETS:
            start = anchor.start - d
        elif relation is AllenRelation.MET_BY:
            start = anchor.end
        elif relation in (AllenRelation.STARTS, AllenRelation.STARTED_BY):
            start = anchor.start
        elif relation in (AllenRelation.FINISHES, AllenRelation.FINISHED_BY):
            start = anchor.end - d
        elif relation is AllenRelation.EQUALS:
            start = anchor.start
        elif relation is AllenRelation.DURING:
            inset = offset if offset.seconds > 0 else anchor.duration * 0.01
            start = anchor.start + inset
        elif relation is AllenRelation.CONTAINS:
            inset = offset if offset.seconds > 0 else d * 0.01
            start = anchor.start - inset
        elif relation is AllenRelation.OVERLAPS:
            shift = offset if offset.seconds > 0 else d * 0.5
            start = anchor.start - shift
        elif relation is AllenRelation.OVERLAPPED_BY:
            shift = offset if offset.seconds > 0 else d * 0.5
            start = anchor.end - (d - shift)
        else:  # pragma: no cover - exhaustive above
            raise TemporalError(f"unsupported relation {relation}")
        candidate = Interval(start, d)
        achieved = candidate.relation_to(anchor)
        if achieved is not relation:
            raise TemporalError(
                f"cannot place {track!r} {relation.value} {reference!r} with "
                f"duration {d.seconds:g}s and offset {offset.seconds:g}s "
                f"(achieves {achieved.value})"
            )
        return self.place_entry(TimelineEntry(track, candidate))

    # -- lookup -------------------------------------------------------------
    def __iter__(self) -> Iterator[TimelineEntry]:
        return iter(self._entries)

    def entry(self, track: str) -> TimelineEntry:
        try:
            return self._by_track[track]
        except KeyError:
            raise TemporalError(f"no track {track!r} on this timeline") from None

    @property
    def tracks(self) -> Tuple[str, ...]:
        return tuple(e.track for e in self._entries)

    # -- derived temporal structure ---------------------------------------
    def span(self) -> Interval:
        """Smallest interval covering every entry."""
        if not self._entries:
            raise TemporalError("empty timeline has no span")
        result = self._entries[0].interval
        for entry in self._entries[1:]:
            result = result.union_span(entry.interval)
        return result

    @property
    def duration(self) -> WorldTime:
        return self.span().duration

    def active_at(self, when: WorldTime) -> List[TimelineEntry]:
        """Entries whose intervals contain world time ``when``."""
        return [e for e in self._entries if e.interval.contains_time(when)]

    def relation(self, track_a: str, track_b: str) -> AllenRelation:
        """Allen relation between two tracks' placements."""
        return self.entry(track_a).interval.relation_to(self.entry(track_b).interval)

    def simultaneous(self, track_a: str, track_b: str) -> bool:
        """Whether the two tracks are ever presented at the same time."""
        return (
            self.entry(track_a).interval.intersection(self.entry(track_b).interval)
            is not None
        )

    def shifted(self, delta: WorldTime) -> "Timeline":
        return Timeline([TimelineEntry(e.track, e.interval.shifted(delta)) for e in self._entries])

    def scaled(self, factor: float) -> "Timeline":
        """Scale every placement about the timeline origin (time 0)."""
        if factor <= 0:
            raise TemporalError(f"timeline scale factor must be positive, got {factor}")
        return Timeline([
            TimelineEntry(
                e.track,
                Interval(e.interval.start * factor, e.interval.duration * factor),
            )
            for e in self._entries
        ])

    # -- Fig. 1 reproduction -----------------------------------------------
    def render_ascii(self, width: int = 60) -> str:
        """Render the timeline diagram as ASCII art (regenerates Fig. 1).

        Each track is one row; its active span is drawn as a bar of ``=``
        between its start and end columns, on an axis covering the whole
        timeline span.
        """
        span = self.span()
        total = span.duration.seconds or 1.0
        label_width = max(len(e.track) for e in self._entries) + 2
        lines = []
        for entry in self._entries:
            lo = int((entry.start - span.start).seconds / total * (width - 1))
            hi = int((entry.end - span.start).seconds / total * (width - 1))
            hi = max(hi, lo + 1)
            bar = " " * lo + "=" * (hi - lo)
            lines.append(f"{entry.track:<{label_width}}|{bar:<{width}}|")
        axis_lo = f"{span.start.seconds:g}s"
        axis_hi = f"{span.end.seconds:g}s"
        axis = f"{'':<{label_width}} {axis_lo}{' ' * max(1, width - len(axis_lo) - len(axis_hi))}{axis_hi}"
        lines.append(axis)
        return "\n".join(lines)
