"""Temporally composed AV values.

A :class:`TemporalComposite` binds the tracks declared by a
:class:`~repro.temporal.TCompSpec` to concrete AV values and positions
them on a :class:`~repro.temporal.Timeline`.  It is itself presentable:
``duration`` is the timeline span, ``scale``/``translate`` distribute over
every track (preserving correlations), and ``active_tracks`` drives the
composite activities that "maintain the synchronization of [their]
component activities".
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.avtime import WorldTime
from repro.errors import TemporalError
from repro.temporal.spec import TCompSpec
from repro.temporal.timeline import Timeline, TimelineEntry
from repro.values.base import MediaValue


class TemporalComposite:
    """Tracks bound to values, correlated by a timeline.

    Parameters
    ----------
    spec:
        The class-level ``tcomp`` declaration.
    values:
        Full mapping from track name to AV value (validated against the
        spec — every track present, types compatible).
    timeline:
        Optional explicit timeline.  When omitted, each track is placed at
        its value's own (start, duration) — the common authoring case
        where values were already positioned with ``translate``.
    """

    def __init__(self, spec: TCompSpec, values: Dict[str, MediaValue],
                 timeline: Optional[Timeline] = None) -> None:
        spec.validate_values(values)
        self.spec = spec
        self._values = dict(values)
        if timeline is None:
            timeline = Timeline([
                TimelineEntry(name, values[name].interval) for name in spec.track_names
            ])
        else:
            unknown = set(timeline.tracks) - set(spec.track_names)
            if unknown:
                raise TemporalError(
                    f"timeline places unknown tracks {sorted(unknown)}"
                )
            missing = set(spec.track_names) - set(timeline.tracks)
            if missing:
                raise TemporalError(
                    f"timeline does not place tracks {sorted(missing)}"
                )
        self.timeline = timeline

    # -- access -------------------------------------------------------------
    @property
    def track_names(self) -> Tuple[str, ...]:
        return self.spec.track_names

    def value(self, track: str) -> MediaValue:
        try:
            return self._values[track]
        except KeyError:
            raise TemporalError(f"composite has no track {track!r}") from None

    def __getattr__(self, name: str) -> MediaValue:
        # Attribute-style track access, e.g. clip.videoTrack (paper §4.3).
        values = self.__dict__.get("_values")
        if values is not None and name in values:
            return values[name]
        raise AttributeError(name)

    def __iter__(self) -> Iterator[Tuple[str, MediaValue]]:
        return iter(self._values.items())

    # -- temporal interface --------------------------------------------------
    @property
    def duration(self) -> WorldTime:
        return self.timeline.duration

    def active_tracks(self, when: WorldTime) -> List[str]:
        """Names of tracks presented at world time ``when``."""
        return [e.track for e in self.timeline.active_at(when)]

    def translate(self, delta: WorldTime) -> "TemporalComposite":
        """Shift the whole composite; correlations are preserved."""
        values = {name: value.translate(delta) for name, value in self._values.items()}
        return TemporalComposite(self.spec, values, self.timeline.shifted(delta))

    def scale(self, factor: float) -> "TemporalComposite":
        """Stretch the whole composite about world time 0."""
        values = {}
        for name, value in self._values.items():
            scaled = value.scale(factor)
            # Scaling about the origin also scales each value's start.
            values[name] = scaled.translate(value.start * factor - scaled.start)
        return TemporalComposite(self.spec, values, self.timeline.scaled(factor))

    def validate_alignment(self, tolerance: WorldTime = WorldTime(1e-9)) -> None:
        """Check each value's own interval matches its timeline placement.

        Authoring tools may position values independently of the timeline;
        before playback the two must agree or the composite activities
        would present elements at the wrong world times.
        """
        for entry in self.timeline:
            value = self._values[entry.track]
            start_skew = abs(value.start - entry.start)
            duration_skew = abs(value.duration - entry.interval.duration)
            if start_skew > tolerance or duration_skew > tolerance:
                raise TemporalError(
                    f"track {entry.track!r}: value interval {value.interval!r} "
                    f"does not match timeline placement {entry.interval!r}"
                )
