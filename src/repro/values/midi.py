"""MIDI-like event tracks.

The paper (§1) notes that an AV database "may store ... an alternate
representation from which the audio or video sequences are produced
(examples would be synthesizing digital audio from MIDI data ...)".
``MIDIValue`` is that alternate representation: a sorted sequence of
note events.  The synthesizer in :mod:`repro.codecs.midisynth` renders a
``MIDIValue`` into a :class:`~repro.values.RawAudioValue`.

Object time for a MIDI value counts *ticks* at a tick rate (default 480
ticks/s); the element at index ``i`` is the tuple of events starting at
tick ``i`` (usually empty — MIDI is sparse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.avtime import TimeMapping
from repro.errors import DataModelError
from repro.values.base import MediaValue
from repro.values.mediatype import MediaType, standard_type


@dataclass(frozen=True, slots=True)
class MIDIEvent:
    """A note event: pitch + velocity over a tick span."""

    tick: int
    note: int  # MIDI note number, 0..127 (69 = A4 = 440 Hz)
    velocity: int  # 1..127
    duration_ticks: int

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise DataModelError(f"event tick must be >= 0, got {self.tick}")
        if not 0 <= self.note <= 127:
            raise DataModelError(f"MIDI note must be in [0, 127], got {self.note}")
        if not 1 <= self.velocity <= 127:
            raise DataModelError(f"MIDI velocity must be in [1, 127], got {self.velocity}")
        if self.duration_ticks <= 0:
            raise DataModelError(f"event duration must be positive, got {self.duration_ticks}")

    @property
    def frequency_hz(self) -> float:
        """Equal-temperament frequency of the note."""
        return 440.0 * 2.0 ** ((self.note - 69) / 12.0)


_EVENT_BITS = 24  # 3 bytes per event message, amortized as in a standard MIDI file


class MIDIValue(MediaValue):
    """A sorted track of note events at a tick rate."""

    def __init__(self, events: Sequence[MIDIEvent], ticks_per_second: float = 480.0,
                 mapping: TimeMapping | None = None) -> None:
        if not events:
            raise DataModelError("a MIDI value must contain at least one event")
        super().__init__(mapping or TimeMapping(ticks_per_second))
        self._events = tuple(sorted(events, key=lambda e: (e.tick, e.note)))
        self._length_ticks = max(e.tick + e.duration_ticks for e in self._events)
        buckets: Dict[int, List[MIDIEvent]] = {}
        for event in self._events:
            buckets.setdefault(event.tick, []).append(event)
        #: start tick -> its events, in track order; ticks with none are absent
        self._by_tick = {tick: tuple(started) for tick, started in buckets.items()}

    @property
    def media_type(self) -> MediaType:
        return standard_type("midi/events")

    @property
    def events(self) -> Tuple[MIDIEvent, ...]:
        return self._events

    @property
    def ticks_per_second(self) -> float:
        return self.mapping.rate

    @property
    def element_count(self) -> int:
        return self._length_ticks

    def element_payload(self, index: int) -> Any:
        """All events that start exactly at tick ``index``."""
        self._check_index(index)
        return self._by_tick.get(index, ())

    def element_size_bits(self, index: int) -> int:
        self._check_index(index)
        return _EVENT_BITS * len(self._by_tick.get(index, ()))

    def data_size_bits(self) -> int:
        # Every event starts inside [0, length): durations are positive.
        return _EVENT_BITS * len(self._events)

    def active_at_tick(self, tick: int) -> Tuple[MIDIEvent, ...]:
        """Events sounding (started, not yet ended) at ``tick``."""
        return tuple(e for e in self._events if e.tick <= tick < e.tick + e.duration_ticks)
