"""Tracing: spans and instant events in virtual *and* wall time.

Every event carries two timestamps (the dual-stamping rule, README
"Observability"):

* ``ts`` — virtual :class:`~repro.avtime.WorldTime` seconds from the DES
  kernel the tracer is bound to (the time axis exported to Chrome
  ``trace_event`` / Perfetto);
* ``wall`` — wall-clock seconds since the tracer was created, so real
  CPU cost can be correlated with virtual behaviour.

A :class:`Span` measures a region that may cover virtual time (it can be
held across DES yields); :meth:`Tracer.instant` marks a point.  :class:`NullTracer` is the disabled implementation:
every operation is a no-op and ``enabled`` is ``False`` so hot paths can
skip argument construction entirely.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional


class TraceEvent:
    """One recorded event (a lightweight record, not a dataclass: these
    are allocated on hot paths when tracing is enabled)."""

    __slots__ = ("phase", "name", "category", "track", "ts", "dur",
                 "wall", "wall_dur", "args")

    def __init__(self, phase: str, name: str, category: str, track: str,
                 ts: float, dur: Optional[float], wall: float,
                 wall_dur: Optional[float],
                 args: Optional[Dict[str, Any]]) -> None:
        self.phase = phase          # "X" complete span | "i" instant
        self.name = name
        self.category = category
        self.track = track          # Chrome-trace thread (one lane per track)
        self.ts = ts                # virtual seconds
        self.dur = dur              # virtual seconds (spans only)
        self.wall = wall            # wall seconds since tracer epoch
        self.wall_dur = wall_dur
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "phase": self.phase, "name": self.name, "category": self.category,
            "track": self.track, "ts": self.ts, "wall": self.wall,
        }
        if self.dur is not None:
            out["dur"] = self.dur
            out["wall_dur"] = self.wall_dur
        if self.args:
            out["args"] = self.args
        return out


class Span:
    """An open span; ``end()`` (or exiting the context) records it."""

    __slots__ = ("_tracer", "name", "category", "track", "_ts", "_wall", "_args")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 track: str, args: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.track = track
        self._ts = tracer._clock()
        self._wall = time.perf_counter() - tracer._epoch
        self._args = args

    def end(self, **extra: Any) -> None:
        tracer = self._tracer
        if tracer is None:
            return  # already ended
        self._tracer = None
        args = self._args
        if extra:
            args = {**(args or {}), **extra}
        ts = tracer._clock()
        wall = time.perf_counter() - tracer._epoch
        tracer.events.append(TraceEvent(
            "X", self.name, self.category, self.track,
            self._ts, max(0.0, ts - self._ts),
            self._wall, max(0.0, wall - self._wall), args,
        ))

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end() if exc_type is None else self.end(error=repr(exc))


class Tracer:
    """Collects trace events against a virtual clock.

    ``clock`` is a zero-argument callable returning virtual seconds; a
    :class:`~repro.sim.Simulator` binds its own clock on construction
    (first binder wins, so one tracer scoped over one simulation reads
    that simulation's time).  Unbound tracers stamp virtual time 0.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.events: List[TraceEvent] = []
        self._clock: Callable[[], float] = clock if clock is not None else _zero
        self._epoch = time.perf_counter()

    # -- clock binding -----------------------------------------------------
    @property
    def clock_bound(self) -> bool:
        return self._clock is not _zero

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Adopt a virtual clock; ignored if one is already bound."""
        if not self.clock_bound:
            self._clock = clock

    # -- recording ---------------------------------------------------------
    def begin(self, name: str, category: str = "", track: Optional[str] = None,
              **args: Any) -> Span:
        """Open a span; it may be held across DES yields."""
        return Span(self, name, category, track or name, args or None)

    def instant(self, name: str, category: str = "",
                track: Optional[str] = None, at: Optional[float] = None,
                **args: Any) -> None:
        """Mark a point in time: now, or the virtual time ``at`` (a
        settled run marks its past moments when they are read)."""
        self.events.append(TraceEvent(
            "i", name, category, track or name,
            self._clock() if at is None else at, None,
            time.perf_counter() - self._epoch, None, args or None,
        ))


def _zero() -> float:
    return 0.0


class _NullSpan:
    """The shared no-op span handed out by :class:`NullTracer`."""

    __slots__ = ()

    name = category = track = ""

    def end(self, **extra: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: records nothing, costs (almost) nothing."""

    enabled = False
    events: List[TraceEvent] = []  # always empty; shared read-only view

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    @property
    def clock_bound(self) -> bool:
        return False

    def begin(self, name: str, category: str = "", track: Optional[str] = None,
              **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "",
                track: Optional[str] = None, at: Optional[float] = None,
                **args: Any) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
