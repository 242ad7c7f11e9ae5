"""Jitter models and resynchronization (paper §3.3, scheduling).

"Because of unpredictable system latencies, AV values tend to jitter and
require regular resynchronization."

A :class:`JitterModel` injects per-element latency into a source's pacing.
:class:`RandomWalkJitter` makes the latency a bounded random walk, so
*drift accumulates* — exactly the failure mode that makes unsynchronized
long streams fall apart.  A :class:`SyncGroup` is the database-side
coordinator: member sources report their current drift and the group
computes the correction each member must apply; a :class:`Resynchronizer`
applies the correction every ``interval`` elements, bounding skew.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List

from repro.errors import TemporalError


class JitterModel(abc.ABC):
    """Per-element latency offsets, deterministic given a seed."""

    @abc.abstractmethod
    def offset(self, index: int) -> float:
        """Latency (seconds, >= 0) injected before producing element ``index``.

        Must be called with strictly increasing ``index`` values; models
        may carry state between calls.
        """

    @abc.abstractmethod
    def reset_drift(self) -> None:
        """Drop accumulated drift (a resynchronization point)."""


class NoJitter(JitterModel):
    """The ideal system: every element exactly on schedule."""

    def offset(self, index: int) -> float:
        return 0.0

    def reset_drift(self) -> None:
        return None


class RandomWalkJitter(JitterModel):
    """Latency performing a non-negative bounded random walk.

    Each element's latency moves by a uniform step in
    ``[-step, +step * bias]``; with ``bias > 1`` (default) latency tends
    upward, modelling queueing delays that accumulate until something
    resynchronizes the stream.
    """

    def __init__(self, step: float = 0.002, bias: float = 1.5,
                 ceiling: float = 1.0, seed: int = 0) -> None:
        if step < 0:
            raise TemporalError(f"jitter step must be >= 0, got {step}")
        self._step = step
        self._bias = bias
        self._ceiling = ceiling
        self._rng = random.Random(seed)
        self._drift = 0.0

    @property
    def drift(self) -> float:
        return self._drift

    def offset(self, index: int) -> float:
        delta = self._rng.uniform(-self._step, self._step * self._bias)
        self._drift = min(self._ceiling, max(0.0, self._drift + delta))
        return self._drift

    def reset_drift(self) -> None:
        self._drift = 0.0


class Resynchronizer:
    """Applies drift correction every ``interval`` elements."""

    def __init__(self, interval: int = 10) -> None:
        if interval < 1:
            raise TemporalError(f"resync interval must be >= 1, got {interval}")
        self.interval = interval
        self.resync_count = 0

    def maybe_resync(self, index: int, jitter: JitterModel) -> bool:
        """Reset the model's drift at resync points; True when applied."""
        if index > 0 and index % self.interval == 0:
            jitter.reset_drift()
            self.resync_count += 1
            return True
        return False


class SyncGroup:
    """Coordinates the member streams of one composite activity.

    Members register under a track name and report their drift each time
    they produce an element.  ``max_skew`` is the instantaneous spread of
    reported drifts — the quantity composite activities must keep small
    ("assuring that the streams corresponding to the different tracks
    remain temporally correlated").
    """

    def __init__(self, name: str = "sync-group") -> None:
        self.name = name
        self._drifts: Dict[str, float] = {}
        self._history: List[float] = []

    def register(self, member: str) -> None:
        if member in self._drifts:
            raise TemporalError(f"member {member!r} already in sync group {self.name!r}")
        self._drifts[member] = 0.0

    def report(self, member: str, drift: float) -> None:
        if member not in self._drifts:
            raise TemporalError(f"member {member!r} not in sync group {self.name!r}")
        self._drifts[member] = drift
        if len(self._drifts) > 1:
            self._history.append(self.current_skew())

    def current_skew(self) -> float:
        if not self._drifts:
            return 0.0
        values = list(self._drifts.values())
        return max(values) - min(values)

    def max_skew(self) -> float:
        return max(self._history, default=0.0)
