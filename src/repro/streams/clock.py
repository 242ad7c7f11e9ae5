"""Presentation logs and skew measurement.

Sinks record, per presented element, the *ideal* presentation time (what
the source's time mapping prescribed) and the *actual* virtual time of
presentation.  From these logs the benchmarks compute latency, jitter and
— between two sinks of a composite — inter-stream skew, the quantity the
paper says "tend[s] to jitter and require[s] regular resynchronization".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.avtime import WorldTime
from repro.errors import TemporalError


@dataclass(frozen=True, slots=True)
class PresentationRecord:
    """One presented element."""

    index: int
    ideal: WorldTime
    actual: WorldTime

    @property
    def latency(self) -> WorldTime:
        """actual - ideal: how late (or early, negative) it was presented."""
        return self.actual - self.ideal


@dataclass
class PresentationLog:
    """Ordered record of one sink's presentations."""

    name: str = "sink"
    records: List[PresentationRecord] = field(default_factory=list)

    def record(self, index: int, ideal: WorldTime, actual: WorldTime) -> None:
        self.records.append(PresentationRecord(index, ideal, actual))

    def __len__(self) -> int:
        return len(self.records)

    # -- statistics ---------------------------------------------------------
    def latencies(self) -> List[float]:
        return [r.latency.seconds for r in self.records]

    def mean_latency(self) -> float:
        if not self.records:
            raise TemporalError(f"log {self.name!r} is empty")
        values = self.latencies()
        return sum(values) / len(values)

    def max_latency(self) -> float:
        if not self.records:
            raise TemporalError(f"log {self.name!r} is empty")
        return max(self.latencies())

    def jitter(self) -> float:
        """Peak-to-peak variation of latency (seconds)."""
        values = self.latencies()
        if len(values) < 2:
            return 0.0
        return max(values) - min(values)

    def latency_at_ideal(self, ideal: WorldTime) -> Optional[float]:
        """Latency of the record closest to ``ideal``, or None if empty."""
        if not self.records:
            return None
        best = min(self.records, key=lambda r: abs((r.ideal - ideal).seconds))
        return best.latency.seconds


def skew_between(log_a: PresentationLog, log_b: PresentationLog,
                 samples: int = 50) -> List[float]:
    """Inter-stream skew series between two presentation logs.

    At ``samples`` evenly spaced ideal times over the logs' common ideal
    span, the skew is ``latency_a - latency_b``: how far stream A has
    drifted relative to stream B.  Perfectly synchronized streams give an
    all-zero series regardless of shared latency.
    """
    if not log_a.records or not log_b.records:
        raise TemporalError("cannot compute skew with an empty presentation log")
    lo = max(log_a.records[0].ideal.seconds, log_b.records[0].ideal.seconds)
    hi = min(log_a.records[-1].ideal.seconds, log_b.records[-1].ideal.seconds)
    if hi < lo:
        raise TemporalError("presentation logs do not overlap in ideal time")
    series = []
    count = max(2, samples)
    for i in range(count):
        t = WorldTime(lo + (hi - lo) * i / (count - 1))
        la = log_a.latency_at_ideal(t)
        lb = log_b.latency_at_ideal(t)
        series.append(la - lb)
    return series
