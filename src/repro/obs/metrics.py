"""Metric instruments: counters, gauges, fixed-bucket histograms.

The registry is cheap enough to stay on by default: instrument objects are
created once (instrumented modules pre-bind them in their constructors)
and the hot-path operations — ``Counter.inc``, ``Gauge.set``,
``Histogram.observe`` — are a handful of attribute updates with no
locking, no string formatting and no allocation beyond the instrument
itself.

Every metric name, its kind, unit and (for a histogram) bucket bounds
is declared in :mod:`repro.obs.catalog`; the first dotted component of
a name is its layer.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Mapping, Optional

from repro.errors import AVDBError
from repro.obs.catalog import METRICS, TIME_BUCKETS_S


class MetricError(AVDBError):
    """A metric was registered or used inconsistently."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level, remembering its high watermark."""

    __slots__ = ("name", "value", "high_watermark")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high_watermark = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_watermark:
            self.high_watermark = value


class Histogram:
    """A fixed-bucket histogram (latency / jitter / queue depth).

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything larger.  Aggregates (count, sum,
    min, max) are exact; percentiles are bucket-resolution estimates.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, bounds: Iterable[float] = TIME_BUCKETS_S) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise MetricError(f"histogram {name!r} needs at least one bucket bound")
        if list(self.bounds) != sorted(set(self.bounds)):
            raise MetricError(f"histogram {name!r} bounds must be strictly increasing")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Bucket-resolution estimate of the ``p``-th percentile (0-100)."""
        if not 0 <= p <= 100:
            raise MetricError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = max(1, round(p / 100.0 * self.count))
        cumulative = 0
        for i, n in enumerate(self.counts):  # rank <= count: it breaks
            cumulative += n
            if cumulative >= rank:
                break
        if i < len(self.bounds):
            return min(self.bounds[i], self.max)
        return self.max

    def bucket_counts(self) -> Dict[str, int]:
        """Bucket label -> count, labels being the upper edges + ``+inf``."""
        labels = [f"<={b:g}" for b in self.bounds] + ["+inf"]
        return dict(zip(labels, self.counts))


class MetricsRegistry:
    """Name-keyed instrument store; get-or-create, with kind checking.

    Hot-path producers may *batch* their accounting: instead of bumping a
    counter per operation they keep a plain local tally and register a
    flush hook that settles the difference into the instrument.  Every
    read path (:meth:`get`, :meth:`by_kind`, :meth:`snapshot`) flushes
    first, so readers always observe exact totals — the batching is
    invisible except in per-operation cost.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        #: insertion-ordered; a dict so short-lived producers (a stream
        #: buffer holding timed deposits) can take their hook out again.
        self._flush_hooks: Dict[object, None] = {}

    def add_flush_hook(self, hook) -> None:
        """Register a callable that settles batched counts on read."""
        self._flush_hooks[hook] = None

    def remove_flush_hook(self, hook) -> None:
        """Take out a hook whose producer has nothing left to settle."""
        del self._flush_hooks[hook]

    def flush(self) -> None:
        """Run every flush hook (idempotent between producer updates)."""
        for hook in tuple(self._flush_hooks):
            hook()

    def _get(self, name: str, kind: type, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, *args)
            self._instruments[name] = instrument
        elif type(instrument) is not kind:
            raise MetricError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"requested {kind.kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Bounded by the name's catalog entry, else ``TIME_BUCKETS_S``."""
        entry = METRICS.get(name, ())
        return self._get(name, Histogram,
                         entry[3] if len(entry) > 3 else TIME_BUCKETS_S)

    def get(self, name: str) -> Optional[object]:
        """Look up an instrument without creating it."""
        if self._flush_hooks:
            self.flush()
        return self._instruments.get(name)

    def settled(self) -> Mapping[str, object]:
        """Flush once and return the instrument table, for a reader of
        many names at one instant; stale once the kernel runs on."""
        self.flush()
        return self._instruments

    def by_kind(self, kind: str) -> Dict[str, object]:
        if self._flush_hooks:
            self.flush()
        return {
            name: inst for name, inst in sorted(self._instruments.items())
            if inst.kind == kind
        }

    def snapshot(self) -> Dict[str, object]:
        """A plain-data snapshot of every instrument (JSON-serializable)."""
        if self._flush_hooks:
            self.flush()
        out: Dict[str, object] = {}
        for name, inst in sorted(self._instruments.items()):
            if inst.kind == "counter":
                out[name] = inst.value
            elif inst.kind == "gauge":
                out[name] = {"value": inst.value,
                             "high_watermark": inst.high_watermark}
            else:
                out[name] = {
                    "count": inst.count,
                    "sum": inst.total,
                    "mean": inst.mean,
                    "min": inst.min if inst.count else None,
                    "max": inst.max if inst.count else None,
                    "p50": inst.percentile(50) if inst.count else None,
                    "p95": inst.percentile(95) if inst.count else None,
                    "p99": inst.percentile(99) if inst.count else None,
                    "buckets": inst.bucket_counts(),
                }
        return out

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments


class _NullInstrument:
    """One object answering for every disabled counter/gauge/histogram."""

    __slots__ = ()

    name = "null"
    kind = "null"
    value = 0
    high_watermark = 0.0
    count = 0
    total = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def percentile(self, p) -> float:
        return 0.0

    def bucket_counts(self) -> Dict[str, int]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """A registry that records nothing (the un-instrumented baseline).

    Used by :func:`repro.obs.disabled` and the observability-overhead
    benchmark; every lookup returns the shared no-op instrument.
    """

    def add_flush_hook(self, hook) -> None:
        pass

    def remove_flush_hook(self, hook) -> None:
        pass

    def flush(self) -> None:
        pass

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def settled(self) -> Dict[str, object]:
        return {}

    def by_kind(self, kind: str) -> Dict[str, object]:
        return {}

    def snapshot(self) -> Dict[str, object]:
        return {}

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False


NULL_METRICS = NullMetrics()
