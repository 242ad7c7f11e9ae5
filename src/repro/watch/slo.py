"""Declarative SLOs evaluated in virtual time against the metrics registry.

An :class:`SLOSpec` names one objective over one instrument — a
histogram quantile ceiling (session startup latency, jitter), a ratio of
two counters (deadline misses per disk request, late presentations per
element), or a gauge floor/ceiling (cluster replication) — and the
:class:`SLOEngine` evaluates the whole catalog against a
:class:`~repro.obs.MetricsRegistry` whenever asked (the
:class:`~repro.watch.watchdog.Watchdog` asks on its virtual-time
cadence and at teardown).

Every objective normalizes to an **error-budget burn**: ``burn <= 1``
means the objective holds, ``burn > 1`` means the budget is spent, and
the magnitude says by how much.  Specs carry an SLO *class* (latency,
deadline, qos, capacity) so a scenario can report worst-case burn per
class — the per-class accountability the distributed-delivery setting
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import WatchError
from repro.obs.metrics import MetricsRegistry

#: objective kinds an SLOSpec may use.
KINDS = ("histogram-quantile", "ratio", "counter-max", "gauge-max", "gauge-min")

#: burn assigned to a zero-budget objective that is violated (and to a
#: floor objective measured at zero).  Finite so reports stay strict
#: JSON; far enough above 1 to be unmistakable.
BURN_BLOWN = 1000.0


@dataclass(frozen=True, slots=True)
class SLOSpec:
    """One service-level objective over one instrument.

    * ``histogram-quantile`` — ``percentile(quantile)`` of histogram
      ``metric`` must stay <= ``target``;
    * ``ratio`` — counter ``metric`` / counter ``denominator`` must stay
      <= ``target`` (a budget, e.g. 5% deadline misses);
    * ``counter-max`` — counter ``metric`` must stay <= ``target``;
    * ``gauge-max`` / ``gauge-min`` — gauge ``metric`` must stay
      <= / >= ``target``.

    ``hard=True`` marks the objective as a hard failure condition: the
    watchdog dumps a postmortem bundle the first time it burns past 1.
    """

    name: str
    kind: str
    metric: str
    target: float
    denominator: Optional[str] = None
    quantile: float = 95.0
    klass: str = "qos"
    hard: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise WatchError(
                f"SLO {self.name!r}: kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.kind == "ratio" and not self.denominator:
            raise WatchError(f"SLO {self.name!r}: ratio needs a denominator metric")
        if self.kind == "gauge-min" and self.target <= 0:
            raise WatchError(f"SLO {self.name!r}: a floor target must be positive")
        if self.kind != "gauge-min" and self.target < 0:
            raise WatchError(f"SLO {self.name!r}: target must be >= 0")


@dataclass(slots=True)
class SLOResult:
    """One evaluation of one spec: the measured value and its burn."""

    spec: SLOSpec
    value: float
    burn: float

    @property
    def ok(self) -> bool:
        return self.burn <= 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo": self.spec.name,
            "class": self.spec.klass,
            "kind": self.spec.kind,
            "metric": self.spec.metric,
            "target": self.spec.target,
            "value": round(self.value, 6),
            "burn": round(self.burn, 4),
            "ok": self.ok,
            "hard": self.spec.hard,
        }


def _burn_ceiling(value: float, target: float) -> float:
    """Burn for a "stay below target" objective."""
    if target > 0:
        return value / target
    return 0.0 if value <= 0 else BURN_BLOWN


def _burn_floor(value: float, target: float) -> float:
    """Burn for a "stay at or above target" objective."""
    if value >= target:
        return target / value if value > 0 else 0.0
    return BURN_BLOWN if value <= 0 else target / value


class SLOEngine:
    """Evaluates an SLO catalog against one metrics registry."""

    def __init__(self, metrics: MetricsRegistry,
                 specs: Iterable[SLOSpec] = ()) -> None:
        self.metrics = metrics
        self.specs: List[SLOSpec] = list(specs)
        names = [s.name for s in self.specs]
        if len(names) != len(set(names)):
            raise WatchError(f"duplicate SLO names in catalog: {sorted(names)}")

    # -- evaluation --------------------------------------------------------
    def _measure(self, spec: SLOSpec, instruments: Mapping) -> float:
        inst = instruments.get(spec.metric)
        if spec.kind == "histogram-quantile":
            if inst is None or getattr(inst, "count", 0) == 0:
                return 0.0
            return float(inst.percentile(spec.quantile))
        if spec.kind == "ratio":
            num = float(getattr(inst, "value", 0) or 0)
            den_inst = instruments.get(spec.denominator)
            den = float(getattr(den_inst, "value", 0) or 0)
            return num / den if den > 0 else 0.0
        if spec.kind == "counter-max":
            return float(getattr(inst, "value", 0) or 0)
        # gauge-max / gauge-min
        return float(getattr(inst, "value", 0) or 0)

    def evaluate_one(self, spec: SLOSpec,
                     instruments: Optional[Mapping] = None) -> SLOResult:
        """Evaluate one spec against ``instruments``: a table the caller
        settled at this instant, or (by default) one settled here."""
        if instruments is None:
            instruments = self.metrics.settled()
        value = self._measure(spec, instruments)
        if spec.kind == "gauge-min":
            burn = _burn_floor(value, spec.target)
        else:
            burn = _burn_ceiling(value, spec.target)
        return SLOResult(spec, value, burn)

    def evaluate(self,
                 instruments: Optional[Mapping] = None) -> List[SLOResult]:
        """Evaluate every spec, in catalog order, over one settled table."""
        if instruments is None:
            instruments = self.metrics.settled()
        return [self.evaluate_one(spec, instruments) for spec in self.specs]

    # -- reporting ---------------------------------------------------------
    @staticmethod
    def burn_by_class(results: Iterable[SLOResult]) -> Dict[str, float]:
        """Worst (largest) burn per SLO class."""
        worst: Dict[str, float] = {}
        for result in results:
            klass = result.spec.klass
            if result.burn > worst.get(klass, -1.0):
                worst[klass] = result.burn
        return {k: round(worst[k], 4) for k in sorted(worst)}

    @staticmethod
    def hard_failures(results: Iterable[SLOResult]) -> List[SLOResult]:
        return [r for r in results if r.spec.hard and not r.ok]

    def report(self) -> Dict[str, object]:
        """A plain-data evaluation report (JSON-serializable, sorted)."""
        results = self.evaluate()
        return {
            "slos": [r.to_dict() for r in results],
            "burn_by_class": self.burn_by_class(results),
            "violated": sorted(r.spec.name for r in results if not r.ok),
            "hard_failed": sorted(r.spec.name for r in self.hard_failures(results)),
        }


def default_slos(startup_p95_s: float = 0.25,
                 nodes_floor: Optional[float] = None,
                 cache_hit_floor: Optional[float] = None) -> Tuple[SLOSpec, ...]:
    """The stock SLO catalog over the repo-wide metric names.

    Session startup latency rides ``admission.queue_wait_s`` (the time a
    contract spends queued before its grant), the deadline-miss budget
    rides the disk scheduler's counters, interactive QoS rides the sink
    activities' late-presentation accounting, and the optional
    replication floor rides ``cluster.nodes_live``.  A cache-armed
    scenario passes ``cache_hit_floor`` (e.g. 0.9): the objective is
    expressed as a miss-*ratio* ceiling of ``1 - floor`` over the
    fleet-wide ``cache.misses`` / ``cache.lookups`` counters, so the
    stock ratio burn normalization applies unchanged.
    """
    specs = [
        SLOSpec("session-startup-latency", "histogram-quantile",
                "admission.queue_wait_s", startup_p95_s, quantile=95.0,
                klass="latency", hard=False,
                description="p95 admission queue wait per session start"),
        SLOSpec("deadline-miss-budget", "ratio",
                "storage.deadline_misses", 0.05,
                denominator="storage.disk_requests", klass="deadline",
                description="disk reads missing their presentation deadline"),
        SLOSpec("jitter-budget", "histogram-quantile",
                "stream.jitter_ms", 50.0, quantile=99.0,
                klass="latency",
                description="p99 inter-element presentation jitter"),
        SLOSpec("interactive-qos-violations", "ratio",
                "stream.late_presentations", 0.10,
                denominator="stream.elements_presented", klass="qos",
                description="late presentations per element presented"),
    ]
    if nodes_floor is not None:
        specs.append(SLOSpec("replication-floor", "gauge-min",
                             "cluster.nodes_live", nodes_floor,
                             klass="capacity", hard=True,
                             description="live storage nodes under the floor"))
    if cache_hit_floor is not None:
        if not 0.0 < cache_hit_floor < 1.0:
            raise WatchError(
                f"cache hit floor must be in (0, 1), got {cache_hit_floor}"
            )
        specs.append(SLOSpec("cache-hit-ratio", "ratio",
                             "cache.misses", round(1.0 - cache_hit_floor, 9),
                             denominator="cache.lookups", klass="capacity",
                             description="fleet-wide cache miss ratio "
                                         "(1 - hit floor)"))
    return tuple(specs)
