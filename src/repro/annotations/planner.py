"""Cost-based index-vs-scan planning for annotation queries.

The planner prices both execution paths with a deliberately simple unit
model — row touches, weighted by what each path does per touch — and
picks the cheaper one.  It never affects *what* a query returns (the
paths are equivalence-tested), only how fast, which is what lets the
cost model stay an estimate:

* **scan**: every annotation in the store is fetched and run through
  the full predicate: ``N`` touches at unit cost.
* **index**: for each candidate track, finding the window's two ends
  by bisection (``C_SEEK * log2(n + 1)``) plus the estimated result
  rows, each costing ``C_EMIT`` (object fetch + residual filter —
  dearer than a scan touch).  Selectivity comes from per-track :class:`TrackStats`
  under a uniform-start assumption; ``meets`` is priced as a thin
  equality slice.

A decision goes to the :mod:`repro.obs` DecisionLog (``kind="plan"``,
actor ``annotations.planner``) with both estimates when a query's
verdict is first taken or changes (a repeat logs nothing), so
``explain``-style tooling can show *why* a path was taken;
``annotations.plans_index`` / ``annotations.plans_scan`` count every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from repro.annotations.query import (AnnotationJoin, AnnotationQuery,
                                     _candidate_tracks)
from repro.annotations.store import AnnotationStore
from repro.errors import AnnotationError

__all__ = ["PlanDecision", "estimate_track_matches", "plan", "plan_join"]

#: Cost of one halving step of a track's bisects, in scan-row units.
C_SEEK = 2.0
#: Cost of emitting one index-path row (fetch + residual), ditto.
C_EMIT = 1.5
#: Assumed selectivity of the ``meets`` equality slice.
MEETS_FRACTION = 0.01


@dataclass(frozen=True)
class PlanDecision:
    """The planner's verdict for one query (or one join's right side)."""

    mode: str           # "index" | "scan"
    est_index: float    # modeled index-path cost, scan-row units
    est_scan: float     # modeled scan-path cost, ditto
    tracks: int         # candidate tracks the index path would visit
    forced: bool        # mode was dictated by the caller
    subject: str        # the query description the decision was logged under


def _clamp(fraction: float) -> float:
    return min(1.0, max(0.0, fraction))


def estimate_track_matches(stats, op, lo: float, hi: float) -> float:
    """Expected result rows from one track, uniform-start model."""
    if stats.count == 0:
        return 0.0
    if op is None:
        return float(stats.count)
    extent = stats.extent or 1e-9
    if op == "overlaps":
        # A window catches starts in [lo - avg_len, hi): widen by the
        # mean annotation length.
        return stats.count * _clamp((hi - lo + stats.avg_len)
                                    / (extent + stats.avg_len))
    if op == "during":
        return stats.count * _clamp((hi - lo) / extent)
    if op == "before":
        return stats.count * _clamp((lo - stats.min_start) / extent)
    if op == "after":
        return stats.count * _clamp((stats.max_end - hi) / extent)
    if op == "meets":
        return max(1.0, stats.count * MEETS_FRACTION)
    raise AnnotationError(f"unknown window operator {op!r}")


def _index_cost(store: AnnotationStore, query: AnnotationQuery,
                tracks) -> float:
    cost = 0.0
    for value_id, track in tracks:
        stats = store.track_stats(value_id, track)
        cost += C_SEEK * log2(stats.count + 1)
        cost += C_EMIT * estimate_track_matches(stats, query.op,
                                                query.lo, query.hi)
    return cost


def _decide(store: AnnotationStore, subject: str, est_index: float,
            est_scan: float, n_tracks: int, mode: str) -> PlanDecision:
    if mode not in ("auto", "index", "scan"):
        raise AnnotationError(
            f"unknown planner mode {mode!r}; pick auto, index or scan")
    forced = mode != "auto"
    chosen = mode if forced else ("index" if est_index <= est_scan
                                  else "scan")
    decision = PlanDecision(chosen, est_index, est_scan, n_tracks,
                            forced, subject)
    obs = store.obs
    verdict = (chosen, forced, n_tracks)
    if obs.decisions.enabled and store._verdicts.get(subject) != verdict:
        store._verdicts[subject] = verdict
        obs.decisions.emit("plan", subject, actor="annotations.planner",
                           mode=chosen, est_index=round(est_index, 1),
                           est_scan=round(est_scan, 1), tracks=n_tracks,
                           forced=forced)
    obs.metrics.counter(f"annotations.plans_{chosen}").inc()
    return decision


def plan(store: AnnotationStore, query: AnnotationQuery,
         mode: str = "auto") -> PlanDecision:
    """Price both paths for one query and pick (or obey) a mode."""
    tracks = _candidate_tracks(store, query)
    est_scan = float(len(store))
    est_index = _index_cost(store, query, tracks)
    return _decide(store, query.describe(), est_index, est_scan,
                   len(tracks), mode)


def plan_join(store: AnnotationStore, join: AnnotationJoin, n_lefts: int,
              mode: str = "auto") -> PlanDecision:
    """Price the right side of a join: per-left probes vs one full scan.

    The index path pays one pruned probe per left row; the scan path
    pays one full scan (the nested loop's pair checks are priced into
    ``C_EMIT``-free cheap compares and ignored, which biases toward
    scan only when the left side is large — the conservative direction).
    """
    tracks = _candidate_tracks(store, join.right)
    est_scan = float(len(store))
    per_probe = 0.0
    for value_id, track in tracks:
        stats = store.track_stats(value_id, track)
        per_probe += C_SEEK * log2(stats.count + 1)
        # A probe window is one left interval: model it as an average
        # annotation-length window of overlaps.
        width = stats.avg_len
        extent = stats.extent or 1e-9
        per_probe += C_EMIT * stats.count * _clamp(
            (2 * width) / (extent + width) if width else 1.0 / extent)
    est_index = n_lefts * per_probe
    return _decide(store, join.describe(), est_index, est_scan,
                   len(tracks), mode)
