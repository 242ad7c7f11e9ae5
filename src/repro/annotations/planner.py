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
  dearer than a scan touch).  Selectivity comes from each track's count,
  first start, max end and summed lengths, read straight off its index,
  under a uniform-start assumption; ``meets`` is priced as a thin
  equality slice.  A query over every track is priced from the store's
  summary rows in one numpy pass that gives the per-track loop's float.

A decision goes to the :mod:`repro.obs` DecisionLog (``kind="plan"``,
actor ``annotations.planner``) with both estimates when a query's
verdict is first taken or changes (a repeat logs nothing), so
``explain``-style tooling can show *why* a path was taken;
``annotations.plans_index`` / ``annotations.plans_scan`` count every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

import numpy as np

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
    """``min(1.0, max(0.0, fraction))`` (nan too), without two calls."""
    if fraction > 0.0:
        return fraction if fraction < 1.0 else 1.0
    return 0.0


def estimate_track_matches(count: int, min_start: float, max_end: float,
                           sum_len: float, op, lo: float,
                           hi: float) -> float:
    """Expected result rows from one track of ``count`` postings, from
    its first start, max end and summed lengths; uniform-start model."""
    if count == 0:
        return 0.0
    if op is None:
        return float(count)
    extent = max_end - min_start if max_end > min_start else 1e-9
    if op == "overlaps":
        # A window catches starts in [lo - avg_len, hi): widen by the
        # mean annotation length.
        avg_len = sum_len / count
        return count * _clamp((hi - lo + avg_len) / (extent + avg_len))
    if op == "during":
        return count * _clamp((hi - lo) / extent)
    if op == "before":
        return count * _clamp((lo - min_start) / extent)
    if op == "after":
        return count * _clamp((max_end - hi) / extent)
    if op == "meets":
        return max(1.0, count * MEETS_FRACTION)
    raise AnnotationError(f"unknown window operator {op!r}")


def _every_track_cost(rows: np.ndarray, op, lo: float, hi: float) -> float:
    """:func:`_index_cost` over every track's summary row at once, in
    :func:`estimate_track_matches`' operand order; the seek and emit terms
    are interleaved in the loop's order after a 0.0 and summed by
    ``np.add.accumulate``, which adds in sequence: the loop's float."""
    count, min_start, max_end, sum_len, log_n = rows[rows[:, 0] > 0].T
    if op is None:
        matches = count
    elif op == "meets":
        matches = np.maximum(1.0, count * MEETS_FRACTION)
    else:
        extent = np.where(max_end > min_start, max_end - min_start, 1e-9)
        if op == "overlaps":
            avg_len = sum_len / count
            fraction = (hi - lo + avg_len) / (extent + avg_len)
        elif op == "during":
            fraction = (hi - lo) / extent
        elif op == "before":
            fraction = (lo - min_start) / extent
        elif op == "after":
            fraction = (max_end - hi) / extent
        else:
            raise AnnotationError(f"unknown window operator {op!r}")
        matches = count * np.where(fraction > 0.0,
                                   np.minimum(fraction, 1.0), 0.0)
    terms = np.zeros(2 * len(count) + 1)
    terms[1::2] = C_SEEK * log_n
    terms[2::2] = C_EMIT * matches
    return float(np.add.accumulate(terms)[-1])


def _index_cost(store: AnnotationStore, query: AnnotationQuery,
                tracks) -> float:
    """Every candidate track priced in one pass over its index's four
    running summaries, or its summary row; an empty track adds nothing."""
    op, lo, hi = query.op, query.lo, query.hi
    if query.value_id is None and query.track is None:
        return _every_track_cost(store._router.summaries(), op, lo, hi)
    indexes = store._tracks
    cost = 0.0
    for key in tracks:
        index = indexes[key]
        count = len(index)
        if count:
            cost += C_SEEK * log2(count + 1)
            cost += C_EMIT * estimate_track_matches(
                count, index.min_start(), index.max_end(), index.sum_len,
                op, lo, hi)
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
    counter = store._m_plans.get(chosen)
    if counter is None:  # bound at first use: an unused mode stays unlisted
        counter = store._m_plans[chosen] = obs.metrics.counter(
            "annotations.plans_index" if chosen == "index" else "annotations.plans_scan")
    counter.inc()
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
