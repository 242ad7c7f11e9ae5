"""``repro.annotations`` — typed annotations + temporal queries over the db.

The subsystem that makes AV values a *database* in the paper's sense:
time-anchored content you can query, not just media you can play.

* :mod:`~repro.annotations.model` — annotation types, payload schemas,
  the five window predicates over half-open intervals;
* :mod:`~repro.annotations.intervals` — the columnar, covering per-track
  index: sorted parallel columns, the rows among them, in max-end blocks;
* :mod:`~repro.annotations.store` — persistence through the db tier's
  transactions, per-track indexes kept in lockstep with commits, bulk
  corpus loading, the sentinel-lock concurrency protocol;
* :mod:`~repro.annotations.query` — the declarative query surface
  (temporal predicates, type/payload filters, track joins) with
  equivalence-tested index and scan execution paths;
* :mod:`~repro.annotations.planner` — the cost model choosing between
  them, decisions logged to :mod:`repro.obs`;
* :mod:`~repro.annotations.corpus` — seeded million-row corpora;
* :mod:`~repro.annotations.scenarios` — the ``python -m repro query``
  scenario registry.
"""

from repro.annotations.corpus import (CorpusSpec, corpus_fingerprint,
                                      default_types, generate_rows,
                                      load_corpus)
from repro.annotations.intervals import IntervalIndex
from repro.annotations.model import (WINDOW_OPS, Annotation, AnnotationType,
                                     FieldSpec)
from repro.annotations.planner import PlanDecision, plan, plan_join
from repro.annotations.query import (AQ, AnnotationJoin, AnnotationQuery,
                                     AnnotationRows, QueryResult, run,
                                     run_join)
from repro.annotations.scenarios import SCENARIOS, summary_line
from repro.annotations.store import AnnotationStore, TrackStats, track_sentinel

__all__ = [
    "AQ",
    "Annotation",
    "AnnotationJoin",
    "AnnotationQuery",
    "AnnotationRows",
    "AnnotationStore",
    "AnnotationType",
    "CorpusSpec",
    "FieldSpec",
    "IntervalIndex",
    "PlanDecision",
    "QueryResult",
    "SCENARIOS",
    "TrackStats",
    "WINDOW_OPS",
    "corpus_fingerprint",
    "default_types",
    "generate_rows",
    "load_corpus",
    "plan",
    "plan_join",
    "run",
    "run_join",
    "summary_line",
    "track_sentinel",
]
