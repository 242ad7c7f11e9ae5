"""Named, seeded annotation-query scenarios for the CLI and CI.

Each scenario builds a fresh store, loads a pinned corpus, runs a
battery of temporal queries **three ways** — planner-chosen, forced
index, forced scan — and cross-checks that every way returned the
identical rows.  The returned facts are pure data (counts, plan modes,
corpus fingerprint, agreement flags): no wall-clock anywhere, so two
runs of the same seed print byte-identical output — the contract
``tests/golden/trace_hashes.json`` pins.

* ``speech`` — Cassidy & Bird's running examples: words during a
  window, phones overlapping it, speaker turns before/after a cut
  point, and the classic track join "words during speaker turns".
* ``dance`` — the dance-video flavor: gestures overlapping scene
  sections, payload-filtered retrieval, and exact ``meets`` cuts laid
  down by hand through the transactional write path.
* ``planner`` — the cost model on stage: the same store answering a
  pinned narrow window (index wins) and an unpinned whole-extent
  predicate (scan wins), with both estimates in the facts.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.annotations.corpus import (CorpusSpec, corpus_fingerprint,
                                      load_corpus)
from repro.annotations.query import (AQ, AnnotationJoin, AnnotationQuery,
                                     run, run_join)
from repro.annotations.store import AnnotationStore
from repro.obs import current

__all__ = ["SCENARIOS", "dance", "planner", "speech", "summary_line"]


def _run_checked(store: AnnotationStore, queries: List[AnnotationQuery],
                 joins: List[AnnotationJoin], mode: str,
                 facts: Dict[str, object]) -> None:
    """Run the battery in ``mode``, cross-check against both forced paths."""
    plans: List[str] = []
    agree = True
    for i, query in enumerate(queries, start=1):
        chosen = run(store, query, mode=mode)
        index_rows = run(store, query, mode="index").rows
        scan_rows = run(store, query, mode="scan").rows
        agree = agree and chosen.rows == index_rows == scan_rows
        plans.append(chosen.plan.mode)
        facts[f"q{i}_rows"] = len(chosen.rows)
    for i, join in enumerate(joins, start=1):
        chosen = run_join(store, join, mode=mode)
        index_rows = run_join(store, join, mode="index").rows
        scan_rows = run_join(store, join, mode="scan").rows
        agree = agree and chosen.rows == index_rows == scan_rows
        plans.append(chosen.plan.mode)
        facts[f"join{i}_pairs"] = len(chosen.rows)
    facts["plans"] = ",".join(plans)
    facts["all_agree"] = agree
    facts["queries"] = len(queries) + len(joins)


def _finish(facts: Dict[str, object]) -> Dict[str, object]:
    metrics = current().metrics
    facts["plans_index"] = metrics.counter("annotations.plans_index").value
    facts["plans_scan"] = metrics.counter("annotations.plans_scan").value
    return facts


def speech(seed: int = 0, mode: str = "auto") -> Dict[str, object]:
    """Annotated-speech retrieval: window predicates plus the turn join."""
    store = AnnotationStore()
    spec = CorpusSpec(seed=seed, values=40, annotations=6000,
                      duration_s=120.0)
    facts: Dict[str, object] = dict(load_corpus(store, spec))
    facts["fingerprint"] = corpus_fingerprint(spec)[:12]
    # Hand-laid exact cuts so ``meets`` has guaranteed hits: a turn
    # ending exactly where the query window opens, through the
    # transactional write path (sentinel + wait-die discipline).
    store.annotate("value-00000", "audio", "turn", 30.0, 45.0,
                   {"label": "turn-live"})
    store.annotate("value-00000", "audio", "turn", 45.0, 60.0,
                   {"label": "turn-live"})
    value, track = "value-00000", "audio"
    queries = [
        AQ.on(value, track).of_type("word").during(10.0, 40.0),
        AQ.on(value, track).of_type("phone").overlaps(20.0, 22.0),
        AQ.on(value, track).of_type("turn").before(45.0),
        AQ.on(value, track).after(110.0),
        AQ.on(value, track).meets(45.0, 60.0),
        AQ.of_type("scene").during(0.0, 15.0),
    ]
    joins = [AnnotationJoin(AQ.on(value, track).of_type("word"), "during",
                            AQ.on(value, track).of_type("turn"))]
    _run_checked(store, queries, joins, mode, facts)
    return _finish(facts)


def dance(seed: int = 0, mode: str = "auto") -> Dict[str, object]:
    """Dance-video semantics: gestures vs scenes, payload filters, cuts."""
    store = AnnotationStore()
    spec = CorpusSpec(seed=seed + 17, values=30, annotations=5000,
                      duration_s=180.0, tracks=("video", "motion"))
    facts: Dict[str, object] = dict(load_corpus(store, spec))
    facts["fingerprint"] = corpus_fingerprint(spec)[:12]
    store.annotate("value-00001", "video", "scene", 60.0, 90.0,
                   {"label": "scene-live"})
    store.annotate("value-00001", "video", "gesture", 55.0, 60.0,
                   {"label": "gesture-cut"})
    value = "value-00001"
    queries = [
        AQ.on(value, "video").of_type("gesture").overlaps(60.0, 90.0),
        AQ.on(value).of_type("scene").during(30.0, 170.0),
        AQ.on(value, "video").meets(60.0, 90.0),
        AQ.of_type("gesture").where(label="gesture-003").during(0.0, 180.0),
        AQ.on(value, "motion").before(20.0),
    ]
    joins = [AnnotationJoin(AQ.on(value, "video").of_type("gesture"),
                            "overlaps",
                            AQ.on(value, "video").of_type("scene"))]
    _run_checked(store, queries, joins, mode, facts)
    return _finish(facts)


def planner(seed: int = 0, mode: str = "auto") -> Dict[str, object]:
    """The cost model choosing differently for narrow vs broad queries."""
    store = AnnotationStore()
    spec = CorpusSpec(seed=seed + 31, values=60, annotations=12000,
                      duration_s=300.0)
    facts: Dict[str, object] = dict(load_corpus(store, spec))
    facts["fingerprint"] = corpus_fingerprint(spec)[:12]
    narrow = AQ.on("value-00000", "audio").of_type("word").during(10.0, 14.0)
    broad = AQ.of_type("word").overlaps(0.0, 300.0)
    queries = [narrow, broad]
    _run_checked(store, queries, [], mode, facts)
    narrow_plan = run(store, narrow).plan
    broad_plan = run(store, broad).plan
    facts["narrow_mode"] = narrow_plan.mode
    facts["narrow_est_index"] = round(narrow_plan.est_index, 1)
    facts["narrow_est_scan"] = round(narrow_plan.est_scan, 1)
    facts["broad_mode"] = broad_plan.mode
    facts["broad_est_index"] = round(broad_plan.est_index, 1)
    facts["broad_est_scan"] = round(broad_plan.est_scan, 1)
    return _finish(facts)


SCENARIOS: Dict[str, Callable[..., Dict[str, object]]] = {
    "speech": speech,
    "dance": dance,
    "planner": planner,
}


def summary_line(name: str, facts: Dict[str, object]) -> str:
    """One deterministic line per run (greppable, diffable in CI)."""
    return (f"query {name}: n={facts['annotations']} "
            f"queries={facts['queries']} plans={facts['plans']} "
            f"agree={facts['all_agree']}")
