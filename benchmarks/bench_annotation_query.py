"""Annotation-query benchmark: index-backed vs sequential-scan execution.

Loads a seeded synthetic corpus (the full run is 10^6 annotations
across 2x10^3 values — the ROADMAP gate) into the typed annotation
store, then times the same temporal-query battery through both
execution paths.  Before any speed claim, two honesty gates must pass:

* **equivalence** — every query's index-path rows must be byte-identical
  (same rows, same order, same rendering) to its scan-path rows;
* **concurrency** — queries interleaved with seeded wait-die writer
  transactions stay correct: a younger writer hitting a transactional
  read's locks dies (aborts, retriable) instead of changing the track
  under it, and the index still agrees with the scan afterwards; a
  transaction that has moved and deleted rows finds them where it put
  them, by index as by scan.

Usage::

    python -m pytest benchmarks/bench_annotation_query.py -q  # the gate
    python benchmarks/bench_annotation_query.py               # full run

The gate test (>= 50x on the smoke corpus) re-measures up to 3 times
before failing so shared-CI noise dips don't flap the job (the pattern
from ``bench_herd_scale``).  The full run prints the table and renders
``benchmarks/results/annotation_query.txt``.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.annotations import (  # noqa: E402
    AQ,
    WINDOW_OPS,
    AnnotationJoin,
    AnnotationStore,
    AnnotationType,
    CorpusSpec,
    FieldSpec,
    load_corpus,
    run,
    run_join,
)
from repro.errors import LockTimeoutError  # noqa: E402
from repro.obs import scoped  # noqa: E402

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "annotation_query.txt"

FULL = CorpusSpec(seed=0, values=2000, annotations=1_000_000,
                  duration_s=600.0)
SMOKE = CorpusSpec(seed=0, values=400, annotations=120_000,
                   duration_s=600.0)

#: the acceptance gate: the index-backed battery must beat the scan
#: battery by at least this factor (the real margin is far beyond it).
SPEEDUP_GATE = 50.0
SMOKE_ATTEMPTS = 3

#: "value-00000" carries the corpus's viral share — the hot, deeply
#: annotated value a real workload would hammer.
HOT = "value-00000"


def battery(spec: CorpusSpec):
    """The timed queries: all five operators plus filtered variants.

    Every timed query is *selective* — pinned to a track with a
    temporal window — because those are the queries the planner routes
    to the index.  The broad unpinned shape (where the planner rightly
    picks the scan) is equivalence-checked separately in
    :func:`check_global`, untimed.
    """
    return [
        AQ.on(HOT, "audio").during(100.0, 130.0).named("hot-during"),
        AQ.on(HOT, "audio").overlaps(200.0, 201.0).named("hot-overlaps"),
        AQ.on(HOT, "audio").before(50.0).named("hot-before"),
        AQ.on(HOT, "audio").after(550.0).named("hot-after"),
        AQ.on(HOT, "audio").meets(300.0, 330.0).named("hot-meets"),
        AQ.on("value-00100", "video").during(0.0, spec.duration_s)
          .named("cold-track-all"),
        AQ.on(HOT, "audio").of_type("word").where(label="word-003")
          .during(0.0, 300.0).named("hot-filtered"),
    ]


def check_global(store: AnnotationStore) -> bool:
    """The scan-shaped query, and one over every track for each other
    operator, both paths, row-for-row (untimed)."""
    scene = AQ.of_type("scene")
    return all(run(store, query, mode="index").rows
               == run(store, query, mode="scan").rows
               for query in (scene.during(290.0, 310.0).named("global-scene"),
                             scene.overlaps(290.0, 310.0), scene.meets(290.0, 310.0),
                             scene.before(20.0), scene.after(580.0), scene))


def build_store(spec: CorpusSpec) -> tuple:
    t0 = time.perf_counter()
    store = AnnotationStore()
    facts = load_corpus(store, spec)
    return store, facts, time.perf_counter() - t0


def _rows_digest(results) -> str:
    folded = hashlib.sha256()
    for result in results:
        for ann in result.rows:
            folded.update(ann.to_row().encode())
            folded.update(b"\n")
    return folded.hexdigest()


def run_battery(store: AnnotationStore, spec: CorpusSpec, mode: str) -> dict:
    queries = battery(spec)
    t0 = time.perf_counter()
    results = [run(store, query, mode=mode) for query in queries]
    dt = time.perf_counter() - t0
    return {
        "mode": mode,
        "wall_s": dt,
        "queries": len(queries),
        "queries_per_s": len(queries) / dt,
        "rows": sum(len(r.rows) for r in results),
        "digest": _rows_digest(results),
    }


def measure(store: AnnotationStore, spec: CorpusSpec,
            index_repeats: int = 3) -> dict:
    """Time both paths; equivalence is asserted, not assumed.

    The index battery takes best-of-N (it is fast enough to jitter);
    the scan battery runs once (it is the slow, stable reference).
    """
    index = min((run_battery(store, spec, "index")
                 for _ in range(index_repeats)),
                key=lambda m: m["wall_s"])
    scan = run_battery(store, spec, "scan")
    return {
        "index": index,
        "scan": scan,
        "identical": index["digest"] == scan["digest"]
        and index["rows"] == scan["rows"],
        "speedup": scan["wall_s"] / index["wall_s"],
    }


# -- correctness under concurrent wait-die writers ------------------------
def check_concurrency(store: AnnotationStore, spec: CorpusSpec,
                      seed: int = 0, writers: int = 40) -> dict:
    """Seeded writers interleaved with queries, plus the wait-die probe."""
    rng = random.Random(f"annotation-bench:{seed}")
    probe = AQ.on(HOT, "audio").during(100.0, 130.0)
    commits = 0
    added = []
    agree = True
    for i in range(writers):
        start = rng.uniform(0.0, spec.duration_s - 1.0)
        added.append(store.annotate(HOT, "audio", "word", start, start + 0.5,
                                    {"label": f"bench-{i:03d}"}))
        commits += 1
        if len(added) > 3 and rng.random() < 0.3:
            store.remove(added.pop(rng.randrange(len(added))))
            commits += 1
        if i % 10 == 9:
            agree = agree and (run(store, probe, mode="index").rows
                               == run(store, probe, mode="scan").rows)
    store.track_index(HOT, "audio").check_invariants()

    # The wait-die probe: an older reader's whole-track read holds SHARED
    # locks (sentinel + every row it read); a younger writer must die.
    reader_tx = store.db.begin()
    track = AQ.on(HOT, "audio")
    read = run(store, track, mode="index", tx=reader_tx).rows
    writer_tx = store.db.begin()
    died = False
    try:
        store.annotate(HOT, "audio", "word", 0.25, 0.75,
                       {"label": "too-young"}, tx=writer_tx)
    except LockTimeoutError as error:
        died = not error.should_retry
        writer_tx.abort()
    # The aborted writer must have left the track as the reader read it.
    scan_ok = (len(read) == store.track_stats(HOT, "audio").count
               and run(store, track, mode="index", tx=reader_tx).rows == read)
    reader_tx.commit()
    store.track_index(HOT, "audio").check_invariants()
    # After the reader releases its locks the (new, still younger than
    # nothing) writer retries and goes through.
    store.annotate(HOT, "audio", "word", 0.25, 0.75, {"label": "retried"})
    agree = agree and (run(store, probe, mode="index").rows
                       == run(store, probe, mode="scan").rows)
    own = check_own_writes()
    return {
        "writer_commits": commits + 1,
        "waitdie_abort": died,
        "scan_survived": scan_ok,
        "agree_after_writes": agree,
        "own_writes_seen": own,
        "ok": died and scan_ok and agree and own,
    }


def check_own_writes() -> bool:
    """A transaction moves one row of a window elsewhere and deletes
    another: by index as by scan, its reads find the moved row where it
    put it and neither in the window, and the abort leaves the window as
    it was.  On a small corpus of its own."""
    store = AnnotationStore()
    load_corpus(store, CorpusSpec(seed=0, values=8, annotations=4_000,
                                  duration_s=600.0))
    probe = AQ.on(HOT, "audio").during(100.0, 200.0)
    before = run(store, probe, mode="index").rows
    tx = store.db.begin()
    moved, gone = before[0], before[1]
    tx.update(moved.oid, start=500.25, end=500.75)
    tx.delete(gone.oid)
    there = AQ.of_type(moved.atype).overlaps(500.0, 501.0)
    reads = [(run(store, query, mode="index", tx=tx).rows,
              run(store, query, mode="scan", tx=tx).rows)
             for query in (probe, there)]
    tx.abort()
    (window, window_scan), (elsewhere, elsewhere_scan) = reads
    return (window == window_scan and elsewhere == elsewhere_scan
            and {moved.oid, gone.oid}.isdisjoint(a.oid for a in window)
            and moved.oid in [a.oid for a in elsewhere]
            and run(store, probe, mode="index").rows == before)


def check_join(store: AnnotationStore) -> bool:
    """A track join under each relation, both paths, row-for-row."""
    return all(
        run_join(store, join, mode="index").rows
        == run_join(store, join, mode="scan").rows
        for join in (AnnotationJoin(
            AQ.on(HOT, "audio").of_type("word").during(100.0, 120.0),
            relation, AQ.on(HOT, "audio").of_type("turn"))
            for relation in sorted(WINDOW_OPS)))


def check_list_payloads() -> bool:
    """A payload field that holds a list, which no payload table can
    code, answered by index as by scan on a small store of its own."""
    store = AnnotationStore()
    store.define_type(AnnotationType("shot", (FieldSpec("tags", list),)))
    for n in range(40):
        store.annotate("clip", "video", "shot", float(n), n + 1.5,
                       {"tags": ["wide", "close"][n % 3 // 2:]})
    on = AQ.on("clip", "video")
    return all(run(store, query, mode="index").rows
               == run(store, query, mode="scan").rows
               for query in (on.where(tags=["close"]).during(5.0, 30.0),
                             on.where(tags=["wide", "close"]).overlaps(
                                 0.0, 12.0)))


def print_table(pair: dict, build_s: float, facts: dict,
                title: str) -> None:
    print(f"== {title}")
    print(f"   corpus    {facts['annotations']:>10,} annotations, "
          f"{facts['values']:,} values, {facts['tracks']:,} tracks, "
          f"built in {build_s:.2f}s")
    for mode in ("index", "scan"):
        m = pair[mode]
        print(f"   {mode:<9} {m['queries']} queries in {m['wall_s']:.4f}s "
              f"= {m['queries_per_s']:>10,.1f} queries/s "
              f"({m['rows']:,} rows)")
    print(f"   identical {pair['identical']}   "
          f"speedup {pair['speedup']:,.1f}x (gate >= {SPEEDUP_GATE:.0f}x)")


def test_annotation_query_gate() -> None:
    """The gate: equivalence + concurrency must hold and the speedup
    must clear the gate; re-measure before failing so shared-machine
    noise dips don't flap the job."""
    with scoped(tracing=False):
        store, facts, build_s = build_store(SMOKE)
        concurrency = check_concurrency(store, SMOKE)
        assert concurrency["ok"], concurrency
        assert check_join(store), "index and scan joins diverge"
        assert check_global(store), "index and scan global queries diverge"
        assert check_list_payloads(), "index and scan diverge on a list payload"
        for attempt in range(1, SMOKE_ATTEMPTS + 1):
            pair = measure(store, SMOKE, index_repeats=2)
            print_table(pair, build_s, facts,
                        f"annotation-query gate (attempt "
                        f"{attempt}/{SMOKE_ATTEMPTS})")
            assert pair["identical"], "index and scan rows diverge"
            if pair["speedup"] >= SPEEDUP_GATE:
                break
    assert pair["speedup"] >= SPEEDUP_GATE, (
        f"speedup {pair['speedup']:,.1f}x below {SPEEDUP_GATE:.0f}x across "
        f"{SMOKE_ATTEMPTS} attempts")


def main() -> int:
    """The full-scale run: print the table and, when every correctness
    check holds, write the results file."""
    with scoped(tracing=False):
        store, facts, build_s = build_store(FULL)
        pair = measure(store, FULL)
        print_table(pair, build_s, facts,
                    "annotation query (index vs sequential scan)")
        concurrency = check_concurrency(store, FULL)
        join_ok = check_join(store)
        global_ok = check_global(store) and check_list_payloads()
    print(f"   concurrency {concurrency}")
    print(f"   join_identical {join_ok}   global_identical {global_ok}")
    if not (pair["identical"] and concurrency["ok"] and join_ok
            and global_ok):
        return 1
    lines = [
        "annotation query — index-backed vs sequential-scan execution",
        f"corpus: {facts['annotations']:,} annotations / "
        f"{facts['values']:,} values / {facts['tracks']:,} tracks "
        f"(built in {build_s:.2f}s)",
        f"index  {pair['index']['queries']} queries  "
        f"{pair['index']['wall_s']:.4f}s  "
        f"{pair['index']['queries_per_s']:>10,.1f}/s",
        f"scan   {pair['scan']['queries']} queries  "
        f"{pair['scan']['wall_s']:.3f}s  "
        f"{pair['scan']['queries_per_s']:>10,.2f}/s",
        f"speedup {pair['speedup']:,.1f}x (gate >= {SPEEDUP_GATE:.0f}x), "
        f"identical rows: {pair['identical']}",
        f"concurrency: {concurrency['writer_commits']} writer commits, "
        f"wait-die abort: {concurrency['waitdie_abort']}, "
        f"agree after writes: {concurrency['agree_after_writes']}",
    ]
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
