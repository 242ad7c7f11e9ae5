"""The annotation store and temporal query engine.

Covers the typed store over the db tier, the columnar interval index
against a brute-force baseline and a stateful sorted-list model, lazy
result rows, index/scan equivalence
(example-based and property-based across all five operators), the
cost-based planner and its DecisionLog trail, track joins, bulk
loading, corpus determinism, and the wait-die writer-vs-scan
regression.
"""

import dataclasses
import gc
import hashlib
import itertools
import math
import random
import weakref

import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule, run_state_machine_as_test)

from repro.annotations import (
    AQ,
    Annotation,
    AnnotationJoin,
    AnnotationRows,
    AnnotationStore,
    AnnotationType,
    CorpusSpec,
    FieldSpec,
    IntervalIndex,
    WINDOW_OPS,
    corpus_fingerprint,
    generate_rows,
    load_corpus,
    plan,
    run,
    run_join,
    track_sentinel,
)
from repro.annotations import intervals
from repro.db.objects import OID
from repro.db.schema import AttributeSpec, ClassDef
from repro.errors import AnnotationError, LockTimeoutError, QueryError
from repro.obs import scoped


WORD = AnnotationType("word", (FieldSpec("label", str, required=True),
                               FieldSpec("confidence", float)))
TURN = AnnotationType("turn", (FieldSpec("label", str, required=True),))


def fresh_store():
    store = AnnotationStore()
    store.define_type(WORD)
    store.define_type(TURN)
    return store


# -- model ----------------------------------------------------------------
class TestModel:
    def test_payload_canonicalized_and_validated(self):
        canonical = WORD.validate_payload(
            {"label": "hi", "confidence": 0.9})
        assert canonical == (("confidence", 0.9), ("label", "hi"))
        with pytest.raises(AnnotationError, match="requires"):
            WORD.validate_payload({"confidence": 0.9})
        with pytest.raises(AnnotationError, match="no payload field"):
            WORD.validate_payload({"label": "hi", "nope": 1})
        with pytest.raises(AnnotationError, match="wants str"):
            WORD.validate_payload({"label": 7})

    def test_type_rejects_duplicate_fields(self):
        with pytest.raises(AnnotationError, match="repeats"):
            AnnotationType("bad", (FieldSpec("x"), FieldSpec("x")))

    def test_window_predicate_truth_table(self):
        # One interval, five operators, the documented semantics.
        s, e = 2.0, 4.0
        assert WINDOW_OPS["overlaps"](s, e, 3.0, 10.0)
        assert not WINDOW_OPS["overlaps"](s, e, 4.0, 10.0)  # half-open
        assert WINDOW_OPS["during"](s, e, 2.0, 4.0)
        assert not WINDOW_OPS["during"](s, e, 2.5, 10.0)
        assert WINDOW_OPS["before"](s, e, 4.0, 9.0)
        assert WINDOW_OPS["after"](s, e, 0.0, 2.0)
        assert WINDOW_OPS["meets"](s, e, 4.0, 9.0)
        assert WINDOW_OPS["meets"](s, e, 0.0, 2.0)
        assert not WINDOW_OPS["meets"](s, e, 0.0, 1.0)

    def test_to_row_is_stable(self):
        ann = Annotation(OID("Annotation", 3), "v", "audio", "word",
                         1.0, 2.5, (("label", "hi"),))
        assert ann.to_row() == "v/audio [1.000000,2.500000) word label='hi'"

    def test_from_object_equals_constructor(self):
        store = fresh_store()
        payload = (("confidence", 0.5), ("label", "hi"))
        bare = store.annotate("v", "audio", "turn", 0.0, 9.0, {"label": "a"})
        rich = store.annotate("v", "audio", "word", 1.0, 2.5, dict(payload))
        for ref, built in [
                (bare, Annotation(bare, "v", "audio", "turn", 0.0, 9.0,
                                  (("label", "a"),))),
                (rich, Annotation(rich, "v", "audio", "word", 1.0, 2.5,
                                  payload))]:
            ann = Annotation.from_object(store.db.get(ref))
            for field in dataclasses.fields(Annotation):
                assert getattr(ann, field.name) == getattr(built, field.name)
            assert ann == built and hash(ann) == hash(built)
            assert ann.sort_key == built.sort_key and repr(ann) == repr(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                ann.start = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                del ann.payload


# -- interval index vs brute force ---------------------------------------
class TestIntervalIndex:
    def _build(self, intervals):
        index = IntervalIndex("Annotation", "__interval__/t")
        rows = []
        for serial, (s, e) in enumerate(intervals):
            ref = OID("Annotation", serial)
            index.add(s, e, ref)
            rows.append((s, e, ref))
        return index, rows

    def test_rejects_degenerate_interval(self):
        index, _ = self._build([])
        with pytest.raises(AnnotationError, match="start < end"):
            index.add(2.0, 2.0, OID("Annotation", 1))

    @pytest.mark.parametrize("op", sorted(WINDOW_OPS))
    def test_matches_brute_force(self, op):
        rng = random.Random(f"intervals:{op}")
        intervals = [(s, s + rng.uniform(0.1, 20.0))
                     for s in (rng.uniform(0.0, 100.0) for _ in range(300))]
        index, rows = self._build(intervals)
        index.check_invariants()
        predicate = WINDOW_OPS[op]
        for lo, hi in [(0.0, 100.0), (10.0, 11.0), (50.0, 50.5),
                       (99.0, 120.0), (-5.0, 0.0)]:
            expected = sorted((s, e, ref.serial) for s, e, ref in rows
                              if predicate(s, e, lo, hi))
            got = [(key[0], key[1], oids[0].serial)
                   for key, oids in index.window(op, lo, hi)]
            assert got == expected, (op, lo, hi)

    def test_meets_hits_exact_endpoints(self):
        index, _ = self._build([(1.0, 3.0), (3.0, 5.0), (5.0, 7.0)])
        got = [key[:2] for key, _ in index.window("meets", 3.0, 5.0)]
        assert got == [(1.0, 3.0), (5.0, 7.0)]

    def test_results_ordered_by_start_end_serial(self):
        index, _ = self._build([(1.0, 9.0), (1.0, 2.0), (0.5, 4.0)])
        got = [key for key, _ in index.window("overlaps", 0.0, 10.0)]
        assert got == sorted(got)

    def test_mutation_invalidates_live_window(self):
        index, _ = self._build([(float(i), float(i) + 1.5)
                                for i in range(50)])
        walk = index.window("overlaps", 0.0, 100.0)
        next(walk)
        index.add(200.0, 201.0, OID("Annotation", 999))
        with pytest.raises(AnnotationError, match="mutated"):
            list(walk)

    @pytest.mark.parametrize("op", ["during", "overlaps"])
    def test_clear_and_reinsert_cannot_satisfy_a_live_walk(self, op):
        # A walk begun after k mutations must not pass its guard on a
        # tree cleared and rebuilt with exactly k inserts.
        intervals = [(float(i), float(i) + 1.5) for i in range(40)]
        index, rows = self._build(intervals)
        walk = index.window(op, 0.0, 100.0)
        next(walk)
        index.clear()
        assert len(index) == 0 and index.min_key() is None
        for s, e, ref in rows:
            index.add(s, e, ref)
        with pytest.raises((AnnotationError, QueryError), match="mutated"):
            next(walk)
        assert len(list(index.window(op, 0.0, 100.0))) == len(rows)


# -- interval index vs a sorted list, statefully ---------------------------
#: A coarse grid, so equal starts, equal ends and exact touches are common.
GRID = st.integers(0, 24).map(float)
MODEL_OPS = sorted(WINDOW_OPS) + ["contains", None]


def op_contains(s, e, lo, hi):
    """The index-only operator a ``during`` join probes with."""
    return s <= lo and e >= hi


class IntervalIndexMachine(RuleBasedStateMachine):
    """IntervalIndex against a sorted list of (start, end, serial).

    Blocks are shrunk to 8 postings so a few dozen rows cross splits and
    merges.  One walk may be live at a time; any rule may run between
    two of its ``next()`` calls, and once a write has happened the next
    step must raise.
    """

    index_class = IntervalIndex

    def __init__(self):
        super().__init__()
        self.saved = (intervals.BLOCK_CAPACITY, intervals._HALF)
        intervals.BLOCK_CAPACITY, intervals._HALF = 8, 4
        self.index = self.index_class("Annotation", "__interval__/model")
        self.rows = []  # sorted (start, end, serial)
        self.serials = itertools.count()
        self.walk = None  # (iterator, the keys it still owes)
        self.stale = False  # written to since the walk began?

    def teardown(self):
        intervals.BLOCK_CAPACITY, intervals._HALF = self.saved

    def _expected(self, op, lo, hi):
        if op is None:
            return list(self.rows)
        predicate = op_contains if op == "contains" else WINDOW_OPS[op]
        return [row for row in self.rows if predicate(row[0], row[1], lo, hi)]

    # -- writes ----------------------------------------------------------
    @rule(start=GRID, length=st.integers(1, 12), again=st.booleans())
    def add(self, start, length, again):
        row = (start, start + length, next(self.serials))
        ref = OID("Annotation", row[2])
        assert self.index.add(row[0], row[1], ref) is True
        self.rows.append(row)
        self.rows.sort()
        if again:  # the same posting twice is one posting
            assert self.index.add(row[0], row[1], ref) is False
        self.stale = True

    @rule(starts=st.lists(GRID, max_size=20))
    def extend(self, starts):
        rows = [(start, start + 1.5, next(self.serials)) for start in starts]
        self.index.extend([row[0] for row in rows], [row[1] for row in rows],
                          [OID("Annotation", row[2]) for row in rows])
        self.rows = sorted(self.rows + rows)
        self.stale = self.stale or bool(rows)

    @precondition(lambda self: self.rows)
    @rule(pick=st.integers(0, 10**6), run=st.integers(1, 12))
    def discard(self, pick, run):
        # A run of neighbours, so blocks thin out, merge and vanish.
        at = pick % len(self.rows)
        for start, end, serial in self.rows[at:at + run]:
            assert self.index.discard(start, end, OID("Annotation", serial))
        del self.rows[at:at + run]
        self.stale = True

    @rule(start=GRID)
    def discard_missing(self, start):
        mods = self.index._mods
        assert not self.index.discard(start, start + 0.25,
                                      OID("Annotation", 10**9))
        assert self.index._mods == mods  # not a write: walks stay live

    @rule()
    def clear(self):
        self.index.clear()
        self.rows = []
        self.stale = True

    # -- reads -----------------------------------------------------------
    @rule(op=st.sampled_from(MODEL_OPS), lo=GRID, width=st.integers(1, 12))
    def window(self, op, lo, width):
        expected = self._expected(op, lo, lo + width)
        got = list(self.index.window(op, lo, lo + width))
        assert [key for key, _ in got] == expected
        assert all(oids == (OID("Annotation", key[2]),) for key, oids in got)
        assert self.index.select(op, lo, lo + width) == \
            [OID("Annotation", serial) for _, _, serial in expected]

    @rule(lo=st.none() | GRID, hi=st.none() | GRID)
    def scan(self, lo, hi):
        expected = [row for row in self.rows
                    if (lo is None or row[0] >= lo)
                    and (hi is None or row[0] < hi)]
        assert [key for key, _ in self.index.scan(lo, hi)] == expected

    @rule(op=st.sampled_from(MODEL_OPS), lo=GRID, width=st.integers(1, 12))
    def open_walk(self, op, lo, width):
        self.walk = (self.index.window(op, lo, lo + width),
                     self._expected(op, lo, lo + width))
        self.stale = False

    @precondition(lambda self: self.walk is not None)
    @rule()
    def step_walk(self):
        walk, owed = self.walk
        if self.stale:
            try:
                next(walk, None)
            except AnnotationError as error:
                assert "mutated" in str(error)
            else:
                raise AssertionError("a walk outlived a write")
            self.walk = None
        elif owed:
            assert next(walk)[0] == owed.pop(0)
        else:
            with pytest.raises(StopIteration):
                next(walk)
            self.walk = None

    # -- after every step --------------------------------------------------
    @invariant()
    def agrees_with_the_list(self):
        index, rows = self.index, self.rows
        index.check_invariants()
        assert len(index) == len(rows)
        assert index.min_key() == (rows[0] if rows else None)
        assert index.min_start() == (rows[0][0] if rows else math.inf)
        assert index.max_end() == max((row[1] for row in rows),
                                      default=-math.inf)
        assert index.sum_len == pytest.approx(
            sum(end - start for start, end, _ in rows))
        at = 0
        for block in index._blocks:
            part = rows[at:at + len(block.oids)]
            assert block.max_end == max(row[1] for row in part)
            at += len(part)


#: 50 examples x 200 steps: the 10^4 steps ROADMAP item 2 asks of a model.
MODEL_SETTINGS = settings(max_examples=50, stateful_step_count=200)
TestIntervalIndexModel = IntervalIndexMachine.TestCase
TestIntervalIndexModel.settings = MODEL_SETTINGS


class _ClearResetsCounter(IntervalIndex):
    """The PR 13 bug, re-planted: ``clear()`` puts the counter back to 0."""

    def clear(self):
        super().clear()
        self._mods = 0


class _PlantedMachine(IntervalIndexMachine):
    index_class = _ClearResetsCounter


def test_model_finds_the_replanted_clear_bug():
    # Found, not minimized: shrinking costs far more than finding it,
    # and the shortest counterexample is known (open a walk, clear, step).
    with pytest.raises(AssertionError, match="outlived a write"):
        run_state_machine_as_test(_PlantedMachine, settings=settings(
            MODEL_SETTINGS, phases=[Phase.generate]))


# -- store ----------------------------------------------------------------
class TestStore:
    def test_annotate_read_remove_roundtrip(self):
        store = fresh_store()
        ref = store.annotate("v", "audio", "word", 1.0, 2.0,
                             {"label": "hi"})
        ann = store.get(ref)
        assert (ann.value_id, ann.track, ann.atype) == ("v", "audio", "word")
        assert ann.payload_dict == {"label": "hi"}
        assert len(store) == 1
        stats = store.track_stats("v", "audio")
        assert (stats.count, stats.min_start, stats.max_end) == (1, 1.0, 2.0)
        store.remove(ref)
        assert len(store) == 0
        assert store.track_stats("v", "audio").count == 0

    def test_rejects_unknown_type_and_bad_interval(self):
        store = fresh_store()
        with pytest.raises(AnnotationError, match="unknown annotation type"):
            store.annotate("v", "audio", "nope", 1.0, 2.0)
        with pytest.raises(AnnotationError, match="start < end"):
            store.annotate("v", "audio", "word", 2.0, 2.0,
                           {"label": "x"})
        with pytest.raises(AnnotationError, match="already defined"):
            store.define_type(WORD)

    def test_oid_of_another_class_is_a_typed_error(self):
        store = fresh_store()
        store.db.define_class(ClassDef("Clip", attributes=[
            AttributeSpec("title", str, required=True)]))
        clip = store.db.insert("Clip", title="news")
        kept = store.annotate("v", "audio", "word", 1.0, 2.0, {"label": "a"})
        tx = store.db.begin()
        for call in (lambda: store.get(clip), lambda: store.remove(clip),
                     lambda: store.read(clip, tx)):
            with pytest.raises(AnnotationError, match=r"Clip:\d+ is a Clip"):
                call()
        tx.abort()
        assert store.db.exists(clip) and store.get(kept).start == 1.0

    @pytest.mark.parametrize("start, end", [
        (5.0, float("inf")), (float("-inf"), 5.0),
        (float("nan"), 5.0), (5.0, float("nan"))])
    def test_rejects_non_finite_endpoints(self, start, end):
        store = fresh_store()
        ref = store.annotate("v", "audio", "word", 1.0, 3.0, {"label": "a"})
        with pytest.raises(AnnotationError, match="finite"):
            store.annotate("v", "audio", "word", start, end, {"label": "x"})
        with pytest.raises(AnnotationError, match="finite"):
            store.bulk_load([("v", "audio", "word", start, end,
                              (("label", "x"),))])
        assert len(store) == 1
        store.remove(ref)
        store.annotate("v", "audio", "word", 2.0, 6.0, {"label": "b"})
        # An infinite row, once removed, used to leave inf - inf behind.
        assert store.track_stats("v", "audio").sum_len == 4.0

    def test_abort_rolls_back_index(self):
        store = fresh_store()
        store.annotate("v", "audio", "word", 1.0, 2.0, {"label": "keep"})
        tx = store.db.begin()
        store.annotate("v", "audio", "word", 5.0, 6.0, {"label": "drop"},
                       tx=tx)
        tx.abort()
        assert len(store) == 1
        assert store.track_stats("v", "audio").count == 1
        rows = run(store, AQ.on("v", "audio").overlaps(0.0, 10.0),
                   mode="index").rows
        assert [a.payload_dict["label"] for a in rows] == ["keep"]

    def test_scan_track_ordered_and_windowed(self):
        store = fresh_store()
        for s in (5.0, 1.0, 3.0):
            store.annotate("v", "audio", "word", s, s + 1.0,
                           {"label": f"w{s:.0f}"})
        assert [a.start for a in store.scan_track("v", "audio")] == \
            [1.0, 3.0, 5.0]
        assert [a.start for a in store.scan_track("v", "audio",
                                                  lo=2.0, hi=5.0)] == [3.0]

    def test_track_sentinel_is_stable_and_distinct(self):
        assert track_sentinel("v", "audio") == track_sentinel("v", "audio")
        assert track_sentinel("v", "audio") != track_sentinel("v", "video")


# -- wait-die: writers vs in-flight scans (the PR's locking regression) ---
class TestWaitDie:
    def test_younger_writer_dies_against_scan_locks(self):
        store = fresh_store()
        for s in range(10):
            store.annotate("v", "audio", "word", float(s), s + 0.5,
                           {"label": f"w{s}"})
        reader = store.db.begin()
        scan = store.scan_track("v", "audio", tx=reader)
        consumed = [next(scan) for _ in range(3)]

        writer = store.db.begin()  # younger than the reader
        with pytest.raises(LockTimeoutError) as exc:
            store.annotate("v", "audio", "word", 20.0, 21.0,
                           {"label": "young"}, tx=writer)
        assert exc.value.should_retry is False  # wait-die: younger dies
        writer.abort()

        # The aborted writer must not have corrupted the in-flight scan.
        rest = list(scan)
        assert [a.start for a in consumed + rest] == \
            [float(s) for s in range(10)]
        reader.commit()
        store.track_index("v", "audio").check_invariants()

        # A fresh (younger-than-nothing) retry goes through.
        store.annotate("v", "audio", "word", 20.0, 21.0,
                       {"label": "young"})
        assert store.track_stats("v", "audio").count == 11

    def test_older_scan_waits_out_younger_writer(self):
        store = fresh_store()
        store.annotate("v", "audio", "word", 1.0, 2.0, {"label": "a"})
        older = store.db.begin()
        younger = store.db.begin()
        # The younger writer gets in first and holds the sentinel X.
        store.annotate("v", "audio", "word", 3.0, 4.0,
                       {"label": "b"}, tx=younger)
        # The older scan conflicts but is told to WAIT (retry), not die.
        with pytest.raises(LockTimeoutError) as exc:
            list(store.scan_track("v", "audio", tx=older))
        assert exc.value.should_retry is True
        younger.commit()
        # Retrying after the younger commits sees both annotations.
        assert [a.start for a in store.scan_track("v", "audio",
                                                  tx=older)] == [1.0, 3.0]
        older.commit()


# -- queries: equivalence, filters, planner, joins ------------------------
def seeded_store(seed=0, n=400, values=3, duration=60.0):
    store = fresh_store()
    rng = random.Random(f"annq:{seed}")
    rows = []
    for _ in range(n):
        value = f"v{rng.randrange(values)}"
        track = rng.choice(("audio", "video"))
        atype = rng.choice(("word", "turn"))
        s = rng.uniform(0.0, duration)
        e = min(duration + 5.0, s + rng.uniform(0.1, 8.0))
        rows.append((value, track, atype, s, e,
                     (("label", f"{atype}-{rng.randrange(5)}"),)))
    store.bulk_load(rows)
    return store


class TestQueries:
    def test_index_and_scan_agree_on_examples(self):
        store = seeded_store()
        queries = [
            AQ.on("v0", "audio").during(10.0, 30.0),
            AQ.on("v0", "audio").overlaps(15.0, 15.5),
            AQ.on("v1", "video").before(20.0),
            AQ.on("v2", "audio").after(40.0),
            AQ.of_type("turn").during(0.0, 60.0),
            AQ.on("v0").overlaps(0.0, 60.0),           # all tracks of v0
            AQ.on("v0", "audio").of_type("word").where(label="word-1")
              .during(0.0, 60.0),
        ]
        for query in queries:
            index = run(store, query, mode="index")
            scan = run(store, query, mode="scan")
            assert index.rows == scan.rows, query.describe()
            assert index.rows == sorted(index.rows,
                                        key=lambda a: a.sort_key)

    def test_rows_are_a_read_only_sequence_hydrated_on_touch(self):
        store = seeded_store()
        query = AQ.on("v0", "audio").during(0.0, 60.0)
        rows = run(store, query, mode="index").rows
        scanned = run(store, query, mode="scan").rows
        assert isinstance(rows, AnnotationRows) and len(rows) > 10
        as_list = list(rows)
        assert all(isinstance(ann, Annotation) for ann in as_list)
        # Equal to a list and to the other path's rows, both ways round.
        assert rows == as_list and as_list == rows
        assert rows == scanned and scanned == rows
        assert not rows != as_list and rows != as_list[:-1]
        assert rows != tuple(as_list) and rows != as_list[::-1]
        # Indexing and slicing read like a list's.
        assert rows[0] == as_list[0] and rows[-1] == as_list[-1]
        assert rows[2:7] == as_list[2:7] and rows[::-3] == as_list[::-3]
        assert isinstance(rows[2:7], AnnotationRows)
        assert as_list[3] in rows and rows.index(as_list[3]) == 3
        assert list(reversed(rows)) == as_list[::-1]
        with pytest.raises(IndexError):
            rows[len(rows)]
        with pytest.raises(TypeError):
            rows[0] = as_list[1]
        with pytest.raises(TypeError):
            hash(rows)

    def test_a_row_outlives_its_annotation(self):
        store = fresh_store()
        ref = store.annotate("v", "audio", "word", 1.0, 2.0, {"label": "a"})
        before = store.get(ref)
        rows = run(store, AQ.on("v", "audio").overlaps(0.0, 5.0),
                   mode="index").rows
        store.remove(ref)
        assert len(store) == 0
        assert rows[0] == before and list(rows) == [before]

    def test_empty_results_are_equal_too(self):
        store = seeded_store()
        query = AQ.on("nope", "audio").during(0.0, 1.0)
        assert run(store, query, mode="index").rows == \
            run(store, query, mode="scan").rows == []

    def test_planner_prefers_index_for_narrow_pinned(self):
        with scoped(tracing=False) as obs:
            store = seeded_store(n=2000)
            narrow = plan(store, AQ.on("v0", "audio").during(10.0, 10.5))
            broad = plan(store, AQ.overlaps(0.0, 60.0))
            assert narrow.mode == "index" and not narrow.forced
            assert broad.mode == "scan"
            assert narrow.est_index < narrow.est_scan
            kinds = [e for e in obs.decisions.events if e.kind == "plan"]
            assert len(kinds) == 2
            assert kinds[0].actor == "annotations.planner"
            assert kinds[0].args["mode"] == "index"
            snapshot = obs.metrics.snapshot()
            assert snapshot["annotations.plans_index"] >= 1
            assert snapshot["annotations.plans_scan"] >= 1

    def test_forced_mode_is_obeyed_and_flagged(self):
        store = seeded_store()
        decision = plan(store, AQ.overlaps(0.0, 60.0), mode="index")
        assert decision.mode == "index" and decision.forced
        with pytest.raises(AnnotationError, match="unknown planner mode"):
            plan(store, AQ.overlaps(0.0, 60.0), mode="fast")

    def test_result_reports_mode_and_examined(self):
        store = seeded_store()
        result = run(store, AQ.on("v0", "audio").during(0.0, 60.0),
                     mode="scan")
        assert result.mode == "scan"
        assert result.examined == len(store)

    def test_join_paths_agree(self):
        store = seeded_store()
        for relation in sorted(WINDOW_OPS):
            join = AnnotationJoin(
                AQ.on("v0", "audio").of_type("word").during(0.0, 60.0),
                relation, AQ.on("v0", "audio").of_type("turn"))
            index = run_join(store, join, mode="index")
            scan = run_join(store, join, mode="scan")
            assert index.rows == scan.rows, relation
        with pytest.raises(AnnotationError, match="temporal"):
            AnnotationJoin(AQ.on("v0", "audio"), "during",
                           AQ.on("v0", "audio").during(0.0, 1.0))

    def test_transactional_query_locks_out_younger_writer(self):
        store = seeded_store(n=50, values=1)
        tx = store.db.begin()
        result = run(store, AQ.on("v0", "audio").during(0.0, 60.0),
                     mode="index", tx=tx)
        writer = store.db.begin()
        with pytest.raises(LockTimeoutError):
            store.annotate("v0", "audio", "word", 1.0, 2.0,
                           {"label": "x"}, tx=writer)
        writer.abort()
        tx.commit()
        assert result.rows == sorted(result.rows, key=lambda a: a.sort_key)


OPERATORS = sorted(WINDOW_OPS)


class TestEquivalenceProperty:
    """Satellite: randomized predicate mixes, all five operators —
    index and scan execution must return identical, deterministically
    ordered results."""

    @given(
        seed=st.integers(0, 2**16),
        predicates=st.lists(
            st.tuples(st.sampled_from(OPERATORS),
                      st.floats(0.0, 60.0, allow_nan=False),
                      st.floats(0.001, 20.0, allow_nan=False),
                      st.sampled_from([None, "v0", "v1"]),
                      st.sampled_from([None, "audio", "video"]),
                      st.sampled_from([None, "word", "turn"])),
            min_size=1, max_size=8),
    )
    @settings(max_examples=30)
    def test_index_scan_identical_across_mixes(self, seed, predicates):
        store = seeded_store(seed=seed % 7, n=150)
        for op, lo, width, value, track, atype in predicates:
            query = AQ
            if value is not None:
                query = query.on(value, track) if track else query.on(value)
            if atype is not None:
                query = query.of_type(atype)
            if op in ("before", "after"):
                query = getattr(query, op)(lo)
            else:
                query = getattr(query, op)(lo, lo + width)
            index = run(store, query, mode="index")
            scan = run(store, query, mode="scan")
            rows = [a.to_row() for a in index.rows]
            assert rows == [a.to_row() for a in scan.rows], query.describe()
            assert index.rows == sorted(index.rows,
                                        key=lambda a: a.sort_key)
            # Determinism: a rerun returns byte-identical rows.
            assert rows == [a.to_row()
                            for a in run(store, query, mode="index").rows]


# -- bulk loading and the corpus -----------------------------------------
class TestCorpus:
    def test_bulk_load_equals_transactional_loads(self):
        # Several tracks, interleaved, and a chunk smaller than the
        # input: the load spans five commits and one is partial.
        tracks = [("v", "audio"), ("v", "video"), ("w", "audio")]
        rows = [(*tracks[s % 3], "word", float(s), s + 1.0 + s % 4,
                 (("label", f"w{s}"),)) for s in range(40)]
        bulk = fresh_store()
        assert bulk.bulk_load(rows, chunk=9) == 40
        slow = fresh_store()
        oids = [slow.annotate(value, track, atype, s, e, dict(payload))
                for value, track, atype, s, e, payload in rows]
        assert bulk.db._store.all_oids() == oids
        assert len(bulk) == len(slow) == 40
        assert bulk.tracks() == slow.tracks() == sorted(tracks)
        for value, track in tracks:
            assert bulk.track_stats(value, track) == \
                slow.track_stats(value, track)
            bulk.track_index(value, track).check_invariants()
        for query in (AQ.on("v", "audio").overlaps(0.0, 100.0),
                      AQ.on("w").during(3.0, 30.0),
                      AQ.of_type("word").before(20.0)):
            assert [a.to_row() for a in run(bulk, query, mode="index").rows] \
                == [a.to_row() for a in run(slow, query, mode="index").rows]
        assert bulk.db._store.next_oid("Annotation") == \
            slow.db._store.next_oid("Annotation")

    def test_failed_bulk_load_leaves_the_store_consistent(self):
        store = fresh_store()
        good = [("v", ("audio", "video")[s % 2], "word", float(s), s + 1.0,
                 (("label", f"w{s}"),)) for s in range(10)]
        bad = ("v", "audio", "word", 5.0, 5.0, (("label", "zero"),))
        with pytest.raises(AnnotationError, match="start < end"):
            store.bulk_load(good + [bad], chunk=4)
        # Two whole chunks committed; the chunk with the bad row did not.
        assert len(store) == len(store.db) == 8
        assert store.tracks() == [("v", "audio"), ("v", "video")]
        assert sum(store.track_stats(*key).count
                   for key in store.tracks()) == 8
        query = AQ.on("v").overlaps(0.0, 100.0)
        assert len(run(store, query, mode="index").rows) == 8
        assert run(store, query, mode="index").rows == \
            run(store, query, mode="scan").rows
        # No serial was burnt on the rows that never committed.
        assert store.annotate("v", "audio", "word", 20.0, 21.0,
                              {"label": "next"}) == OID("Annotation", 9)
        with pytest.raises(AnnotationError, match="unknown annotation type"):
            store.bulk_load([("v", "audio", "nope", 0.0, 1.0, ())])
        assert len(store) == len(store.db) == 9

    @pytest.mark.parametrize("collecting", [True, False])
    def test_bulk_load_restores_the_collector_state(self, collecting):
        rows = [("v", "audio", "word", float(s), s + 1.0,
                 (("label", "x"),)) for s in range(10)]
        was_enabled = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            fresh_store().bulk_load(rows, chunk=4)
            assert gc.isenabled() is collecting
            with pytest.raises(AnnotationError):
                fresh_store().bulk_load(
                    rows + [("v", "audio", "word", 1.0, 1.0, ())], chunk=4)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_dropped_store_is_freed_without_the_collector(self):
        # AnnotationStore -> Database._derived -> router must not lead
        # back to the store: bulk_load pauses the collector, and a
        # caller that rebuilds a corpus would hold two at once.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            store = AnnotationStore()
            load_corpus(store, CorpusSpec(seed=1, values=4, annotations=200,
                                          duration_s=60.0))
            store.annotate("value-00000", "audio", "word", 1.0, 2.0,
                           {"label": "x"})
            alive = weakref.ref(store.db._store)
            del store
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_bulk_load_then_online_writes(self):
        store = fresh_store()
        store.bulk_load([("v", "audio", "word", float(s), s + 0.5,
                          (("label", "x"),)) for s in range(30)])
        store.annotate("v", "audio", "word", 7.25, 7.75, {"label": "new"})
        rows = run(store, AQ.on("v", "audio").during(7.0, 8.0),
                   mode="index").rows
        assert rows == run(store, AQ.on("v", "audio").during(7.0, 8.0),
                           mode="scan").rows
        assert {a.payload_dict["label"] for a in rows} == {"x", "new"}

    def test_generate_rows_is_seed_deterministic(self):
        spec = CorpusSpec(seed=5, values=6, annotations=300)
        first = list(generate_rows(spec))
        again = list(generate_rows(spec))
        assert first == again
        # Pinned at PR 13, when rows were assembled from numpy scalars.
        assert hashlib.sha256(repr(first).encode()).hexdigest() == (
            "415685721b1c89fd75865806fbf22bfb7032a5efc5f6f91ceb7f299f2c781b5c")
        assert corpus_fingerprint(spec) == (
            "3ef5798764fd342e7b1c1dc2bdee150a32e9fd985469371ab0e736693cfda8f6")
        other = CorpusSpec(seed=6, values=6, annotations=300)
        assert corpus_fingerprint(spec) != corpus_fingerprint(other)
        assert len(first) == 300

    def test_load_corpus_counts_and_agreement(self):
        store = AnnotationStore()
        spec = CorpusSpec(seed=2, values=8, annotations=500,
                          duration_s=60.0)
        facts = load_corpus(store, spec)
        assert facts["annotations"] == len(store) == 500
        query = AQ.on("value-00000", "audio").overlaps(0.0, 60.0)
        assert run(store, query, mode="index").rows == \
            run(store, query, mode="scan").rows


class TestScenarios:
    def test_speech_scenario_agrees_and_is_deterministic(self):
        from repro.annotations.scenarios import SCENARIOS, summary_line
        with scoped(tracing=False):
            first = SCENARIOS["speech"](seed=0)
        with scoped(tracing=False):
            again = SCENARIOS["speech"](seed=0)
        assert first == again
        assert first["all_agree"] is True
        assert "agree=True" in summary_line("speech", first)

    @pytest.mark.parametrize("name", ["dance", "planner"])
    def test_other_scenarios_agree(self, name):
        from repro.annotations.scenarios import SCENARIOS
        with scoped(tracing=False):
            facts = SCENARIOS[name](seed=0)
        assert facts["all_agree"] is True
