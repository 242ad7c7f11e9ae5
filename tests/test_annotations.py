"""The annotation store and temporal query engine.

Covers the typed store over the db tier, the columnar interval index
against a brute-force baseline and a stateful sorted-list model, lazy
result rows, index/scan equivalence
(example-based and property-based across all five operators), the
cost-based planner and its DecisionLog trail, track joins, bulk
loading, corpus determinism, and the wait-die writer-vs-reader
regression.
"""

import bisect
import dataclasses
import gc
import hashlib
import itertools
import math
import operator
import os
import random
import shutil
import tempfile
import weakref
from array import array

import pytest
from hypothesis import Phase, example, given, settings, strategies as st
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
from repro.annotations import planner as planner_module
from repro.annotations import query as query_module
from repro.annotations import store as store_module
from repro.annotations.model import FIELDS
from repro.db.database import Database
from repro.db.locks import LockMode
from repro.db.objects import DBObject, OID
from repro.db.schema import AttributeSpec, ClassDef
from repro.errors import AnnotationError, LockTimeoutError
from repro.obs import scoped


WORD = AnnotationType("word", (FieldSpec("label", str, required=True),
                               FieldSpec("confidence", float)))
TURN = AnnotationType("turn", (FieldSpec("label", str, required=True),))
#: The one total order every execution path sorts rows by (the whole OID
#: last: serials are per class, and a subclass row may share one).
SORT_KEY = operator.attrgetter("value_id", "track", "start", "end", "oid")


def fresh_store(db=None):
    store = AnnotationStore(db)
    store.define_type(WORD)
    store.define_type(TURN)
    return store


def row_of(serial, start, end, atype="word", class_name="Annotation",
           payload=()):
    """A committed row as the index is handed it (a posting holds one)."""
    return DBObject(OID(class_name, serial), FIELDS,
                    ("v", "t", atype, start, end, payload))


def sorted_columns(index, rows):
    """Rows as the parallel columns ``IntervalIndex.extend_sorted`` takes:
    in key order, the whole OID breaking ties, with each type and payload
    coded at its first sight in the order the rows were handed over."""
    codes = [index.codes[row.atype] for row in rows]
    payloads = [index.payloads.code(row.payload) for row in rows]
    order = sorted(range(len(rows)), key=lambda k: (
        rows[k].start, rows[k].end, rows[k].oid))
    return (array("d", [rows[k].start for k in order]),
            array("d", [rows[k].end for k in order]),
            [rows[k] for k in order], bytes(codes[k] for k in order),
            array("H", [payloads[k] for k in order]))


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
            assert repr(ann) == repr(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                ann.start = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                del ann.payload


# -- interval index vs brute force ---------------------------------------
def keys(index, op, lo, hi):
    """``(start, end, serial)`` of each row ``select`` returns, in order."""
    return [(row.start, row.end, row.oid.serial)
            for row in index.select(op, lo, hi)[0]]


class TestIntervalIndex:
    def _build(self, intervals):
        index = IntervalIndex()
        rows = []
        for serial, (s, e) in enumerate(intervals):
            row = row_of(serial, s, e)
            index.add(s, e, row)
            rows.append((s, e, row))
        return index, rows

    def test_rejects_degenerate_interval(self):
        index, _ = self._build([])
        with pytest.raises(AnnotationError, match="start < end"):
            index.add(2.0, 2.0, row_of(1, 2.0, 2.0))

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
            expected = sorted((s, e, row.oid.serial) for s, e, row in rows
                              if predicate(s, e, lo, hi))
            assert keys(index, op, lo, hi) == expected, (op, lo, hi)

    def test_meets_hits_exact_endpoints(self):
        index, _ = self._build([(1.0, 3.0), (3.0, 5.0), (5.0, 7.0)])
        got = [key[:2] for key in keys(index, "meets", 3.0, 5.0)]
        assert got == [(1.0, 3.0), (5.0, 7.0)]

    def test_results_ordered_by_start_end_serial(self):
        index, _ = self._build([(1.0, 9.0), (1.0, 2.0), (0.5, 4.0)])
        got = keys(index, "overlaps", 0.0, 10.0)
        assert got == sorted(got)


# -- interval index vs a sorted list, statefully ---------------------------
#: A coarse grid, so equal starts, equal ends and exact touches are common.
GRID = st.integers(0, 24).map(float)
MODEL_OPS = sorted(WINDOW_OPS) + ["contains", None]
#: More types than the shrunk code space, so two share the "other" code.
MODEL_TYPES = ["word", "turn", "scene", "gesture"]
ATYPES = st.sampled_from(MODEL_TYPES)
#: The stored class and a subclass: serials are per class, so a row of
#: each can share ``(start, end, serial)``.
CLASSES = st.sampled_from(["Annotation", "Note"])


def op_contains(s, e, lo, hi):
    """The index-only operator a ``during`` join probes with."""
    return s <= lo and e >= hi


class IntervalIndexMachine(RuleBasedStateMachine):
    """IntervalIndex against a sorted list of (start, end, oid).

    Blocks are shrunk to 8 postings so a few dozen rows cross splits and
    merges, and the type codes to 0, 1 and "other" so the four types
    reach the code that is read off the row.  Rows are of two classes,
    each with its own serials, as in a store; a row may be posted as the
    twin of the other class's row with its serial, at the same interval.
    """

    index_class = IntervalIndex

    def __init__(self):
        super().__init__()
        self.saved = (intervals.BLOCK_CAPACITY, intervals._HALF,
                      intervals._OTHER)
        intervals.BLOCK_CAPACITY, intervals._HALF, intervals._OTHER = 8, 4, 2
        self.index = self.index_class()
        self.rows = []  # sorted (start, end, oid)
        self.posted = {}  # oid -> the row posted under it
        self.codes = {}  # type -> its code: first sight, 0, 1, then "other"
        self.serials = {"Annotation": 0, "Note": 0}  # the last one issued

    def teardown(self):
        (intervals.BLOCK_CAPACITY, intervals._HALF,
         intervals._OTHER) = self.saved

    def _post(self, start, end, atype, class_name, twin=False):
        serial = self.serials[class_name] = self.serials[class_name] + 1
        other = OID("Note" if class_name == "Annotation" else "Annotation",
                    serial)
        if twin and other in self.posted:
            start, end = self.posted[other].start, self.posted[other].end
        row = row_of(serial, start, end, atype, class_name)
        self.codes.setdefault(atype, min(len(self.codes), 2))
        self.posted[row.oid] = row
        self.rows.append((start, end, row.oid))
        return row

    def _expected(self, op, lo, hi):
        if op is None:
            return list(self.rows)
        predicate = op_contains if op == "contains" else WINDOW_OPS[op]
        return [row for row in self.rows if predicate(row[0], row[1], lo, hi)]

    # -- writes ----------------------------------------------------------
    @rule(start=GRID, length=st.integers(1, 12), atype=ATYPES,
          class_name=CLASSES, twin=st.booleans(), again=st.booleans())
    def add(self, start, length, atype, class_name, twin, again):
        row = self._post(start, start + length, atype, class_name, twin)
        assert self.index.add(row.start, row.end, row) is True
        self.rows.sort()
        if again:  # the same posting twice is one posting
            assert self.index.add(row.start, row.end, row) is False

    @rule(rows=st.lists(st.tuples(GRID, ATYPES, CLASSES), max_size=20))
    def extend_sorted(self, rows):
        self.index.extend_sorted(*sorted_columns(
            self.index, [self._post(start, start + 1.5, atype, class_name)
                         for start, atype, class_name in rows]))
        self.rows.sort()

    @precondition(lambda self: self.rows)
    @rule(pick=st.integers(0, 10**6), run=st.integers(1, 12))
    def discard(self, pick, run):
        # A run of neighbours, so blocks thin out, merge and vanish.
        at = pick % len(self.rows)
        for start, end, oid in self.rows[at:at + run]:
            assert self.index.discard(start, end, self.posted.pop(oid))
        del self.rows[at:at + run]

    @rule(start=GRID)
    def discard_missing(self, start):
        assert not self.index.discard(start, start + 0.25,
                                      row_of(10**9, start, start + 0.25))

    # -- reads -----------------------------------------------------------
    @rule(op=st.sampled_from(MODEL_OPS), lo=GRID, width=st.integers(1, 12),
          atype=st.none() | ATYPES | st.just("never-posted"))
    def select(self, op, lo, width, atype):
        # select hands back the very rows posted, those of the type asked
        # for, in key order, and counts what the window matched before
        # that test.
        expected = self._expected(op, lo, lo + width)
        rows, matched = self.index.select(op, lo, lo + width, atype)
        wanted = [self.posted[oid] for _, _, oid in expected]
        wanted = [row for row in wanted if atype in (None, row.atype)]
        assert len(rows) == len(wanted)
        assert all(map(operator.is_, rows, wanted))
        assert matched == len(expected)

    # -- after every step --------------------------------------------------
    @invariant()
    def agrees_with_the_list(self):
        index, rows = self.index, self.rows
        index.check_invariants()
        assert len(index) == len(rows)
        assert index.min_start() == (rows[0][0] if rows else math.inf)
        assert index.max_end() == max((row[1] for row in rows),
                                      default=-math.inf)
        assert index.sum_len == pytest.approx(
            sum(end - start for start, end, _ in rows))
        at = 0
        for block in index._blocks:
            part = rows[at:at + len(block.rows)]
            assert block.max_end == max(row[1] for row in part)
            assert all(row is self.posted[oid]
                       for row, (_, _, oid) in zip(block.rows, part))
            assert list(block.types) == [self.codes[row.atype]
                                         for row in block.rows]
            at += len(part)
        assert index.codes == self.codes


#: Both models have a tier-1 size of 10^3 steps, and CI's query lane sets
#: STORE_MODEL_SCALE=10 for the 10^4, from the same fixed seeds, that
#: ROADMAP item 3 asks of each.  No other test reads the variable.
MODEL_SCALE = int(os.environ.get("STORE_MODEL_SCALE", "1"))
MODEL_SETTINGS = settings(max_examples=5 * MODEL_SCALE,
                          stateful_step_count=200)
TestIntervalIndexModel = IntervalIndexMachine.TestCase
TestIntervalIndexModel.settings = MODEL_SETTINGS


class _SerialTies(IntervalIndex):
    """The serial-only tie-break, re-planted: postings of one interval are
    told apart by serial alone, so a twin's position is the other's."""

    def _seek(self, start, end=-math.inf, oid=()):
        b, i = super()._seek(start, end, oid)
        if oid and self._blocks:
            block = self._blocks[b]
            while i and (block.starts[i - 1], block.ends[i - 1],
                         block.rows[i - 1].oid.serial) == (start, end,
                                                           oid.serial):
                i -= 1
        return b, i


class _PlantedMachine(IntervalIndexMachine):
    index_class = _SerialTies


def test_index_model_finds_the_replanted_serial_tie_bug():
    # Found, not minimized: shrinking costs far more than finding it.
    with pytest.raises(AssertionError):
        run_state_machine_as_test(_PlantedMachine, settings=settings(
            MODEL_SETTINGS, phases=[Phase.generate]))


# -- store ----------------------------------------------------------------
class TestStore:
    def test_annotate_read_remove_roundtrip(self):
        store = fresh_store()
        ref = store.annotate("v", "audio", "word", 1.0, 2.0,
                             {"label": "hi"})
        ann = Annotation.from_object(store.db.get(ref))
        assert (ann.value_id, ann.track, ann.atype) == ("v", "audio", "word")
        assert dict(ann.payload) == {"label": "hi"}
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
        for call in (lambda: store.remove(clip), lambda: store.read(clip, tx)):
            with pytest.raises(AnnotationError, match=r"Clip:\d+ is a Clip"):
                call()
        tx.abort()
        assert store.db.exists(clip)
        assert Annotation.from_object(store.db.get(kept)).start == 1.0

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
        assert [dict(a.payload)["label"] for a in rows] == ["keep"]

    def test_track_sentinel_is_stable_and_distinct(self):
        assert track_sentinel("v", "audio") == track_sentinel("v", "audio")
        assert track_sentinel("v", "audio") != track_sentinel("v", "video")


def define_note(db):
    """A subclass of the stored class: its rows are annotations too."""
    db.define_class(ClassDef("Note", superclass="Annotation", attributes=[
        AttributeSpec("author", str, required=True)]))


def insert_note(db, value_id, track, atype, start, end, label, tx=None):
    insert = db.insert if tx is None else tx.insert
    return insert("Note", value_id=value_id, track=track, atype=atype,
                  start=start, end=end, payload=(("label", label),),
                  author="me")


class TestSubclassRows:
    """Serials are per class: an ``Annotation`` and a ``Note`` can share
    ``(start, end, serial)``, and both are rows of the track."""

    def _colliding(self):
        store = fresh_store()
        define_note(store.db)
        first = store.annotate("v", "audio", "word", 1.0, 2.0, {"label": "a"})
        second = insert_note(store.db, "v", "audio", "word", 1.0, 2.0, "n")
        assert first.serial == second.serial and first != second
        return store, first, second

    @pytest.mark.parametrize("first_out", [0, 1])
    def test_colliding_serials_leave_no_dangling_posting(self, first_out):
        # At the parent, ties were broken on the serial alone: removing
        # the first inserted missed its posting, and the index was left
        # with one over an empty object table.
        store, *refs = self._colliding()
        store.track_index("v", "audio").check_invariants()
        for ref in (refs[first_out], refs[1 - first_out]):
            store.db.delete(ref)
        assert len(store) == len(store.db) == 0
        assert store.track_stats("v", "audio").count == 0
        query = AQ.on("v", "audio").overlaps(0.0, 5.0)
        assert run(store, query, mode="index").rows == []

    def test_index_and_scan_both_see_subclass_rows(self):
        store, first, second = self._colliding()
        insert_note(store.db, "v", "audio", "turn", 3.0, 4.0, "t")
        for query in (AQ.on("v", "audio").overlaps(0.0, 5.0),
                      AQ.of_type("word").during(0.0, 5.0),
                      AQ.on("v").of_type("turn").after(2.0)):
            index = run(store, query, mode="index")
            scan = run(store, query, mode="scan")
            assert index.rows == scan.rows, query.describe()
            assert index.rows == sorted(index.rows,
                                        key=SORT_KEY)
        both = run(store, AQ.on("v", "audio").during(1.0, 2.0), mode="index")
        assert [a.oid for a in both.rows] == [first, second]


# -- the store against a dict, statefully ----------------------------------
STORE_TRACKS = [("v", "audio"), ("v", "video")]


def _decoded(*choices):
    """One integer draw, decoded into one element of each ``choices`` list
    (drawing is most of what a Hypothesis step costs)."""
    def decode(n):
        out = []
        for options in choices:
            n, at = divmod(n, len(options))
            out.append(options[at])
        return tuple(out)
    return st.integers(0, math.prod(map(len, choices)) - 1).map(decode)


#: A row to write: (track, start, length, type).  Three starts and two
#: lengths, so equal intervals are the common case.
ROWS = _decoded(STORE_TRACKS, [0.0, 1.0, 2.0], [1, 2], MODEL_TYPES)
#: A query to ask: (track or all, type or any, operator, lo, width).
PROBES = _decoded([None] + STORE_TRACKS, [None] + MODEL_TYPES,
                  sorted(WINDOW_OPS), [0.0, 1.0, 2.0, 3.0], [1, 2, 3])


def per_track_run_index(store, query, tx=None):
    """The index path as it stood before the store-wide index: one
    untyped ``select`` a candidate track, in directory order, each under
    its sentinel, and the type and payload tested on each row (the oracle
    of the store-wide read).  A transaction reads the committed rows it
    has not written; those it has written are tested whole and sorted
    in."""
    snapshots, examined = [], 0
    for key in query_module._candidate_tracks(store, query):
        if tx is not None:
            tx.lock(track_sentinel(*key), LockMode.SHARED)
        found, matched = store._tracks[key].select(query.op, query.lo,
                                                   query.hi)
        examined += matched
        snapshots += [row for row in found if query.matches(row._values)]
    if tx is not None:
        writes = tx._writes
        snapshots = [tx.read(row.oid) for row in snapshots
                     if row.oid not in writes]
        snapshots += [row for row in writes.values()
                      if row is not None and query.matches(row._values)]
        snapshots.sort(key=query_module._sort_key)
    return snapshots, examined


#: What a transaction does to one row before it queries.
MOVES = ["retype", "retime", "retrack", "relabel", "delete"]


def move(tx, oid, how, value_id, track, atype, start, end):
    """One of :data:`MOVES` on ``oid`` inside ``tx``, taking its new
    track, type or interval from the arguments; the written values (None
    for a delete)."""
    if how == "delete":
        tx.delete(oid)
        return None
    changes = {"retype": {"atype": atype},
               "retime": {"start": start, "end": end},
               "retrack": {"value_id": value_id, "track": track},
               "relabel": {"payload": (("label", "moved"),)}}[how]
    return tx.update(oid, **changes)._values


def assert_store_wide_read_is_the_per_track_loops(store, query, tx=None):
    """Forced onto the store-wide index, a query over every track returns
    the per-track loop's rows (the very objects, in order) and
    ``examined``."""
    want, want_examined = per_track_run_index(store, query, tx)
    saved = query_module.NARROW_PER_TRACK
    query_module.NARROW_PER_TRACK = 10**9
    try:
        assert query_module._reads_every(store, query)
        got = query_module._run_index(store, query, tx)
    finally:
        query_module.NARROW_PER_TRACK = saved
    assert got.examined == want_examined, query.describe()
    assert len(got.rows) == len(want), query.describe()
    assert all(map(operator.is_, got.rows._snapshots, want)), query.describe()


class AnnotationStoreMachine(RuleBasedStateMachine):
    """AnnotationStore over a durable Database against a dict of its rows.

    The dict maps OID -> (value_id, track, atype, start, end).  After every
    step the store's size, each track's postings and the object table
    must agree with it, every posting's row must *be* the table's row, the
    type column must spell the rows' types, and the step's drawn query
    must return the dict's answer by index and by scan.  Blocks and type
    codes are shrunk as in :class:`IntervalIndexMachine`.
    """

    index_class = IntervalIndex

    def __init__(self):
        super().__init__()
        self.saved = (intervals.BLOCK_CAPACITY, intervals._HALF,
                      intervals._OTHER, store_module.IntervalIndex)
        intervals.BLOCK_CAPACITY, intervals._HALF, intervals._OTHER = 8, 4, 2
        store_module.IntervalIndex = self.index_class
        self.directory = tempfile.mkdtemp(prefix="avdb-store-model-")
        self.model = {}
        self.probe = (None, None, "overlaps", 0.0, 3.0)
        self._open()

    def _open(self):
        self.store = AnnotationStore(Database(self.directory))
        for name in MODEL_TYPES:
            self.store.define_type(AnnotationType(name, (FieldSpec("label"),)))
        define_note(self.store.db)
        # The backfill ran before Note was defined: its rows come in here.
        self.store.db.rebuild_indexes()

    def teardown(self):
        self.store.db.close()
        shutil.rmtree(self.directory, ignore_errors=True)
        (intervals.BLOCK_CAPACITY, intervals._HALF, intervals._OTHER,
         store_module.IntervalIndex) = self.saved

    def _pick(self, pick):
        return sorted(self.model)[pick % len(self.model)]

    # -- writes ----------------------------------------------------------
    @rule(row=ROWS, probe=PROBES)
    def annotate(self, row, probe):
        (value_id, track), start, length, atype = row
        oid = self.store.annotate(value_id, track, atype, start,
                                  start + length, {"label": "a"})
        self.model[oid] = (value_id, track, atype, start, start + length)
        self.probe = probe

    @rule(row=ROWS, twin=st.booleans(), probe=PROBES)
    def note(self, row, twin, probe):
        # A subclass row; when it can, the twin of the Annotation whose
        # serial it is about to get: same track, same interval.
        (value_id, track), start, length, atype = row
        end = start + length
        serial = self.store.db._store._serials.get("Note", 0) + 1
        if twin and OID("Annotation", serial) in self.model:
            value_id, track, _, start, end = self.model[
                OID("Annotation", serial)]
        oid = insert_note(self.store.db, value_id, track, atype, start, end,
                          "n")
        self.model[oid] = (value_id, track, atype, start, end)
        self.probe = probe

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(0, 10**6), probe=PROBES)
    def remove(self, pick, probe):
        self.store.remove(self._pick(pick))
        del self.model[self._pick(pick)]
        self.probe = probe

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(0, 10**6), atype=ATYPES, probe=PROBES)
    def retype(self, pick, atype, probe):
        # An update that keeps the interval: the posting must be replaced.
        oid = self._pick(pick)
        self.store.db.update(oid, atype=atype)
        value_id, track, _, start, end = self.model[oid]
        self.model[oid] = (value_id, track, atype, start, end)
        self.probe = probe

    @rule(rows=st.lists(ROWS, max_size=12),
          bad_at=st.none() | st.integers(0, 12), chunk=st.integers(1, 5),
          probe=PROBES)
    def bulk_load(self, rows, bad_at, chunk, probe):
        rows = [(value_id, track, atype, start, start + length,
                 (("label", "b"),))
                for (value_id, track), start, length, atype in rows]
        committed = len(rows)
        if bad_at is not None:
            bad_at = min(bad_at, len(rows))
            rows.insert(bad_at, ("v", "audio", "word", 1.0, 1.0, ()))
            committed = bad_at - bad_at % chunk  # the whole chunks before it
            with pytest.raises(AnnotationError, match="start < end"):
                self.store.bulk_load(rows, chunk=chunk)
        else:
            assert self.store.bulk_load(rows, chunk=chunk) == committed
        fresh = sorted(set(self.store.db._store.all_oids())
                       - set(self.model))
        assert len(fresh) == committed
        for oid, row in zip(fresh, rows):
            assert oid.class_name == "Annotation"
            self.model[oid] = row[:5]
        self.probe = probe

    @rule(row=ROWS, pick=st.integers(0, 10**6),
          how=st.sampled_from(MOVES), probe=PROBES)
    def abort(self, row, pick, how, probe):
        # Inside the transaction its insert and its move are seen, by
        # index and by scan; after the abort, neither is.
        (value_id, track), start, length, atype = row
        tx = self.store.db.begin()
        seen = dict(self.model)
        seen[self.store.annotate(value_id, track, atype, start,
                                 start + length, {"label": "gone"},
                                 tx=tx)] = (value_id, track, atype, start,
                                            start + length)
        if self.model:
            oid = self._pick(pick)
            values = move(tx, oid, how, value_id, track, atype, start + 0.5,
                          start + 0.5 + length)
            if values is None:
                del seen[oid]
            else:
                seen[oid] = values[:5]
        self.probe = probe
        self.the_drawn_query_agrees(seen, tx)
        tx.abort()

    @rule(checkpoint=st.booleans(), probe=PROBES)
    def reopen(self, checkpoint, probe):
        if checkpoint:
            self.store.db.checkpoint()
        self.store.db.close()
        self._open()
        self.probe = probe

    # -- after every step --------------------------------------------------
    @invariant()
    def agrees_with_the_dict(self):
        store, model = self.store, self.model
        assert len(store) == len(store.db) == len(model)
        codes = store._router.codes
        for value_id, track in store.tracks():
            index = store.track_index(value_id, track)
            index.check_invariants()
            assert index.codes is codes
            expected = sorted((row[3], row[4], oid)
                              for oid, row in model.items()
                              if row[:2] == (value_id, track))
            assert [(row.start, row.end, row.oid)
                    for row in index.select()[0]] == expected
            for block in index._blocks:
                for row, code in zip(block.rows, block.types):
                    assert row is store.db.get(row.oid)
                    assert row._values[:5] == model[row.oid]
                    assert code == codes[model[row.oid][2]]
        assert sum(len(store.track_index(*key)) for key in store.tracks()) \
            == len(model)

    @invariant()
    def the_store_wide_index_is_the_union_of_the_tracks(self):
        store = self.store
        every = store._router.every
        every.check_invariants()
        assert every.codes is store._router.codes
        union = sorted((row for key in store.tracks()
                        for row in store.track_index(*key).select()[0]),
                       key=operator.attrgetter("start", "end", "oid"))
        got = every.select()[0]
        assert len(got) == len(union) and all(map(operator.is_, got, union))

    @invariant()
    def the_drawn_query_agrees(self, model=None, tx=None):
        model = self.model if model is None else model
        on, atype, op, lo, width = self.probe
        query = AQ if on is None else AQ.on(*on)
        if atype is not None:
            query = query.of_type(atype)
        if op in ("before", "after"):
            query = getattr(query, op)(lo)
        else:
            query = getattr(query, op)(lo, lo + width)
        expected = sorted(
            (row[0], row[1], row[3], row[4], oid)
            for oid, row in model.items() if query.matches(row + ((),)))
        for mode in ("index", "scan"):
            rows = run(self.store, query, mode=mode, tx=tx).rows
            assert [SORT_KEY(a) for a in rows] == expected, (mode, query)
        if on is None:
            assert_store_wide_read_is_the_per_track_loops(self.store, query,
                                                          tx)


STORE_MODEL_SETTINGS = settings(max_examples=20 * MODEL_SCALE,
                                stateful_step_count=50)
TestAnnotationStoreModel = AnnotationStoreMachine.TestCase
TestAnnotationStoreModel.settings = STORE_MODEL_SETTINGS


class _PlantedStoreMachine(AnnotationStoreMachine):
    index_class = _SerialTies


def test_store_model_finds_the_replanted_serial_tie_bug():
    with pytest.raises(AssertionError):
        run_state_machine_as_test(_PlantedStoreMachine, settings=settings(
            STORE_MODEL_SETTINGS, phases=[Phase.generate]))


# -- wait-die: writers vs transactional reads (the locking regression) ----
#: A whole-track read: the query path, forced onto the index.
WHOLE_TRACK = AQ.on("v", "audio")


class TestWaitDie:
    def test_younger_writer_dies_against_scan_locks(self):
        store = fresh_store()
        for s in reversed(range(10)):  # not in key order
            store.annotate("v", "audio", "word", float(s), s + 0.5,
                           {"label": f"w{s}"})
        reader = store.db.begin()
        read = run(store, WHOLE_TRACK, mode="index", tx=reader).rows

        writer = store.db.begin()  # younger than the reader
        with pytest.raises(LockTimeoutError) as exc:
            store.annotate("v", "audio", "word", 20.0, 21.0,
                           {"label": "young"}, tx=writer)
        assert exc.value.should_retry is False  # wait-die: younger dies
        writer.abort()

        # The reader has the whole track in key order, and the aborted
        # writer left the track as the reader read it.
        assert [a.start for a in read] == [float(s) for s in range(10)]
        assert run(store, WHOLE_TRACK, mode="index", tx=reader).rows == read
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
        # The older reader conflicts but is told to WAIT (retry), not die.
        with pytest.raises(LockTimeoutError) as exc:
            run(store, WHOLE_TRACK, mode="index", tx=older)
        assert exc.value.should_retry is True
        younger.commit()
        # Retrying after the younger commits sees both annotations.
        assert [a.start for a in run(store, WHOLE_TRACK, mode="index",
                                     tx=older).rows] == [1.0, 3.0]
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
                                        key=SORT_KEY)

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
        before = Annotation.from_object(store.db.get(ref))
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

    def test_a_track_only_query_reads_that_track_only(self):
        # At the parent the index path ignored a track given without a
        # value: every track was priced and read, 33 rows against 13.
        store = AnnotationStore()
        load_corpus(store, CorpusSpec(seed=1, values=5, annotations=500))
        query = AQ.on(None, "audio").of_type("word").during(0.0, 100.0)
        index = run(store, query, mode="index")
        assert index.rows == run(store, query, mode="scan").rows
        assert len(index.rows) == 13
        assert {(ann.track, ann.atype) for ann in index.rows} == {
            ("audio", "word")}
        assert index.plan.tracks == 5 == len(store.tracks()) // 2

    def test_where_matches_every_named_field_and_only_those(self):
        # A row matches when each (name, value) asked for is one of its
        # pairs: fields it lacks, or holds with another value, fail it.
        store = fresh_store()
        rng = random.Random("where")
        for n in range(120):
            payload = {"label": f"word-{rng.randrange(3)}"}
            if n % 3:
                payload["confidence"] = rng.choice((0.5, 1.0))
            store.annotate("v", "audio", "word", n / 2, n / 2 + 1.0, payload)
        every = run(store, AQ.on("v", "audio"), mode="scan").rows
        for wanted in ({"label": "word-1"}, {"confidence": 0.5},
                       {"label": "word-2", "confidence": 1.0},
                       {"label": "word-9"}):
            query = AQ.on("v", "audio").where(**wanted).during(0.0, 61.0)
            expected = [ann for ann in every
                        if wanted.items() <= dict(ann.payload).items()]
            for mode in ("index", "scan"):
                assert run(store, query, mode=mode).rows == expected, wanted
        assert 0 < len(run(store, AQ.on("v").where(confidence=0.5)).rows)

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

    def test_a_join_builds_its_payload_table_once(self, monkeypatch):
        # every probe of every track shares the router's payload codes
        store = seeded_store()
        calls = []
        wanted = intervals.PayloadCodes.wanted

        def counted(codes, pairs):
            calls.append(pairs)
            return wanted(codes, pairs)

        monkeypatch.setattr(intervals.PayloadCodes, "wanted", counted)
        join = AnnotationJoin(AQ.of_type("word").during(0.0, 60.0), "during",
                              AQ.of_type("turn").where(label="turn-2"))
        index = run_join(store, join, mode="index")
        assert index.plan.mode == "index" and len(index.rows) > 1
        assert len(calls) == 1
        assert index.rows == run_join(store, join, mode="scan").rows

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
        assert result.rows == sorted(result.rows, key=SORT_KEY)

    def test_a_transactional_scan_locks_only_the_rows_it_returns(self):
        # The track sentinels keep writers off every row, so a forced scan
        # of a narrow window reads (and locks) the rows it returns only.
        store = seeded_store(n=400, values=3)
        tx = store.db.begin()
        result = run(store, AQ.on("v0", "audio").overlaps(10.0, 11.0),
                     mode="scan", tx=tx)
        held = {oid for oid, entry in store.db._locks._locks.items()
                if tx.tx_id in entry.holders}
        sentinels = {track_sentinel(*key) for key in store.tracks()}
        assert 0 < len(result.rows) < len(store) // 10
        assert held == sentinels | {row.oid for row in result.rows}
        tx.commit()


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
        # Subclass rows too, one of them the twin of an Annotation: same
        # track, interval and serial.
        define_note(store.db)
        twin = Annotation.from_object(store.db.get(OID("Annotation", 1)))
        assert insert_note(store.db, twin.value_id, twin.track, twin.atype,
                           twin.start, twin.end, "twin").serial == 1
        insert_note(store.db, "v0", "audio", "turn", 5.0, 9.0, "note")
        for op, lo, width, value, track, atype in predicates:
            query = AQ
            if value is not None or track is not None:
                query = query.on(value, track)
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
                                        key=SORT_KEY)
            # Determinism: a rerun returns byte-identical rows.
            assert rows == [a.to_row()
                            for a in run(store, query, mode="index").rows]

    def test_a_transaction_sees_its_own_retype_on_both_paths(self):
        # The type column is the committed type; a transaction that has
        # retyped a row must find it under the type it wrote, by index
        # as by scan, and no longer under the old one.
        store = seeded_store(seed=3, n=150)
        on = AQ.on("v0", "audio").overlaps(0.0, 70.0)
        victim = run(store, on.of_type("word")).rows[2]
        tx = store.db.begin()
        unwritten = run(store, on.of_type("word"), mode="index", tx=tx)
        assert victim in unwritten.rows
        tx.update(victim.oid, atype="turn")
        for atype, there in (("word", False), ("turn", True), (None, True)):
            query = on if atype is None else on.of_type(atype)
            index = run(store, query, mode="index", tx=tx)
            scan = run(store, query, mode="scan", tx=tx)
            assert [a.to_row() for a in index.rows] \
                == [a.to_row() for a in scan.rows], atype
            assert index.examined == unwritten.examined
            assert (victim.oid in [a.oid for a in index.rows]) is there
            assert all(atype in (None, a.atype) for a in index.rows)
        tx.abort()
        assert run(store, on.of_type("word")).rows == unwritten.rows

    @pytest.mark.parametrize("how, sizes", [
        ("retime", (19, 11)), ("retrack", (19, 11)), ("early", (20, 13)),
        ("delete", (19, 11))])
    def test_a_transaction_sees_its_own_moves_on_both_paths(self, how, sizes):
        # At the parent the index path tested only the type of a row the
        # transaction had written: a row moved out of the window stayed
        # in (20 rows by index, 19 by scan), one moved into it was missed
        # (12 against 13), and a deleted row raised ObjectNotFoundError
        # on both paths.
        store = seeded_store(seed=3, n=150)
        wide = AQ.on("v0", "audio").overlaps(0.0, 70.0)
        narrow = AQ.on("v0", "audio").overlaps(0.0, 30.0)
        rows = run(store, wide).rows
        victim = (next(a for a in rows if 36.5 < a.start < 36.6)
                  if how == "early" else rows[2])
        tx = store.db.begin()
        if how == "early":
            tx.update(victim.oid, start=10.0, end=11.0)
        elif how == "retime":
            tx.update(victim.oid, start=80.0, end=81.0)
        elif how == "retrack":
            tx.update(victim.oid, track="video")
        else:
            tx.delete(victim.oid)
        queries = (wide, narrow, AQ.on("v0", "video").overlaps(0.0, 70.0),
                   AQ.on("v0").overlaps(0.0, 100.0), AQ.overlaps(0.0, 100.0),
                   AQ.of_type(victim.atype).during(0.0, 100.0))
        for query in queries:
            index = run(store, query, mode="index", tx=tx)
            scan = run(store, query, mode="scan", tx=tx)
            assert [a.to_row() for a in index.rows] \
                == [a.to_row() for a in scan.rows], query.describe()
            assert index.rows == sorted(index.rows, key=SORT_KEY)
            assert [a.oid for a in index.rows] == [a.oid for a in scan.rows]
            if query.value_id is None:
                assert_store_wide_read_is_the_per_track_loops(store, query,
                                                              tx)
        assert (len(run(store, wide, mode="index", tx=tx).rows),
                len(run(store, narrow, mode="index", tx=tx).rows)) == sizes
        video = run(store, queries[2], mode="index", tx=tx).rows
        assert (victim.oid in [a.oid for a in video]) is (how == "retrack")
        tx.abort()
        assert run(store, wide).rows == rows


# -- the parent's select and pricing, as oracles ---------------------------
# The interval index's one read and the planner's per-track pricing as they
# stood before the short-piece loop and the one-pass pricing: every piece
# sliced and filtered by ``compress``, every track priced through a
# ``TrackStats``.  The live code must agree with them exactly: the same
# rows (the very objects), the same ``matched``, the same float.
def parent_seek(index, start, end=-math.inf, oid=()):
    blocks = index._blocks
    if not blocks:
        return 0, 0
    b = max(bisect.bisect_right(index._mins, (start, end, oid)) - 1, 0)
    block = blocks[b]
    starts = block.starts
    i = bisect.bisect_left(starts, start)
    if end > -math.inf:
        ends, rows, n = block.ends, block.rows, len(starts)
        while (i < n and starts[i] == start
               and (ends[i], rows[i].oid) < (end, oid)):
            i += 1
    return b, i


def parent_cut(index, begin, finish, test=None, bound=0.0, capped=False):
    (b0, i0), (b1, i1) = begin, finish
    blocks = index._blocks
    pieces = []
    for b in range(b0, min(b1 + 1, len(blocks))):
        block = blocks[b]
        i = i0 if b == b0 else 0
        j = i1 if b == b1 else len(block.rows)
        if i >= j:
            continue
        if test is None or (capped and block.max_end <= bound):
            pieces.append((block, i, j, None))
        elif capped or block.max_end >= bound:
            pieces.append((block, i, j, test))
    return pieces


def parent_pieces(index, op, lo, hi):
    lo, hi = float(lo), float(hi)

    def seek(*key):
        return parent_seek(index, *key)

    def cut(*args):
        return parent_cut(index, *args)

    head, tail = (0, 0), (len(index._blocks), 0)
    if op is None:
        return cut(head, tail)
    if op == "during":
        return cut(seek(lo), seek(hi), hi.__ge__, hi, True)
    if op == "before":
        return cut(head, seek(lo), lo.__ge__, lo, True)
    if op == "after":
        return cut(seek(hi), tail)
    if op == "overlaps":
        at_lo = seek(lo)
        return cut(head, at_lo, lo.__lt__, lo) + cut(at_lo, seek(hi))
    if op == "meets":
        return (cut(head, seek(lo), lo.__eq__, lo)
                + cut(seek(hi), seek(hi, math.inf)))
    assert op == "contains"
    return cut(head, seek(lo, math.inf), hi.__le__, hi)


def parent_select(index, op=None, lo=0.0, hi=0.0, atype=None):
    found = []
    matched = 0
    wanted = bytearray(256)
    if atype is not None:
        wanted[index.codes.get(atype, intervals._OTHER)] = 1
    for block, i, j, test in parent_pieces(index, op, lo, hi):
        rows = block.rows[i:j]
        types = b"" if atype is None else block.types[i:j]
        if test is not None:
            keep = list(map(test, block.ends[i:j]))
            rows = list(itertools.compress(rows, keep))
            types = bytes(itertools.compress(types, keep))
        matched += len(rows)
        found += (rows if atype is None
                  else itertools.compress(rows, types.translate(wanted)))
    if wanted[intervals._OTHER]:
        found = [row for row in found if row.atype == atype]
    return found, matched


def parent_estimate(stats, op, lo, hi):
    def clamp(fraction):
        return min(1.0, max(0.0, fraction))

    if stats.count == 0:
        return 0.0
    if op is None:
        return float(stats.count)
    extent = stats.extent or 1e-9
    if op == "overlaps":
        return stats.count * clamp((hi - lo + stats.avg_len)
                                   / (extent + stats.avg_len))
    if op == "during":
        return stats.count * clamp((hi - lo) / extent)
    if op == "before":
        return stats.count * clamp((lo - stats.min_start) / extent)
    if op == "after":
        return stats.count * clamp((stats.max_end - hi) / extent)
    assert op == "meets"
    return max(1.0, stats.count * planner_module.MEETS_FRACTION)


def parent_index_cost(store, query, tracks):
    cost = 0.0
    for value_id, track in tracks:
        stats = store.track_stats(value_id, track)
        cost += planner_module.C_SEEK * math.log2(stats.count + 1)
        cost += planner_module.C_EMIT * parent_estimate(
            stats, query.op, query.lo, query.hi)
    return cost


#: The six operators ``select`` answers (``contains`` is a join probe's).
SELECT_OPS = OPERATORS + ["contains"]
#: A row's payload: labels, a float field (``1`` and ``1.0`` are one
#: payload) and one with a list value, which no table can code.
ROW_PAYLOADS = [(), (("label", "a"),), (("label", "b"),),
                (("conf", 0.5), ("label", "a")), (("conf", 0.5), ("label", "b")),
                (("conf", 1.0), ("label", "a")), (("conf", 1), ("label", "a")),
                (("label", "b"), ("tags", ["x"]))]
#: A payload asked for: nothing, a label, a float, two pairs, a pair no
#: row holds, and a list value (a predicate no table can look up).
PREDICATES = [(), (("label", "a"),), (("conf", 1.0),),
              (("conf", 0.5), ("label", "a")), (("conf", 1.0), ("label", "b")),
              (("label", "zzz"),), (("tags", ["x"]),)]
#: A window: its lower end as an offset from one of the first or last
#: dozen starts (a piece that runs to a block's end is common), its width,
#: both on a half-second grid (so are the postings: ties and exact
#: touches are common), the type and the payload asked for.
WINDOWS = st.tuples(st.integers(-12, 11),
                    st.integers(-40, 40).map(lambda n: n / 2),
                    st.integers(1, 40).map(lambda n: n / 2),
                    st.sampled_from([None, "word", "turn", "scene",
                                     "never-posted"]),
                    st.sampled_from(PREDICATES))


class TestParentOracles:
    """The short-piece ``select`` and the one-pass pricing against the
    parent's, on typed and untyped windows over single- and multi-block
    tracks, with writes between the reads; ``select`` with a payload
    against the parent's followed by a per-row filter."""

    @staticmethod
    def track(rng, size, crowded):
        """One track of ``size`` postings on a half-second grid.  Crowded,
        the type table is full before any is posted, so "turn" and
        "scene" share the last code and are told apart on the row, and
        the payload table is past its width after two payloads."""
        index = IntervalIndex()
        if crowded:
            index.codes.update((f"filler-{n}", n) for n in range(254))
        rows = [row_of(serial, start, start + rng.randrange(1, 13) / 2,
                       rng.choice(("word", "turn", "scene")),
                       payload=rng.choice(ROW_PAYLOADS))
                for serial, start in enumerate(
                    rng.randrange(0, 120) / 2 for _ in range(size))]
        index.extend_sorted(*sorted_columns(index, rows))
        return index, rows

    @pytest.mark.parametrize("op", SELECT_OPS)
    @given(seed=st.integers(0, 2**16),
           size=st.sampled_from([1, 6, 17, 90, intervals.BLOCK_CAPACITY - 1,
                                 intervals.BLOCK_CAPACITY + 1, 1_300]),
           crowded=st.booleans(),
           windows=st.lists(WINDOWS, min_size=1, max_size=6))
    @settings(max_examples=25)
    def test_select_returns_the_parents_rows_and_matched(
            self, op, seed, size, crowded, windows):
        rng = random.Random(seed)
        saved = intervals.PAYLOAD_CODES
        intervals.PAYLOAD_CODES = 3 if crowded else saved
        try:
            index, rows = self.track(rng, size, crowded)
            for anchor, offset, width, atype, payload in windows:
                starts = sorted(row.start for row in rows) or [0.0]
                lo = starts[anchor % len(starts)] + offset
                got, matched = index.select(op, lo, lo + width, atype,
                                            payload)
                want, want_matched = parent_select(index, op, lo,
                                                   lo + width, atype)
                want = [row for row in want
                        if all(pair in row.payload for pair in payload)]
                assert matched == want_matched, (op, lo, width, atype)
                assert len(got) == len(want) and all(map(operator.is_, got,
                                                         want))
                # A write between reads: a new posting or a dropped one.
                if rng.random() < 0.5 or not rows:
                    start = rng.randrange(0, 120) / 2
                    rows.append(row_of(10**6 + len(rows), start, start + 0.5,
                                       rng.choice(("word", "turn", "scene")),
                                       payload=rng.choice(ROW_PAYLOADS)))
                    assert index.add(start, start + 0.5, rows[-1])
                else:
                    row = rows.pop(rng.randrange(len(rows)))
                    assert index.discard(row.start, row.end, row)
            index.check_invariants()
        finally:
            intervals.PAYLOAD_CODES = saved

    def test_check_invariants_catches_a_stale_payload_code(self):
        index, rows = self.track(random.Random(5), 40, False)
        index.check_invariants()
        block = index._blocks[0]
        block.payloads[3] = block.payloads[3] % len(index.payloads) + 1
        with pytest.raises(AssertionError, match="stale payload column"):
            index.check_invariants()

    @given(seed=st.integers(0, 2**16), big=st.booleans(),
           many=st.booleans(), emptied=st.booleans(),
           queries=st.lists(
               st.tuples(st.sampled_from([None] + OPERATORS),
                         st.floats(-10.0, 70.0, allow_nan=False),
                         st.floats(0.001, 30.0, allow_nan=False),
                         st.sampled_from([None, None, "v0", "v1"]),
                         st.sampled_from([None, None, "audio", "video"]),
                         st.sampled_from([None, "word", "turn"])),
               min_size=1, max_size=8))
    # Priced over every track before any write, the track of 1,620
    # postings makes each of these sums another float under numpy's log2.
    @example(seed=0, big=True, many=False, emptied=False,
             queries=[("meets", 20.0, 1.0, None, None, None),
                      ("before", 0.0, 1.0, None, None, "word")])
    @settings(max_examples=30 * MODEL_SCALE)
    def test_pricing_equals_the_parents_to_the_bit(self, seed, big, many,
                                                   emptied, queries):
        store = seeded_store(seed=seed % 7, n=150)
        if big:  # a multi-block track of 1,620 postings: numpy's log2 of
            # 1,621 is not math.log2's, so a query over every track that
            # took it would price another float
            store.bulk_load(("v0", "score", "word", n / 10, n / 10 + 1.5,
                             (("label", "word-0"),)) for n in range(1_620))
        if many:  # 60 more tracks of one to three postings
            store.bulk_load((f"m{n // 2:02d}", ("audio", "video")[n % 2],
                             "turn", float(k), k + 2.0, (("label", "turn-1"),))
                            for n in range(60) for k in range(1 + n % 3))
        rng = random.Random(seed)
        for op, lo, width, value, track, atype in queries:
            query = AQ if value is None and track is None \
                else AQ.on(value, track)
            if atype is not None:
                query = query.of_type(atype)
            if op in ("before", "after"):
                query = getattr(query, op)(lo)
            elif op is not None:
                query = getattr(query, op)(lo, lo + width)
            tracks = query_module._candidate_tracks(store, query)
            want = parent_index_cost(store, query, tracks)
            assert planner_module._index_cost(store, query, tracks) == want
            assert plan(store, query).est_index == want
            # A write between reads: a posting added to a known track or a
            # new one, or taken from a known one; emptied, a track may
            # lose every row.
            key = rng.choice(store.tracks())
            roll = rng.random()
            if roll < 0.4:
                rows = run(store, AQ.on(*key)).rows
                for ann in rows if emptied and roll < 0.2 else rows[:1]:
                    store.remove(ann.oid)
            else:
                if roll > 0.8:
                    key = (f"w{rng.randrange(100)}", rng.choice(("audio",
                                                                 "video")))
                start = rng.uniform(0.0, 60.0)
                store.annotate(*key, "turn", start,
                               start + rng.uniform(0.1, 8.0),
                               {"label": "turn-9"})


class TestStoreWideOracle:
    """The store-wide read of a query over every track against the
    per-track loop it replaces, on stores with subclass rows sharing
    serials, a multi-block track and a crowded type table, with writes
    between reads and inside a transaction."""

    @given(seed=st.integers(0, 2**16), big=st.booleans(),
           crowded=st.booleans(),
           queries=st.lists(
               st.tuples(st.sampled_from([None] + OPERATORS),
                         st.floats(-10.0, 70.0, allow_nan=False),
                         st.floats(0.001, 30.0, allow_nan=False),
                         st.sampled_from([None, "word", "turn",
                                          "never-posted"]),
                         st.sampled_from([(), (("label", "word-1"),)]),
                         st.sampled_from([None, "read"] + MOVES)),
               min_size=1, max_size=8))
    @settings(max_examples=25 * MODEL_SCALE)
    def test_the_store_wide_read_returns_the_per_track_loops_rows(
            self, seed, big, crowded, queries):
        store = fresh_store()
        if crowded:  # "turn" past the 255th type: told apart on the row
            store._router.codes.update(
                (f"filler-{n}", n) for n in range(1, 255))
        rng = random.Random(seed)
        store.bulk_load(
            (f"v{rng.randrange(3)}", rng.choice(("audio", "video")),
             rng.choice(("word", "turn")), start, start + rng.uniform(0.1, 8),
             (("label", f"word-{rng.randrange(3)}"),))
            for start in (rng.uniform(0.0, 60.0) for _ in range(150)))
        if big:  # one multi-block track, its postings in no key order
            store.bulk_load(("v0", "audio", "word", n / 10, n / 10 + 1.5,
                             (("label", "word-1"),))
                            for n in reversed(range(
                                intervals.BLOCK_CAPACITY + 90)))
        define_note(store.db)
        twin = Annotation.from_object(store.db.get(OID("Annotation", 1)))
        assert insert_note(store.db, twin.value_id, twin.track, twin.atype,
                           twin.start, twin.end, "word-1").serial == 1
        for op, lo, width, atype, payload, tx_mode in queries:
            query = AQ if atype is None else AQ.of_type(atype)
            if payload:
                query = query.where(**dict(payload))
            if op in ("before", "after"):
                query = getattr(query, op)(lo)
            elif op is not None:
                query = getattr(query, op)(lo, lo + width)
            tx = None if tx_mode is None else store.db.begin()
            if tx_mode in MOVES:
                start = rng.uniform(0.0, 60.0)
                move(tx, rng.choice(run(store, AQ).rows).oid, tx_mode,
                     f"v{rng.randrange(4)}", rng.choice(("audio", "video")),
                     rng.choice(("word", "turn")), start,
                     start + rng.uniform(0.1, 8))
            assert_store_wide_read_is_the_per_track_loops(store, query, tx)
            if tx is not None:
                tx.abort()
            # A write between reads: a new posting or a dropped one.
            if rng.random() < 0.5:
                start = rng.uniform(0.0, 60.0)
                store.annotate(f"v{rng.randrange(4)}", "video", "turn",
                               start, start + 0.5, {"label": "turn-9"})
            else:
                store.remove(rng.choice(run(store, AQ).rows).oid)


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
        assert {dict(a.payload)["label"] for a in rows} == {"x", "new"}

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
