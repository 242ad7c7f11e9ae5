"""Declarative temporal queries over the annotation store.

A query is a frozen value — built fluently, executed by whichever path
the planner picks::

    q = (AQ.on("newscast-3", "audio").of_type("word")
           .during(10.0, 25.0).where(speaker="anchor"))
    result = run(store, q)            # planner chooses index vs scan
    result = run(store, q, mode="scan")   # forced, for cross-checking

Both execution paths return *the same rows in the same order* — sorted
by ``(value_id, track, start, end, serial)``.  The index path gets that
order for free (tracks visited in sorted order, each track's postings
are in key order); the scan path sorts.  Equality of the two is a
property test and a benchmark assertion, which is what lets the planner
be a pure performance decision.

Rows are references until someone looks (§3.1: queries "may return
references ... rather than the values themselves"): a result holds the
immutable ``DBObject`` snapshots read at execution time in an
:class:`AnnotationRows`, and an :class:`Annotation` is built only when
a row is indexed, iterated or compared.  The index path takes them
from the index's postings, and so never enters the object table.

Track joins (Cassidy & Bird's cross-tier queries: "words during this
speaker turn", "gestures overlapping a music beat") pair a left query
with a right side and one of the five relations, evaluated left-row by
left-row: the index path turns each left interval into a pruned window
probe of the right side's tracks, the scan path nested-loops.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.annotations.intervals import NARROW_PER_TRACK
from repro.annotations.model import (ATYPE, END, PAYLOAD, START, TRACK,
                                     VALUE_ID, WINDOW_OPS, Annotation, Payload)
from repro.annotations.store import AnnotationStore, TrackKey, track_sentinel
from repro.db.locks import LockMode
from repro.db.objects import DBObject, OID
from repro.db.transactions import Transaction
from repro.errors import AnnotationError

__all__ = ["AQ", "AnnotationJoin", "AnnotationQuery", "AnnotationRows",
           "QueryResult", "run", "run_join"]


@dataclass(frozen=True)
class AnnotationQuery:
    """One declarative annotation query (all fields optional)."""

    value_id: Optional[str] = None
    track: Optional[str] = None
    atype: Optional[str] = None
    op: Optional[str] = None
    lo: float = 0.0
    hi: float = 0.0
    payload: Payload = ()
    label: str = ""

    # -- fluent builders (each returns a new frozen query) ---------------
    def on(self, value_id: Optional[str] = None,
           track: Optional[str] = None) -> "AnnotationQuery":
        return replace(self, value_id=value_id, track=track)

    def of_type(self, atype: str) -> "AnnotationQuery":
        return replace(self, atype=atype)

    def where(self, **payload: Any) -> "AnnotationQuery":
        merged = dict(self.payload)
        merged.update(payload)
        return replace(self, payload=tuple(sorted(merged.items())))

    def named(self, label: str) -> "AnnotationQuery":
        return replace(self, label=label)

    def _window(self, op: str, lo: float, hi: float) -> "AnnotationQuery":
        if not lo < hi:
            raise AnnotationError(
                f"query window [{lo!r}, {hi!r}) must have lo < hi")
        return replace(self, op=op, lo=lo, hi=hi)

    def overlaps(self, lo: float, hi: float) -> "AnnotationQuery":
        return self._window("overlaps", lo, hi)

    def during(self, lo: float, hi: float) -> "AnnotationQuery":
        return self._window("during", lo, hi)

    def meets(self, lo: float, hi: float) -> "AnnotationQuery":
        return self._window("meets", lo, hi)

    def before(self, t: float) -> "AnnotationQuery":
        return replace(self, op="before", lo=t, hi=t)

    def after(self, t: float) -> "AnnotationQuery":
        return replace(self, op="after", lo=t, hi=t)

    # -- description (decision-log subject, CLI output) ------------------
    def describe(self) -> str:
        parts = []
        where = self.value_id or "*"
        if self.track:
            where += f"/{self.track}"
        elif self.value_id:
            where += "/*"
        parts.append(where)
        if self.atype:
            parts.append(f"type={self.atype}")
        if self.op in ("before", "after"):
            parts.append(f"{self.op} {self.lo:g}")
        elif self.op:
            parts.append(f"{self.op} [{self.lo:g},{self.hi:g})")
        for key, value in self.payload:
            parts.append(f"{key}={value!r}")
        return self.label or " ".join(parts)

    # -- the row predicate (over a row's values, model.FIELDS order) ------
    def matches(self, values: tuple) -> bool:
        """The full row predicate (the scan path's only tool)."""
        if self.value_id is not None and values[VALUE_ID] != self.value_id:
            return False
        if self.track is not None and values[TRACK] != self.track:
            return False
        if self.atype is not None and values[ATYPE] != self.atype:
            return False
        # Both are canonical sorted (name, value) pairs, one per name:
        # a wanted pair is matched by being one of the row's.
        have = values[PAYLOAD]
        for pair in self.payload:
            if pair not in have:
                return False
        if self.op is not None:
            return WINDOW_OPS[self.op](values[START], values[END],
                                       self.lo, self.hi)
        return True


#: Entry point for fluent construction: ``AQ.on(...).during(...)``.
AQ = AnnotationQuery()


@dataclass(frozen=True)
class AnnotationJoin:
    """``left REL right``: pair left rows with related right rows."""

    left: AnnotationQuery
    relation: str
    right: AnnotationQuery

    def __post_init__(self) -> None:
        if self.relation not in WINDOW_OPS:
            raise AnnotationError(
                f"unknown join relation {self.relation!r}; "
                f"pick one of {sorted(WINDOW_OPS)}")
        if self.right.op is not None:
            raise AnnotationError(
                "the right side of a join takes its window from each "
                "left row; drop its temporal clause")

    def describe(self) -> str:
        return (f"{self.left.describe()} {self.relation.upper()} "
                f"{self.right.describe()}")


class AnnotationRows(Sequence):
    """The rows of one query: read-only, each hydrated when touched.

    Holds the snapshots the query read, so a row still reads as it was
    at execution time after its annotation is removed.  Equal to another
    ``AnnotationRows`` or a list holding equal annotations in order.
    """

    __slots__ = ("_snapshots",)

    def __init__(self, snapshots: List[DBObject]) -> None:
        self._snapshots = snapshots

    def __len__(self) -> int:
        return len(self._snapshots)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return AnnotationRows(self._snapshots[index])
        return Annotation.from_object(self._snapshots[index])

    def __iter__(self) -> Iterator[Annotation]:
        return map(Annotation.from_object, self._snapshots)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (AnnotationRows, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


@dataclass
class QueryResult:
    """Rows plus the execution facts the caller/benchmarks inspect.

    ``rows`` is an :class:`AnnotationRows` for a query and a list of
    ``(left, right)`` annotation pairs for a join.
    """

    rows: Any
    mode: str
    examined: int = 0
    plan: Optional[Any] = None  # the planner's PlanDecision


# -- execution: shared helpers --------------------------------------------
def _candidate_tracks(store: AnnotationStore,
                      query: AnnotationQuery) -> List[TrackKey]:
    """The tracks a query can read, in sorted order (never to be mutated:
    an unpinned query is handed the store's track directory itself)."""
    value_id, track = query.value_id, query.track
    if value_id is None:
        keys = store._router.keys
        return keys if track is None else [key for key in keys
                                           if key[1] == track]
    if track is None:
        return store.tracks_of(value_id)
    return [(value_id, track)] if (value_id, track) in store._tracks else []


def _sort_key(obj: DBObject) -> Tuple[str, str, float, float, OID]:
    """The one total order every execution path sorts rows by: value id,
    track, start, end, then the whole OID (serials are per class, and a
    subclass row may share one)."""
    values = obj._values
    return (values[VALUE_ID], values[TRACK], values[START], values[END],
            obj.oid)


# -- execution: the two paths ---------------------------------------------
def _by_track(found: List[DBObject]) -> List[DBObject]:
    """Rows of several tracks regrouped track by track in directory
    order, each track's keeping the order it had."""
    groups: Dict[TrackKey, List[DBObject]] = {}
    for row in found:
        values = row._values
        key = values[VALUE_ID], values[TRACK]
        group = groups.get(key)
        if group is None:
            groups[key] = [row]
        else:
            group.append(row)
    regrouped: List[DBObject] = []
    for key in sorted(groups):
        regrouped += groups[key]
    return regrouped


def _reads_every(store: AnnotationStore, query: AnnotationQuery) -> bool:
    """Whether a query over every track reads the store-wide index: the
    store is empty, or the window is expected to match at most
    :data:`NARROW_PER_TRACK` postings a track.  A wider one reads track
    by track, which spares regrouping its many rows."""
    from repro.annotations.planner import estimate_track_matches
    router = store._router
    every = router.every
    return not every or estimate_track_matches(
        len(every), every.min_start(), every.max_end(), every.sum_len,
        query.op, query.lo, query.hi) <= NARROW_PER_TRACK * len(router.keys)


def _lock_tracks(store: AnnotationStore, tx: Optional[Transaction]) -> None:
    """A transaction's SHARED sentinel on every known track, in directory
    order: a read of all tracks at once (the store-wide index, a scan)
    keeps phantoms out the way the per-track walk does."""
    for track_key in (store.tracks() if tx is not None else ()):
        tx.lock(track_sentinel(*track_key), LockMode.SHARED)


def _as_read(store: AnnotationStore, query: AnnotationQuery,
             oids: Iterable[OID], tx: Transaction) -> List[DBObject]:
    """Committed rows as the transaction reads them (``tx.read`` takes a
    row's SHARED lock first), less those it has written; with writes, its
    own rows that match the query are added and all sorted by key."""
    writes = tx._writes
    rows = [tx.read(oid) for oid in oids if oid not in writes]
    if writes:
        classes = store.db.schema.subclasses_of(store.CLASS_NAME)
        rows += [row for row in writes.values() if row is not None and (
            row.oid.class_name in classes and query.matches(row._values))]
        rows.sort(key=_sort_key)
    return rows


def _run_index(store: AnnotationStore, query: AnnotationQuery,
               tx: Optional[Transaction]) -> QueryResult:
    op, lo, hi = query.op, query.lo, query.hi
    atype, payload = query.atype, query.payload
    # Window, type and payload are settled over the index's columns, whose
    # postings are the committed rows: no object table is read.
    if (query.value_id is None and query.track is None
            and _reads_every(store, query)):
        _lock_tracks(store, tx)
        found, examined = store._router.every.select(op, lo, hi, atype,
                                                     payload)
        snapshots = _by_track(found)
    else:
        snapshots = []
        examined = 0
        indexes = store._tracks
        for track_key in _candidate_tracks(store, query):
            if tx is not None:
                tx.lock(track_sentinel(*track_key), LockMode.SHARED)
            found, matched = indexes[track_key].select(op, lo, hi, atype,
                                                       payload)
            examined += matched
            snapshots += found
    # Tracks visited in sorted order, postings in key order: already
    # sorted by (value_id, track, start, end, oid).
    if tx is not None:
        snapshots = _as_read(store, query, [row.oid for row in snapshots], tx)
    return QueryResult(AnnotationRows(snapshots), "index", examined)


def _run_scan(store: AnnotationStore, query: AnnotationQuery,
              tx: Optional[Transaction]) -> QueryResult:
    _lock_tracks(store, tx)
    # Subclass rows are annotations too: the index posts them.
    oids = store.db._store.oids_of_class(
        store.db.schema.subclasses_of(store.CLASS_NAME))
    matches = query.matches
    snapshots = [obj for obj in map(store.db.get, oids)
                 if matches(obj._values)]
    if tx is not None:
        # The sentinels keep writers off every row, so a committed row
        # that does not match now cannot come to: only matches are read.
        snapshots = _as_read(store, query, [obj.oid for obj in snapshots],
                             tx)
    snapshots.sort(key=_sort_key)
    return QueryResult(AnnotationRows(snapshots), "scan", len(oids))


def run(store: AnnotationStore, query: AnnotationQuery, mode: str = "auto",
        tx: Optional[Transaction] = None) -> QueryResult:
    """Plan and execute one query; ``mode`` forces a path for A/B runs."""
    from repro.annotations.planner import plan
    decision = plan(store, query, mode)
    if decision.mode == "index":
        result = _run_index(store, query, tx)
    else:
        result = _run_scan(store, query, tx)
    result.plan = decision
    return result


# -- joins ----------------------------------------------------------------
def _probe_window(relation: str, left: Annotation) -> Tuple[str, float, float]:
    """The right-side index window answering ``left REL right``.

    The five relations read as window predicates with the *right* row's
    interval as the window — so each probe is the mirror window: rights
    overlapping the left interval, rights containing it, rights starting
    after its end, rights ending before its start, rights touching it.
    """
    if relation == "overlaps":
        return ("overlaps", left.start, left.end)
    if relation == "during":    # left inside right
        return ("contains", left.start, left.end)
    if relation == "before":    # left.end <= right.start
        return ("after", left.end, left.end)
    if relation == "after":     # left.start >= right.end
        return ("before", left.start, left.start)
    return ("meets", left.start, left.end)


def _run_join_index(store: AnnotationStore, join: AnnotationJoin,
                    lefts: Sequence) -> QueryResult:
    pairs: List[Tuple[Annotation, Annotation]] = []
    examined = 0
    right = join.right
    tracks = _candidate_tracks(store, right)
    # Every track's index shares the router's payload codes: one table.
    table = (store._router.payloads.wanted(right.payload)
             if right.payload else None)
    for left in lefts:
        op, lo, hi = _probe_window(join.relation, left)
        for track_key in tracks:
            found, _ = store._tracks[track_key].select(
                op, lo, hi, right.atype, right.payload, table)
            found = [row for row in found if row.oid != left.oid]  # not itself
            examined += len(found)
            pairs += [(left, Annotation.from_object(obj)) for obj in found]
    return QueryResult(pairs, "index", examined)


def _run_join_scan(store: AnnotationStore, join: AnnotationJoin,
                   lefts: Sequence) -> QueryResult:
    rights = _run_scan(store, join.right, None)
    right_rows = list(rights.rows)
    relation = WINDOW_OPS[join.relation]
    pairs = [(left, right)
             for left in lefts
             for right in right_rows
             if right.oid != left.oid
             and relation(left.start, left.end, right.start, right.end)]
    return QueryResult(pairs, "scan", rights.examined)


def run_join(store: AnnotationStore, join: AnnotationJoin,
             mode: str = "auto") -> QueryResult:
    """Execute ``left REL right``; pairs sorted by (left, right) keys."""
    from repro.annotations.planner import plan_join
    left_result = run(store, join.left, mode)
    decision = plan_join(store, join, len(left_result.rows), mode)
    if decision.mode == "index":
        result = _run_join_index(store, join, left_result.rows)
    else:
        result = _run_join_scan(store, join, left_result.rows)
    result.examined += left_result.examined
    result.plan = decision
    return result
