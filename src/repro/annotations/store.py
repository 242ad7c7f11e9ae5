"""The annotation store: typed annotations persisted through the db tier.

Annotations are ordinary ``Annotation``-class objects in the object
database — written through :class:`~repro.db.transactions.Transaction`
(strict 2PL, wait-die), durable when the
:class:`~repro.db.database.Database` was opened on a directory
(:mod:`repro.db.store`: write-ahead log plus snapshots).  What makes them
*queryable* is the derived interval index: the store registers a router
with :meth:`Database.attach_index`, so every committed insert/update/
delete also lands in a per-``(value_id, track)``
:class:`~repro.annotations.intervals.IntervalIndex` and in one more
index over every track's postings, which a narrow query over all tracks
reads instead of walking them — commit and index can never drift,
because both happen in :meth:`Database._reindex`.  A posting holds the
committed row itself: it *is* ``db.get(row.oid)``.

Concurrency protocol (the part the paper leaves implicit):

* every writer takes an EXCLUSIVE lock on the *track sentinel* — a
  logical OID derived from ``sha256(value_id/track)`` — before its
  per-annotation locks;
* every transactional query takes the sentinel SHARED plus a SHARED
  lock on each row it reads (``Transaction.read`` locks first); a typed
  query reads only the rows of its type.

Under wait-die, a younger writer that hits a reader's sentinel dies
(aborts, retriable) instead of changing the track under a transaction
that has read it; an older writer waits.  The index is read eagerly
(:meth:`IntervalIndex.select`), so no walk is ever in flight across a
write.

``bulk_load`` is the corpus path: chunked ``commit_ops`` straight into
the object store, postings appended to columns, and the store-wide index
and each track's cut from them after one numpy sort — the only way a
million-annotation corpus loads in seconds.
"""

from __future__ import annotations

import gc
import hashlib
from array import array
from bisect import bisect_left, insort
from itertools import accumulate, islice
from math import isfinite, log2
from typing import (Any, Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Tuple, Union)

import numpy as np

from repro.annotations.intervals import IntervalIndex, PayloadCodes, TypeCodes
from repro.annotations.model import (ATYPE, END, FIELDS, PAYLOAD, START,
                                     TRACK, VALUE_ID, Annotation,
                                     AnnotationType, Payload)
from repro.db.database import Database
from repro.db.locks import LockMode
from repro.db.objects import DBObject, OID
from repro.db.schema import AttributeSpec, ClassDef
from repro.db.store import OP_INSERT
from repro.db.transactions import Transaction
from repro.errors import AnnotationError
from repro.obs import Obs, attach

__all__ = ["AnnotationStore", "TrackStats", "track_sentinel"]

TrackKey = Tuple[str, str]


class _Loaded(NamedTuple):
    """Bulk-loaded postings on their way to the indexes, in load order."""

    starts: array
    ends: array
    rows: List[DBObject]
    types: bytearray    # each row's type code
    payloads: array     # each row's payload code
    slots: array        # each row's track, as its number in ``tracks``
    tracks: Dict[TrackKey, int]


def track_sentinel(value_id: str, track: str) -> OID:
    """The logical OID a track's scans and writers arbitrate through.

    Derived with SHA-256 (never ``hash()``, which is salted per process)
    so the sentinel is stable across runs and processes.
    """
    digest = hashlib.sha256(f"{value_id}/{track}".encode()).digest()
    return OID("AnnotationTrack", int.from_bytes(digest[:8], "big") >> 1)


class TrackStats(NamedTuple):
    """Planner-facing summary of one (value_id, track) index."""

    count: int
    min_start: float
    max_end: float
    sum_len: float

    @property
    def extent(self) -> float:
        return max(self.max_end - self.min_start, 0.0)

    @property
    def avg_len(self) -> float:
        return self.sum_len / self.count if self.count else 0.0


class _IntervalRouter:
    """Derived-index target: owns the per-track indexes, their keys in
    sorted order (the track directory every multi-track read walks; a
    key is put in place when its track is created), ``every``, one
    more index over the postings of all tracks, whose size is the
    store's, and :meth:`summaries`, one row per track for the planner.

    The router must not refer back to the :class:`AnnotationStore`.  The
    store reaches it through ``Database._derived``, so a back reference
    closes a cycle and a dropped store (a whole corpus) is then freed
    only by the cyclic collector, which :meth:`AnnotationStore.bulk_load`
    pauses.
    """

    def __init__(self) -> None:
        self.tracks: Dict[TrackKey, IntervalIndex] = {}
        self.keys: List[TrackKey] = []
        self.codes = TypeCodes()  # one table for every index's type column
        self.payloads = PayloadCodes()  # and one for its payload column
        self.every = self._index()
        #: :meth:`summaries`' rows; ``stale``: keys whose row a write outdated.
        self._summaries: Optional[np.ndarray] = None
        self.stale: set = set()

    def _index(self) -> IntervalIndex:
        index = IntervalIndex()
        index.codes, index.payloads = self.codes, self.payloads
        return index

    def track_index(self, value_id: str, track: str) -> IntervalIndex:
        """The index of one track, created empty on first use."""
        key = (value_id, track)
        index = self.tracks.get(key)
        if index is None:
            index = self.tracks[key] = self._index()
            insort(self.keys, key)
            self._summaries = None
        return index

    def insert(self, key, obj: DBObject) -> None:
        value_id, track, start, end = key
        if self.track_index(value_id, track).add(start, end, obj):
            self.every.add(start, end, obj)
            self.stale.add((value_id, track))

    def remove(self, key, obj: DBObject) -> None:
        value_id, track, start, end = key
        index = self.tracks.get((value_id, track))
        if index is not None and index.discard(start, end, obj):
            self.every.discard(start, end, obj)
            self.stale.add((value_id, track))

    def clear(self) -> None:
        self.tracks.clear()
        self.keys.clear()
        self.every = self._index()
        self._summaries = None

    def summaries(self) -> np.ndarray:
        """Each track's count, first start, max end, summed lengths and
        ``log2(count + 1)``, a row per key in order: stale rows refreshed,
        or all built after a new track or ``clear``, never in a bulk load."""
        keys, rows = self.keys, self._summaries
        if rows is None:
            rows = self._summaries = np.empty((len(keys), 5))
            self.stale = set(keys)
        for key in self.stale:
            index = self.tracks[key]
            count = len(index)
            # ``math.log2``: numpy's log2 can differ from it in the last bit.
            rows[bisect_left(keys, key)] = (count, index.min_start(), index.max_end(),
                                            index.sum_len, log2(count + 1))
        self.stale.clear()
        return rows


def _interval_key(obj: DBObject):
    values = obj._values
    return (values[VALUE_ID], values[TRACK], values[START], values[END])


class AnnotationStore:
    """Typed annotations + per-track interval indexes over a Database."""

    CLASS_NAME = "Annotation"

    def __init__(self, db: Optional[Database] = None,
                 obs: Optional[Obs] = None) -> None:
        self.obs = attach(obs)
        self.db = db if db is not None else Database(obs=self.obs)
        self._types: Dict[str, AnnotationType] = {}
        #: Query description -> the (mode, forced, tracks) last logged for it.
        self._verdicts: Dict[str, Tuple[str, bool, int]] = {}
        self._router = _IntervalRouter()
        #: The router's own dict (it is cleared in place, never rebound).
        self._tracks = self._router.tracks
        # Declared here and nowhere else: the readers go by position.
        self.db.define_class(ClassDef(self.CLASS_NAME, attributes=[
            AttributeSpec(name, kind, required=True) for name, kind in zip(
                FIELDS, (str, str, str, float, float, tuple))]))
        self.db.attach_index("annotations.intervals", self.CLASS_NAME,
                             self._router, _interval_key)
        metrics = self.obs.metrics
        self._m_added = metrics.counter("annotations.added")
        self._m_removed = metrics.counter("annotations.removed")
        self._m_bulk = metrics.counter("annotations.bulk_loaded")
        #: Planner mode -> its ``annotations.plans_<mode>`` counter.
        self._m_plans: Dict[str, Any] = {}

    # -- types -----------------------------------------------------------
    def define_type(self, atype: AnnotationType) -> AnnotationType:
        if atype.name in self._types:
            raise AnnotationError(
                f"annotation type {atype.name!r} already defined")
        self._types[atype.name] = atype
        return atype

    def type(self, name: str) -> AnnotationType:
        try:
            return self._types[name]
        except KeyError:
            raise AnnotationError(f"unknown annotation type {name!r}") from None

    def types(self) -> List[str]:
        return sorted(self._types)

    # -- writes ----------------------------------------------------------
    def _check_interval(self, start: float, end: float) -> None:
        if not (isinstance(start, float) and isinstance(end, float)):
            raise AnnotationError("interval endpoints must be floats")
        if not (isfinite(start) and isfinite(end)):
            raise AnnotationError(
                f"annotation interval [{start!r}, {end!r}) must have "
                f"finite endpoints")
        if not start < end:
            raise AnnotationError(
                f"annotation interval [{start!r}, {end!r}) must have "
                f"start < end (zero-length annotations are not allowed)")

    def annotate(self, value_id: str, track: str, atype: str,
                 start: float, end: float,
                 payload: Union[Mapping[str, Any], Payload, None] = None,
                 tx: Optional[Transaction] = None) -> OID:
        """Insert one annotation (autocommits unless given a transaction)."""
        self._check_interval(start, end)
        canonical = self.type(atype).validate_payload(payload)
        if tx is None:
            with self.db.begin() as own:
                return self.annotate(value_id, track, atype, start, end,
                                     canonical, tx=own)
        # Sentinel first, per-annotation lock second — the fixed order
        # every writer and reader shares, so wait-die sees the conflict
        # at the track granularity before any posting is at risk.
        tx.lock(track_sentinel(value_id, track), LockMode.EXCLUSIVE)
        oid = tx.insert(self.CLASS_NAME, value_id=value_id, track=track,
                        atype=atype, start=start, end=end, payload=canonical)
        self._m_added.inc()
        return oid

    def remove(self, oid: OID, tx: Optional[Transaction] = None) -> None:
        """Delete one annotation (autocommits unless given a transaction)."""
        if tx is None:
            with self.db.begin() as own:
                self.remove(oid, tx=own)
            return
        ann = self.read(oid, tx)
        tx.lock(track_sentinel(ann.value_id, ann.track), LockMode.EXCLUSIVE)
        tx.delete(oid)
        self._m_removed.inc()

    # -- reads -----------------------------------------------------------
    def _hydrate(self, obj: DBObject) -> Annotation:
        name = obj.oid.class_name
        if not (name == self.CLASS_NAME
                or self.db.schema.is_subclass(name, self.CLASS_NAME)):
            raise AnnotationError(
                f"{obj.oid} is a {name}, not an annotation")
        return Annotation.from_object(obj)

    def read(self, oid: OID, tx: Transaction) -> Annotation:
        return self._hydrate(tx.read(oid))

    def __len__(self) -> int:
        return len(self._router.every)

    def tracks(self) -> List[TrackKey]:
        return self._router.keys[:]

    def tracks_of(self, value_id: str) -> List[TrackKey]:
        keys = self._router.keys
        # Every (value_id, track) sorts after (value_id,) and before
        # (value_id + "\0",), and every other value's keys outside them.
        return keys[bisect_left(keys, (value_id,)):
                    bisect_left(keys, (value_id + "\0",))]

    def track_stats(self, value_id: str, track: str) -> TrackStats:
        index = self._tracks.get((value_id, track))
        if index is None or not len(index):
            return TrackStats(0, 0.0, 0.0, 0.0)
        return TrackStats(len(index), index.min_start(), index.max_end(),
                          index.sum_len)

    def track_index(self, value_id: str, track: str) -> IntervalIndex:
        """The live interval index of one track (read-only to callers)."""
        index = self._tracks.get((value_id, track))
        if index is None:
            raise AnnotationError(f"no annotations on {value_id}/{track}")
        return index

    # -- bulk corpus loading --------------------------------------------
    def bulk_load(self, rows: Iterable[Tuple[str, str, str, float, float,
                                             Payload]],
                  chunk: int = 50_000) -> int:
        """Load many annotations fast: chunked commits + O(n) index builds.

        Rows are ``(value_id, track, atype, start, end, payload)`` with
        the payload already in canonical sorted-pairs form.  The load is
        validated per row (type registered, start < end) but skips the
        per-object schema walk and per-row locking of the transactional
        path — this is a corpus loader for a store without concurrent
        writers, not an online write path.  An empty index (a fresh
        track's, or the store-wide one of an empty store) is cut
        straight from the sorted columns; one that already has postings
        takes the new ones one at a time.

        A chunk is validated whole before its OIDs are reserved, so a
        bad row commits nothing of its chunk and burns no serial; the
        chunks committed before it are indexed before the error leaves.

        The cyclic collector is paused for the load: rows, objects and
        postings form no cycles, so its full passes over a growing heap
        free nothing and cost as much as the load itself.
        """
        store = self.db._store
        layout = store.layout(FIELDS)
        types = self._types
        codes, payload_codes = self._router.codes, self._router.payloads
        check_interval = self._check_interval
        loaded = _Loaded(array("d"), array("d"), [], bytearray(), array("H"),
                         array("q"), {})
        starts, ends, objs, atypes, payloads, slots, tracks = loaded
        rows = iter(rows)
        size = max(chunk, 1)
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                batch = list(islice(rows, size))
                if not batch:
                    break
                for _, _, atype, start, end, _ in batch:
                    if atype not in types:
                        raise AnnotationError(
                            f"unknown annotation type {atype!r}")
                    check_interval(start, end)
                oids = store.next_oids(self.CLASS_NAME, len(batch))
                ops = [(OP_INSERT, DBObject(oid, layout, tuple(row)))
                       for oid, row in zip(oids, batch)]
                store.commit_ops(next(self.db._tx_ids), ops)
                self.db.stats["commits"] += 1
                # Posted as committed: a posting's row is the table's row.
                starts.extend([row[START] for row in batch])
                ends.extend([row[END] for row in batch])
                objs += [obj for _, obj in ops]
                atypes.extend([codes[row[ATYPE]] for row in batch])
                payloads.extend([payload_codes.code(row[PAYLOAD])
                                 for row in batch])
                slots.extend([tracks.setdefault((row[VALUE_ID], row[TRACK]),
                                                len(tracks))
                              for row in batch])
        finally:
            try:
                self._index_loaded(loaded)
            finally:
                if collecting:
                    gc.enable()
        self._m_bulk.inc(len(objs))
        return len(objs)

    def _index_loaded(self, loaded: _Loaded) -> None:
        """Post committed bulk rows to their tracks' interval indexes and
        to the store-wide one, all cut from one sort."""
        router = self._router
        # Key order: start, end, then the OID.  One load's OIDs are one
        # class's rising serials, so on a tie the stable sort keeps load
        # order, which is OID order.
        order = np.lexsort((np.frombuffer(loaded.ends),
                            np.frombuffer(loaded.starts)))
        rows = np.fromiter(loaded.rows, object, len(loaded.rows))
        router.every.extend_sorted(*_sorted_columns(loaded, rows, order))
        # The same order split by track, stably: each track keeps it.
        slots = np.frombuffer(loaded.slots, np.int64)
        columns = _sorted_columns(loaded, rows, order[np.argsort(
            slots[order], kind="stable")])
        counts = np.bincount(slots, minlength=len(loaded.tracks)).tolist()
        after = list(accumulate(counts))
        for key in sorted(loaded.tracks):
            slot = loaded.tracks[key]
            cut = slice(after[slot] - counts[slot], after[slot])
            router.track_index(*key).extend_sorted(
                *(column[cut] for column in columns))
        router.stale.update(loaded.tracks)


def _sorted_columns(loaded: _Loaded, rows: np.ndarray, order: np.ndarray
                    ) -> Tuple[array, array, List[DBObject], bytes, array]:
    """The loaded postings' columns (``rows`` as an object array),
    reordered by ``order``."""
    return (array("d", np.frombuffer(loaded.starts)[order].tobytes()),
            array("d", np.frombuffer(loaded.ends)[order].tobytes()),
            rows[order].tolist(),
            np.frombuffer(loaded.types, np.uint8)[order].tobytes(),
            array("H", np.frombuffer(loaded.payloads, np.uint16)[order].tobytes()))
