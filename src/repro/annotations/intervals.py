"""A columnar, covering per-track interval index.

One track's postings, sorted by ``(start, end, oid)`` — unique per
annotation, so key order *is* the deterministic result order — and kept
as parallel columns: ``array('d')`` starts and ends, the committed rows
(the object table's own ``DBObject`` snapshots), a byte of type code and
a ``uint16`` payload code each, 27 bytes a posting.  The columns are cut
into blocks of at most :data:`BLOCK_CAPACITY` postings so that a write
moves one block, never the track; beside each block sit its first key
(the routing table a bisect reads) and the largest end in it.

A window is a range of *starts*, found by two bisects, plus a test on
each posting's *end*; every operator is one or two such ranges (see
:meth:`IntervalIndex._pieces`).  A block's max-end settles the end
test for the whole block where it can — every end passes, or none can.
:meth:`IntervalIndex.select` is the one read, and the one place a
window's end, type and payload tests run: over a longer piece as one
numpy mask on zero-copy views of the columns, over a piece of a few
postings one posting at a time.  It hands the window's rows back as one
list, which spares the query executor the object table.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress
from operator import eq, ge, gt, le, sub
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.annotations.model import ATYPE, PAYLOAD, Payload
from repro.db.objects import DBObject, OID
from repro.errors import AnnotationError

__all__ = ["BLOCK_CAPACITY", "IntervalIndex", "NARROW_PER_TRACK", "PayloadCodes", "TypeCodes"]

#: Most postings one block holds; a fuller block is cut in two.
BLOCK_CAPACITY = 512
#: What a split or a bulk build leaves in a block, and the most two
#: neighbours may hold together to be merged after a removal.
_HALF = BLOCK_CAPACITY // 2

#: The most postings a piece may hold and still be tested one at a time,
#: not masked (EXPERIMENTS.md, Exp. P17 measures the crossover).
SHORT_PIECE = 32

#: A query over every track reads one store-wide index, not each track's,
#: when its window is expected to match at most this many postings per
#: track (EXPERIMENTS.md, Exp. P16 measures the crossover).
NARROW_PER_TRACK = 16

_NEG_INF = float("-inf")
_POS_INF = float("inf")
#: The last type code: "some other type, read it off the row".
_OTHER = 255
#: Payload codes a posting's ``uint16`` column spells; code 0 means "some
#: other payload, read it off the row".
PAYLOAD_CODES = 1 << 16

#: (block, offset): where a key falls in the blocked columns.
_Position = Tuple[int, int]
#: (block, from, to, test, bound): a slice of one block's columns and the
#: test(end, bound) its ends have yet to pass (None: max-end settled it).
_Piece = Tuple["_Block", int, int, Optional[Callable], float]


class TypeCodes(dict):
    """Type name -> its byte in a type column, assigned at first sight and
    never persisted.  Types past the 255th share :data:`_OTHER`, so a code
    always fits its byte and no write fails on one."""

    def __missing__(self, atype: str) -> int:
        code = self[atype] = min(len(self), _OTHER)
        return code


class PayloadCodes(dict):
    """Payload -> its code in a ``uint16`` column, from 1 at first sight and
    never persisted; ``holding``: each pair of a coded payload -> its codes.
    A payload that is no hashable tuple, or comes past :data:`PAYLOAD_CODES`,
    is coded 0 and tested on its row."""

    def __init__(self) -> None:
        super().__init__()
        self.holding: Dict[Any, List[int]] = {}
        self.crowded = False  # whether a posting was ever coded 0

    def __missing__(self, payload: Any) -> int:
        if type(payload) is not tuple or len(self) + 1 >= PAYLOAD_CODES:
            self.crowded = True
            return 0
        code = self[payload] = len(self) + 1
        for pair in payload:
            self.holding.setdefault(pair, []).append(code)
        return code

    def code(self, payload: Any) -> int:
        try:
            return self[payload]
        except TypeError:  # unhashable (a list value): "other", as no tuple is
            return self.__missing__(None)

    def wanted(self, pairs: Payload) -> Optional[bytearray]:
        """Code -> 1 if its payload holds every pair (code 0 always: its
        row decides); None if a pair is unhashable."""
        try:
            first, *rest = [self.holding.get(pair, ()) for pair in pairs]
        except TypeError:
            return None
        table = bytearray(len(self) + 1)
        table[0] = 1
        for code in set(first).intersection(*rest) if rest else first:
            table[code] = 1
        return table


class _Block:
    __slots__ = ("starts", "ends", "rows", "types", "payloads", "max_end")

    def __init__(self, starts: array, ends: array, rows: List[DBObject],
                 types: bytearray, payloads: array) -> None:
        self.starts = starts
        self.ends = ends
        self.rows = rows
        self.types = types
        self.payloads = payloads
        self.max_end: float = max(ends, default=_NEG_INF)


class IntervalIndex:
    """(start, end, oid) -> row postings of one track, in columns."""

    __slots__ = ("codes", "payloads", "_blocks", "_mins", "_size", "_max_end", "sum_len")

    def __init__(self) -> None:
        self.codes = TypeCodes()  # a store's router rebinds it to a shared one
        self.payloads = PayloadCodes()  # and this one
        self._blocks: List[_Block] = []
        #: First (start, end, oid) of each block: the table ``_seek`` bisects.
        self._mins: List[Tuple[float, float, OID]] = []
        self._size = 0
        self._max_end = _NEG_INF
        #: Sum of ``end - start`` over the postings (a planner input).
        self.sum_len = 0.0

    def __len__(self) -> int:
        return self._size

    # -- positions -------------------------------------------------------
    def _seek(self, start: float, end: float = _NEG_INF,
              oid: Tuple = ()) -> _Position:
        """Where the first posting with a key >= the given one sits.

        With the default ``end`` that is the first posting starting at
        or after ``start``; with ``end=inf`` the first starting after it.
        The offset may be one past the block's last posting, which reads
        as the head of the next block.
        """
        blocks = self._blocks
        if not blocks:
            return 0, 0
        # From the second first key on: a key below the first is block 0's.
        b = (bisect_right(self._mins, (start, end, oid), 1) - 1
             if len(blocks) > 1 else 0)
        block = blocks[b]
        starts = block.starts
        i = bisect_left(starts, start)
        if end > _NEG_INF:
            ends, rows, n = block.ends, block.rows, len(starts)
            while (i < n and starts[i] == start
                   and (ends[i], rows[i].oid) < (end, oid)):
                i += 1
        return b, i

    # -- posting maintenance --------------------------------------------
    def add(self, start: float, end: float, row: DBObject) -> bool:
        """Post one committed row; False if its posting was already there."""
        if not _NEG_INF < start < end < _POS_INF:
            raise AnnotationError(
                f"interval [{start!r}, {end!r}) must have finite "
                f"start < end")
        fresh = self._insert(start, end, row.oid, row, self.codes[row._values[ATYPE]],
                             self.payloads.code(row._values[PAYLOAD]))
        if fresh:
            self.sum_len += end - start
        return fresh

    def _insert(self, start: float, end: float, oid: OID, row: DBObject,
                code: int, payload: int) -> bool:
        """Put one posting in place; False if it was already there."""
        if not self._blocks:
            self._blocks.append(_Block(array("d"), array("d"), [],
                                       bytearray(), array("H")))
            self._mins.append((start, end, oid))
        b, i = self._seek(start, end, oid)
        block = self._blocks[b]
        starts, ends, rows = block.starts, block.ends, block.rows
        if (i < len(rows) and rows[i].oid == oid and starts[i] == start
                and ends[i] == end):
            return False
        starts.insert(i, start)
        ends.insert(i, end)
        rows.insert(i, row)
        block.types.insert(i, code)
        block.payloads.insert(i, payload)
        self._size += 1
        if i == 0:
            self._mins[b] = (start, end, oid)
        if end > block.max_end:
            block.max_end = end
            if end > self._max_end:
                self._max_end = end
        if len(rows) > BLOCK_CAPACITY:
            upper = _Block(starts[_HALF:], ends[_HALF:], rows[_HALF:],
                           block.types[_HALF:], block.payloads[_HALF:])
            for column in starts, ends, rows, block.types, block.payloads:
                del column[_HALF:]
            block.max_end = max(ends)
            self._blocks.insert(b + 1, upper)
            self._mins.insert(b + 1, (upper.starts[0], upper.ends[0],
                                      upper.rows[0].oid))
        return True

    def discard(self, start: float, end: float, row: DBObject) -> bool:
        """Drop one row's posting; False (and no write) if it is not there."""
        blocks = self._blocks
        if not blocks:
            return False
        b, i = self._seek(start, end, row.oid)
        block = blocks[b]
        starts, ends, rows = block.starts, block.ends, block.rows
        if not (i < len(rows) and rows[i].oid == row.oid
                and starts[i] == start and ends[i] == end):
            return False
        del starts[i], ends[i], rows[i], block.types[i], block.payloads[i]
        self._size -= 1
        self.sum_len -= end - start
        if not rows:
            del blocks[b], self._mins[b]
        else:
            if i == 0:
                self._mins[b] = (starts[0], ends[0], rows[0].oid)
            if end == block.max_end:
                block.max_end = max(ends)
            for left in (b, b - 1):
                if (0 <= left < len(blocks) - 1
                        and len(blocks[left].rows)
                        + len(blocks[left + 1].rows) <= _HALF):
                    self._merge(left)
                    break
        if end == self._max_end:
            self._max_end = max((blk.max_end for blk in blocks),
                                default=_NEG_INF)
        return True

    def _merge(self, left: int) -> None:
        """Fold block ``left + 1`` into block ``left``."""
        into, upper = self._blocks[left], self._blocks[left + 1]
        into.starts.extend(upper.starts)
        into.ends.extend(upper.ends)
        into.rows.extend(upper.rows)
        into.types.extend(upper.types)
        into.payloads.extend(upper.payloads)
        into.max_end = max(into.max_end, upper.max_end)
        del self._blocks[left + 1], self._mins[left + 1]

    def extend_sorted(self, starts: array, ends: array,
                      rows: List[DBObject], types: bytes,
                      payloads: array) -> None:
        """Add many postings handed over as parallel columns in key order,
        ``types`` and ``payloads`` (an ``array('H')``) spelling each row's
        type in :attr:`codes` and payload in :attr:`payloads`.  An empty
        index is cut straight into blocks, a populated one one at a time."""
        if self._blocks:  # a posting already there adds no length
            self.sum_len += sum([
                ends[k] - starts[k] for k, row in enumerate(rows)
                if self._insert(starts[k], ends[k], row.oid, row, types[k],
                                payloads[k])])
        else:
            for at in range(0, len(rows), _HALF):
                block = _Block(starts[at:at + _HALF], ends[at:at + _HALF],
                               rows[at:at + _HALF],
                               bytearray(types[at:at + _HALF]),
                               payloads[at:at + _HALF])
                self._blocks.append(block)
                self._mins.append((block.starts[0], block.ends[0],
                                   block.rows[0].oid))
            self._size = len(rows)
            self._max_end = max((block.max_end for block in self._blocks),
                                default=_NEG_INF)
            self.sum_len += sum(map(sub, ends, starts))

    # -- O(1) summaries --------------------------------------------------
    def min_start(self) -> float:
        """Smallest interval start in the index (+inf when empty)."""
        return self._mins[0][0] if self._mins else _POS_INF

    def max_end(self) -> float:
        """Largest interval end in the index (-inf when empty)."""
        return self._max_end

    # -- the one read ----------------------------------------------------
    def _pieces(self, op: Optional[str], lo: float,
                hi: float) -> List[_Piece]:
        """A window operator as start ranges with an end test each.

        ======== ============================ ==========================
        op       starts                       end test
        ======== ============================ ==========================
        None     all                          —
        during   ``lo <= s < hi``             ``e <= hi``
        before   ``s < lo``                   ``e <= lo``
        after    ``s >= hi``                  —
        overlaps ``s < lo``, then             ``e > lo``
                 ``lo <= s < hi``             — (``e > s >= lo``)
        meets    ``s < lo``, then             ``e == lo``
                 ``s == hi``                  —
        contains ``s <= lo``                  ``e >= hi``
        ======== ============================ ==========================

        The two ranges of one operator are disjoint and ascending, so
        chaining them keeps key order.
        """
        lo, hi = float(lo), float(hi)  # one bound, per posting or masked
        # Methods called on self, not bound to locals: a query over every
        # track runs this once a track.
        if op == "during":
            return self._cut(self._seek(lo), self._seek(hi), le, hi, True)
        if op is None:
            return self._cut((0, 0), (len(self._blocks), 0))
        if op == "before":
            return self._cut((0, 0), self._seek(lo), le, lo, True)
        if op == "after":
            return self._cut(self._seek(hi), (len(self._blocks), 0))
        if op == "overlaps":
            at_lo = self._seek(lo)
            return (self._cut((0, 0), at_lo, gt, lo)
                    + self._cut(at_lo, self._seek(hi)))
        if op == "meets":
            return (self._cut((0, 0), self._seek(lo), eq, lo)
                    + self._cut(self._seek(hi), self._seek(hi, _POS_INF)))
        if op == "contains":
            return self._cut((0, 0), self._seek(lo, _POS_INF), ge, hi)
        raise AnnotationError(f"unknown window operator {op!r}")

    def _cut(self, begin: _Position, finish: _Position,
             test: Optional[Callable] = None, bound: float = 0.0,
             capped: bool = False) -> List[_Piece]:
        """``(block, from, to, test, bound)`` per block that ``[begin, finish)`` reaches.

        An end passes if ``test(end, bound)``.  ``capped`` says the test
        is ``le``: a block whose max-end is within the bound passes
        whole, and its piece carries no test.  Otherwise the end must
        reach ``bound``, and a block whose max-end falls short is left out.
        """
        (b0, i0), (b1, i1) = begin, finish
        blocks = self._blocks
        pieces: List[_Piece] = []
        for b in range(b0, b1 + 1):
            # Offsets first: ``finish`` may be the head of no block at all.
            i = i0 if b == b0 else 0
            j = i1 if b == b1 else len(blocks[b].rows)
            if i >= j:
                continue
            block = blocks[b]
            if test is None or (capped and block.max_end <= bound):
                pieces.append((block, i, j, None, bound))
            elif capped or block.max_end >= bound:
                pieces.append((block, i, j, test, bound))
        return pieces

    def select(self, op: Optional[str] = None, lo: float = 0.0,
               hi: float = 0.0, atype: Optional[str] = None,
               payload: Payload = (),
               table: Optional[bytearray] = None) -> Tuple[List[DBObject], int]:
        """The window's rows of ``atype`` (None: any) whose payload holds
        every pair of ``payload``, in key order, and how many postings the
        window matched before the type and payload tests.  A short piece
        with a test to pass is tested posting by posting; any other piece
        with one as one numpy mask over its columns.  ``table`` is
        ``payloads.wanted(payload)`` when the caller, a join probing many
        windows for one payload, has built it once."""
        found: List[DBObject] = []
        matched = 0
        # A type never posted passes for "other" and fails on the row.
        code = None if atype is None else self.codes.get(atype, _OTHER)
        if payload and table is None:
            table = self.payloads.wanted(payload)
        for block, i, j, test, bound in self._pieces(op, lo, hi):
            if test is None and code is None and table is None:
                matched += j - i
                found += block.rows[i:j]
            elif j - i <= SHORT_PIECE:
                rows, ends = block.rows, block.ends
                types, payloads = block.types, block.payloads
                for k in range(i, j):
                    if test is None or test(ends[k], bound):
                        matched += 1
                        if ((code is None or types[k] == code)
                                and (table is None or table[payloads[k]])):
                            found.append(rows[k])
            else:
                mask = (True if test is None
                        else test(np.frombuffer(block.ends)[i:j], bound))
                matched += j - i if test is None else mask.tobytes().count(1)
                if code is not None:
                    mask &= np.frombuffer(block.types, np.uint8)[i:j] == code
                if table is not None:
                    mask &= np.frombuffer(table, np.bool_)[np.frombuffer(
                        block.payloads, np.uint16)[i:j]]
                found += compress(block.rows[i:j], mask.tobytes())
        if code == _OTHER:
            found = [row for row in found if row._values[ATYPE] == atype]
        if payload and (table is None or self.payloads.crowded):
            found = [row for row in found if all(
                pair in row._values[PAYLOAD] for pair in payload)]
        return found, matched

    # -- invariants (used by property tests) ------------------------------
    def check_invariants(self) -> None:
        """Assert the block invariant; raises AssertionError."""
        keys: List[Tuple[float, float, OID]] = []
        assert len(self._mins) == len(self._blocks)
        for first, block in zip(self._mins, self._blocks):
            n = len(block.rows)
            assert 0 < n <= BLOCK_CAPACITY, "empty or overfull block"
            assert len(block.starts) == len(block.ends) == n
            assert block.max_end == max(block.ends), "stale block max-end"
            assert first == (block.starts[0], block.ends[0],
                             block.rows[0].oid), "stale block first key"
            assert list(block.types) == [self.codes.get(
                row._values[ATYPE]) for row in block.rows], "stale type column"
            assert list(block.payloads) == [self.payloads.code(row._values[
                PAYLOAD]) for row in block.rows], "stale payload column"
            keys.extend(zip(block.starts, block.ends,
                            (row.oid for row in block.rows)))
        assert keys == sorted(set(keys)), "postings out of key order"
        assert len(keys) == self._size
        assert self._max_end == max((key[1] for key in keys),
                                    default=_NEG_INF), "stale index max-end"
