"""A start-keyed B-tree with max-end augmentation for interval queries.

The classic interval-tree trick (CLRS §14.3) grafted onto
:class:`repro.db.btree.BTreeIndex`: keys are ``(start, end, serial)``
triples — unique per annotation, so key order *is* the deterministic
result order — and every node memoizes the maximum ``end`` in its
subtree.  A window query descends the tree pruning any subtree whose
``max_end`` cannot reach the window, giving O(log n + k) retrieval.

Keeping the augmentation exact through top-down splits, borrows and
merges is where hand-rolled interval trees rot.  Here the memo is
*lazy*: each node stamps the tree's mutation counter (``_mods``) when
its ``max_end`` is computed, and any later mutation bumps the counter,
invalidating every memo at once.  The first query after a write
recomputes along its path (worst case O(n), amortized over the batch of
writes); every query after that is O(log n + k) again.  Correctness
never depends on write-path bookkeeping — the memo is recomputed from
the tree itself whenever it is stale.

Tuple-key bound trick used throughout: a 1-tuple ``(t,)`` compares
*below* every ``(t, end, serial)`` triple (shorter prefix sorts first),
so it serves as an inclusive lower / exclusive upper bound on ``start``
without inventing sentinel end/serial values.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.db.btree import BTreeIndex, _Node
from repro.db.objects import OID
from repro.errors import AnnotationError

__all__ = ["IntervalIndex", "IntervalKey"]

#: (start, end, serial) — serial breaks ties so keys are unique.
IntervalKey = Tuple[float, float, int]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class _IntervalNode(_Node):
    __slots__ = ("max_end", "aug_mods")

    def __init__(self) -> None:
        super().__init__()
        self.max_end: float = _NEG_INF
        self.aug_mods: int = -1  # never equal to a live mod counter


class IntervalIndex(BTreeIndex):
    """(start, end, serial) -> {oid} with pruned window descent."""

    node_class = _IntervalNode

    def __init__(self, class_name: str = "Annotation",
                 attribute: str = "__interval__",
                 min_degree: int = 16) -> None:
        super().__init__(class_name, attribute, min_degree)

    # -- posting maintenance --------------------------------------------
    def add(self, start: float, end: float, oid: OID) -> None:
        if not start < end:
            raise AnnotationError(
                f"interval [{start!r}, {end!r}) must have start < end")
        self.insert((start, end, oid.serial), oid)

    def discard(self, start: float, end: float, oid: OID) -> None:
        self.remove((start, end, oid.serial), oid)

    def clear(self) -> None:
        # The counter stays monotonic: re-running __init__ would put it
        # back to 0, and a walk begun at _mods == k would then pass its
        # guard on a rebuilt tree after exactly k re-inserts.
        self._root = self.node_class()
        self._size = 0
        self._mods += 1

    # -- augmentation ----------------------------------------------------
    def _max_end(self, node: _IntervalNode) -> float:
        if node.aug_mods != self._mods:
            best = _NEG_INF
            for key in node.keys:
                if key[1] > best:
                    best = key[1]
            for child in node.children:
                child_best = self._max_end(child)
                if child_best > best:
                    best = child_best
            node.max_end = best
            node.aug_mods = self._mods
        return node.max_end

    def max_end(self) -> float:
        """Largest interval end in the index (-inf when empty)."""
        return self._max_end(self._root)

    def min_start(self) -> float:
        """Smallest interval start in the index (+inf when empty)."""
        key = self.min_key()
        return _POS_INF if key is None else key[0]

    # -- window walks ----------------------------------------------------
    # Every walk yields (key, sorted-oid-tuple) in ascending key order
    # and re-checks the mutation counter before each yield, exactly like
    # BTreeIndex.scan — an in-flight walk outliving a write is a bug in
    # the caller's locking, and we refuse to paper over it.
    def _guard(self, expected: int) -> None:
        if self._mods != expected:
            raise AnnotationError(
                "interval index mutated during an in-flight window walk")

    def overlapping(self, lo: float, hi: float
                    ) -> Iterator[Tuple[IntervalKey, Tuple[OID, ...]]]:
        """Intervals sharing at least an instant with ``[lo, hi)``."""
        return self._overlap_walk(self._root, lo, hi, self._mods)

    def _overlap_walk(self, node: _IntervalNode, lo: float, hi: float,
                      expected: int
                      ) -> Iterator[Tuple[IntervalKey, Tuple[OID, ...]]]:
        if self._max_end(node) <= lo:
            return  # nothing below can reach past the window's start
        children = node.children
        for i, key in enumerate(node.keys):
            if children and self._max_end(children[i]) > lo:
                yield from self._overlap_walk(children[i], lo, hi, expected)
            if key[0] >= hi:
                return  # this key and everything rightward starts too late
            if key[1] > lo:
                self._guard(expected)
                yield key, tuple(sorted(node.buckets[i]))
        if children and self._max_end(children[-1]) > lo:
            yield from self._overlap_walk(children[-1], lo, hi, expected)

    def during(self, lo: float, hi: float
               ) -> Iterator[Tuple[IntervalKey, Tuple[OID, ...]]]:
        """Intervals contained in ``[lo, hi)``: starts in range + end test."""
        return filter(lambda posting: posting[0][1] <= hi,
                      self.scan(lo=(lo,), hi=(hi,), include_hi=False))

    def before(self, lo: float
               ) -> Iterator[Tuple[IntervalKey, Tuple[OID, ...]]]:
        """Intervals ending at or before ``lo`` (they also start below it)."""
        return filter(lambda posting: posting[0][1] <= lo,
                      self.scan(hi=(lo,), include_hi=False))

    def after(self, hi: float
              ) -> Iterator[Tuple[IntervalKey, Tuple[OID, ...]]]:
        """Intervals starting at or after ``hi``."""
        return self.scan(lo=(hi,))

    def meets(self, lo: float, hi: float
              ) -> Iterator[Tuple[IntervalKey, Tuple[OID, ...]]]:
        """Intervals touching the window exactly: end == lo or start == hi.

        The two sides are disjoint (end == lo forces start < lo, and
        start == hi forces start >= hi > lo), and every left-side key
        starts below every right-side key, so chaining preserves order.
        """
        yield from self._ending_at_walk(self._root, lo, self._mods)
        yield from self.scan(lo=(hi,), hi=(hi, _POS_INF, 0))

    def _ending_at_walk(self, node: _IntervalNode, lo: float, expected: int
                        ) -> Iterator[Tuple[IntervalKey, Tuple[OID, ...]]]:
        if self._max_end(node) < lo:
            return
        children = node.children
        for i, key in enumerate(node.keys):
            if children and self._max_end(children[i]) >= lo:
                yield from self._ending_at_walk(children[i], lo, expected)
            if key[0] >= lo:
                return  # start >= lo implies end > lo: no exact touch right
            if key[1] == lo:
                self._guard(expected)
                yield key, tuple(sorted(node.buckets[i]))
        if children and self._max_end(children[-1]) >= lo:
            yield from self._ending_at_walk(children[-1], lo, expected)

    def window(self, op: str, lo: float, hi: float
               ) -> Iterator[Tuple[IntervalKey, Tuple[OID, ...]]]:
        """Dispatch one of the five window operators by name."""
        if op == "overlaps":
            return self.overlapping(lo, hi)
        if op == "during":
            return self.during(lo, hi)
        if op == "before":
            return self.before(lo)
        if op == "after":
            return self.after(hi)
        if op == "meets":
            return self.meets(lo, hi)
        raise AnnotationError(f"unknown window operator {op!r}")
