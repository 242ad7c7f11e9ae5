"""Attribute indexes.

An ordered index per indexed (class, attribute) pair, supporting equality
and range lookups, and an inverted index per keyword-indexed one for
containment queries.  Both are maintained incrementally on commit by the
database facade through the same ``insert(value, oid)`` /
``remove(value, oid)`` pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.db.objects import OID
from repro.errors import QueryError


class OrderedIndex:
    """Ordered (key -> set of OIDs) index for one attribute.

    Sorted keys beside a parallel list of OID buckets, found by bisection.
    Keys are compared and never hashed, so any totally ordered value can
    be a key.  ``None`` is never indexed, and a key leaves with the last
    OID of its bucket.
    """

    def __init__(self) -> None:
        self._keys: List[Any] = []
        self._buckets: List[Set[OID]] = []

    def __len__(self) -> int:
        return sum(map(len, self._buckets))

    def _find(self, key: Any) -> Tuple[int, bool]:
        """Where ``key`` sits or would sit, and whether it is there."""
        i = bisect_left(self._keys, key)
        return i, i < len(self._keys) and self._keys[i] == key

    def insert(self, key: Any, oid: OID) -> None:
        """Add one (key, oid) posting (None keys are not indexed)."""
        if key is None:
            return
        i, found = self._find(key)
        if found:
            self._buckets[i].add(oid)
        else:
            self._keys.insert(i, key)
            self._buckets.insert(i, {oid})

    def remove(self, key: Any, oid: OID) -> None:
        """Drop one posting; the key goes when its bucket empties."""
        if key is None:
            return
        i, found = self._find(key)
        if found:
            bucket = self._buckets[i]
            bucket.discard(oid)
            if not bucket:
                del self._keys[i], self._buckets[i]

    def clear(self) -> None:
        self._keys = []
        self._buckets = []

    # -- lookups -------------------------------------------------------------
    def eq(self, key: Any) -> Set[OID]:
        """OIDs stored under exactly ``key``."""
        i, found = self._find(key)
        return set(self._buckets[i]) if found else set()

    def range(self, lo: Optional[Any] = None, hi: Optional[Any] = None,
              include_lo: bool = True, include_hi: bool = True) -> Set[OID]:
        """OIDs with key in the given (optionally open) range."""
        if lo is not None and hi is not None and lo > hi:
            raise QueryError(f"range lower bound {lo!r} exceeds upper bound {hi!r}")
        keys = self._keys
        start = 0 if lo is None else \
            (bisect_left if include_lo else bisect_right)(keys, lo)
        end = len(keys) if hi is None else \
            (bisect_right if include_hi else bisect_left)(keys, hi)
        return set().union(*self._buckets[start:end])

    def items(self) -> Iterator[Tuple[Any, Set[OID]]]:
        """All (key, bucket) pairs in ascending key order."""
        return zip(self._keys, self._buckets)


class KeywordIndex:
    """Inverted index for content-based keyword retrieval (§2)."""

    def __init__(self) -> None:
        self._postings: Dict[str, Set[OID]] = defaultdict(set)

    @staticmethod
    def _terms(value: Any) -> List[str]:
        if value is None:
            return []
        if isinstance(value, str):
            return [t.lower() for t in value.split()]
        try:
            return [str(t).lower() for t in value]
        except TypeError:
            return [str(value).lower()]

    def insert(self, value: Any, oid: OID) -> None:
        for term in self._terms(value):
            self._postings[term].add(oid)

    def remove(self, value: Any, oid: OID) -> None:
        for term in self._terms(value):
            bucket = self._postings.get(term)
            if bucket is not None:
                bucket.discard(oid)
                if not bucket:
                    del self._postings[term]

    def clear(self) -> None:
        self._postings.clear()

    def lookup(self, term: str) -> Set[OID]:
        return set(self._postings.get(term.lower(), ()))

    def lookup_all(self, terms: List[str]) -> Set[OID]:
        """OIDs containing every term (AND semantics)."""
        if not terms:
            return set()
        result = self.lookup(terms[0])
        for term in terms[1:]:
            result &= self.lookup(term)
        return result
