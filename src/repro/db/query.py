"""Predicate language and query planning.

Queries follow the paper's pattern::

    select Newscast where (title = "60 Minutes" and whenBroadcast = someDate)

expressed as composable predicate objects::

    db.select("Newscast", Q.eq("title", "60 Minutes") & Q.eq("whenBroadcast", date))

Results are OIDs — "queries may return references ... rather than the
values themselves" (§3.1).  Each predicate can propose an *index plan*
(a candidate OID superset from the ordered/keyword indexes); the engine
intersects plans across conjunctions and falls back to a class scan when
no index applies.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, Set

from repro.db.index import KeywordIndex, OrderedIndex
from repro.db.objects import DBObject, OID
from repro.errors import QueryError

IndexMap = Dict[str, OrderedIndex]
KeywordMap = Dict[str, KeywordIndex]


class Predicate(abc.ABC):
    """A boolean condition over one object."""

    @abc.abstractmethod
    def matches(self, obj: DBObject) -> bool: ...

    def index_plan(self, indexes: IndexMap, keywords: KeywordMap) -> Optional[Set[OID]]:
        """Candidate OID superset from indexes, or None (no index help)."""
        return None

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


class True_(Predicate):
    def matches(self, obj: DBObject) -> bool:
        return True


class Compare(Predicate):
    """Attribute comparison against a constant."""

    _OPS: Dict[str, Callable[[Any, Any], bool]] = {
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a is not None and a < b,
        "<=": lambda a, b: a is not None and a <= b,
        ">": lambda a, b: a is not None and a > b,
        ">=": lambda a, b: a is not None and a >= b,
    }

    def __init__(self, attribute: str, op: str, value: Any) -> None:
        if op not in self._OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.attribute = attribute
        self.op = op
        self.value = value

    def matches(self, obj: DBObject) -> bool:
        return self._OPS[self.op](obj.get(self.attribute), self.value)

    def index_plan(self, indexes: IndexMap, keywords: KeywordMap) -> Optional[Set[OID]]:
        index = indexes.get(self.attribute)
        if index is None or self.value is None:
            return None  # no index holds None
        if self.op == "==":
            return index.eq(self.value)
        if self.op == "<":
            return index.range(hi=self.value, include_hi=False)
        if self.op == "<=":
            return index.range(hi=self.value)
        if self.op == ">":
            return index.range(lo=self.value, include_lo=False)
        if self.op == ">=":
            return index.range(lo=self.value)
        return None  # != cannot use an ordered index usefully

    def __repr__(self) -> str:
        return f"Q({self.attribute} {self.op} {self.value!r})"


class Between(Predicate):
    def __init__(self, attribute: str, lo: Any, hi: Any) -> None:
        if lo > hi:
            raise QueryError(f"between bounds reversed: {lo!r} > {hi!r}")
        self.attribute = attribute
        self.lo = lo
        self.hi = hi

    def matches(self, obj: DBObject) -> bool:
        value = obj.get(self.attribute)
        return value is not None and self.lo <= value <= self.hi

    def index_plan(self, indexes: IndexMap, keywords: KeywordMap) -> Optional[Set[OID]]:
        index = indexes.get(self.attribute)
        if index is None:
            return None
        return index.range(lo=self.lo, hi=self.hi)


class Contains(Predicate):
    """Keyword containment (content-based retrieval)."""

    def __init__(self, attribute: str, terms: List[str]) -> None:
        if not terms:
            raise QueryError("contains requires at least one term")
        self.attribute = attribute
        self.terms = [t.lower() for t in terms]

    def matches(self, obj: DBObject) -> bool:
        value = obj.get(self.attribute)
        haystack = KeywordIndex._terms(value)
        return all(term in haystack for term in self.terms)

    def index_plan(self, indexes: IndexMap, keywords: KeywordMap) -> Optional[Set[OID]]:
        index = keywords.get(self.attribute)
        if index is None:
            return None
        return index.lookup_all(self.terms)


class Like(Predicate):
    """Substring match on a string attribute (no index support)."""

    def __init__(self, attribute: str, fragment: str) -> None:
        self.attribute = attribute
        self.fragment = fragment.lower()

    def matches(self, obj: DBObject) -> bool:
        value = obj.get(self.attribute)
        return isinstance(value, str) and self.fragment in value.lower()


class IsNull(Predicate):
    def __init__(self, attribute: str) -> None:
        self.attribute = attribute

    def matches(self, obj: DBObject) -> bool:
        return obj.get(self.attribute) is None


class And(Predicate):
    def __init__(self, left: Predicate, right: Predicate) -> None:
        self.left = left
        self.right = right

    def matches(self, obj: DBObject) -> bool:
        return self.left.matches(obj) and self.right.matches(obj)

    def index_plan(self, indexes: IndexMap, keywords: KeywordMap) -> Optional[Set[OID]]:
        left = self.left.index_plan(indexes, keywords)
        right = self.right.index_plan(indexes, keywords)
        if left is not None and right is not None:
            return left & right
        return left if left is not None else right

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


class Or(Predicate):
    def __init__(self, left: Predicate, right: Predicate) -> None:
        self.left = left
        self.right = right

    def matches(self, obj: DBObject) -> bool:
        return self.left.matches(obj) or self.right.matches(obj)

    def index_plan(self, indexes: IndexMap, keywords: KeywordMap) -> Optional[Set[OID]]:
        left = self.left.index_plan(indexes, keywords)
        right = self.right.index_plan(indexes, keywords)
        if left is None or right is None:
            return None  # one side needs a scan anyway
        return left | right


class Not(Predicate):
    def __init__(self, inner: Predicate) -> None:
        self.inner = inner

    def matches(self, obj: DBObject) -> bool:
        return not self.inner.matches(obj)


class Q:
    """Predicate factory: ``Q.eq("title", "60 Minutes") & Q.gt("year", 1990)``."""

    @staticmethod
    def true() -> Predicate:
        return True_()

    @staticmethod
    def eq(attribute: str, value: Any) -> Predicate:
        return Compare(attribute, "==", value)

    @staticmethod
    def ne(attribute: str, value: Any) -> Predicate:
        return Compare(attribute, "!=", value)

    @staticmethod
    def lt(attribute: str, value: Any) -> Predicate:
        return Compare(attribute, "<", value)

    @staticmethod
    def le(attribute: str, value: Any) -> Predicate:
        return Compare(attribute, "<=", value)

    @staticmethod
    def gt(attribute: str, value: Any) -> Predicate:
        return Compare(attribute, ">", value)

    @staticmethod
    def ge(attribute: str, value: Any) -> Predicate:
        return Compare(attribute, ">=", value)

    @staticmethod
    def between(attribute: str, lo: Any, hi: Any) -> Predicate:
        return Between(attribute, lo, hi)

    @staticmethod
    def contains(attribute: str, *terms: str) -> Predicate:
        return Contains(attribute, list(terms))

    @staticmethod
    def like(attribute: str, fragment: str) -> Predicate:
        return Like(attribute, fragment)

    @staticmethod
    def is_null(attribute: str) -> Predicate:
        return IsNull(attribute)
