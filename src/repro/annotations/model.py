"""Typed annotations over half-open intervals of AV values.

An *annotation* attaches typed, structured content to a time slice
``[start, end)`` of one track of an AV value (or temporal composite):
a recognized word, a phone, a speaker turn, a dance gesture, a scene
boundary.  The model follows *Querying Databases of Annotated Speech*
(Cassidy & Bird): annotations live on named tracks, carry a type drawn
from a registered :class:`AnnotationType`, and a small attribute payload
validated against that type's field schema — the typed-annotation
semantics of the dance-video annotation work in PAPERS.md.

Intervals are half-open and strictly positive (``start < end``), the
same convention as :mod:`repro.avtime`.  The five *window predicates*
the query surface exposes are retrieval semantics over a query window
``[lo, hi)`` — deliberately looser than Allen's thirteen exact relations
(which remain in :mod:`repro.avtime.interval`):

========  =====================================  =======================
operator  meaning                                condition
========  =====================================  =======================
overlaps  shares at least an instant             ``s < hi and e > lo``
during    contained in the window                ``lo <= s and e <= hi``
before    ends at or before the window opens     ``e <= lo``
after     starts at or after the window closes   ``s >= hi``
meets     touches an endpoint exactly            ``e == lo or s == hi``
========  =====================================  =======================

Every predicate is a pure function of ``(s, e, lo, hi)``; the scan
executor applies them row-by-row and the interval index answers the
same questions by pruned descent — byte-identical result sets is a
tested invariant, not an aspiration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Tuple, Union

from repro.db.objects import DBObject, OID
from repro.errors import AnnotationError

__all__ = [
    "Annotation",
    "AnnotationType",
    "FieldSpec",
    "WINDOW_OPS",
    "op_after",
    "op_before",
    "op_during",
    "op_meets",
    "op_overlaps",
]

Payload = Tuple[Tuple[str, Any], ...]
#: The stored class's attributes, declared in this order and all required:
#: every row's ``_values`` start with them (a subclass's own come after).
FIELDS = ("value_id", "track", "atype", "start", "end", "payload")
VALUE_ID, TRACK, ATYPE, START, END, PAYLOAD = range(len(FIELDS))


# -- window predicates ----------------------------------------------------
def op_overlaps(s: float, e: float, lo: float, hi: float) -> bool:
    return s < hi and e > lo


def op_during(s: float, e: float, lo: float, hi: float) -> bool:
    return lo <= s and e <= hi


def op_before(s: float, e: float, lo: float, hi: float) -> bool:
    return e <= lo


def op_after(s: float, e: float, lo: float, hi: float) -> bool:
    return s >= hi


def op_meets(s: float, e: float, lo: float, hi: float) -> bool:
    return e == lo or s == hi


WINDOW_OPS = {
    "overlaps": op_overlaps,
    "during": op_during,
    "before": op_before,
    "after": op_after,
    "meets": op_meets,
}


@dataclass(frozen=True)
class FieldSpec:
    """One payload field of an annotation type."""

    name: str
    type: type = str
    required: bool = False


@dataclass(frozen=True)
class AnnotationType:
    """A named annotation type with a payload field schema."""

    name: str
    fields: Tuple[FieldSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise AnnotationError("annotation type needs a name")
        names = [spec.name for spec in self.fields]
        if len(names) != len(set(names)):
            raise AnnotationError(
                f"annotation type {self.name!r} repeats a payload field")

    def validate_payload(
            self, payload: Union[Mapping[str, Any],
                                 Iterable[Tuple[str, Any]], None]) -> Payload:
        """Validate and canonicalize a payload to sorted (name, value) pairs.

        The canonical tuple form is what gets stored: hashable, ordered,
        and cheap — a million-row corpus cannot afford a dict per row.
        """
        items: Dict[str, Any] = dict(payload or {})
        specs = {spec.name: spec for spec in self.fields}
        for key, value in items.items():
            spec = specs.get(key)
            if spec is None:
                raise AnnotationError(
                    f"type {self.name!r} has no payload field {key!r}")
            if not isinstance(value, spec.type):
                raise AnnotationError(
                    f"payload field {key!r} of type {self.name!r} wants "
                    f"{spec.type.__name__}, got {type(value).__name__}")
        for spec in self.fields:
            if spec.required and spec.name not in items:
                raise AnnotationError(
                    f"type {self.name!r} requires payload field "
                    f"{spec.name!r}")
        return tuple(sorted(items.items()))


@dataclass(frozen=True)
class Annotation:
    """One committed annotation, hydrated from its ``DBObject`` snapshot."""

    oid: OID
    value_id: str
    track: str
    atype: str
    start: float
    end: float
    payload: Payload = ()

    def to_row(self) -> str:
        """A canonical single-line rendering (used for byte comparisons)."""
        fields = " ".join(f"{k}={v!r}" for k, v in self.payload)
        return (f"{self.value_id}/{self.track} "
                f"[{self.start:.6f},{self.end:.6f}) {self.atype}"
                + (f" {fields}" if fields else ""))

    @classmethod
    def from_object(cls, obj: DBObject) -> "Annotation":
        # One dict update instead of the seven object.__setattr__ calls
        # a frozen dataclass's __init__ makes; assignment through the
        # instance stays refused.
        ann = object.__new__(cls)
        ann.__dict__.update(zip(FIELDS, obj._values), oid=obj.oid)
        return ann
