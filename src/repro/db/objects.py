"""Objects and object identifiers.

"Certain requests, such as queries, may return references (i.e., names or
identifiers) to AV values rather than the values themselves" (§3.1).
:class:`OID` is that reference type; :class:`DBObject` is the stored
record.  Objects are immutable snapshots — updates go through a
transaction, which installs a new snapshot (and a new version number).
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Tuple

from repro.errors import SchemaError


class OID(NamedTuple):
    """A stable object identifier (class name + serial).

    A named tuple, so construction, hashing, equality and ordering run
    in C under every object-table read and write, and instances are not
    tracked by the cyclic collector.
    """

    class_name: str
    serial: int

    def __str__(self) -> str:
        return f"{self.class_name}:{self.serial}"


_set = object.__setattr__


class DBObject:
    """One stored object snapshot: a layout and the values in its order.

    The layout is the tuple of the attribute names present (absent is
    not ``None``), in the class's declaration order; a store's objects
    with the same names share one.
    """

    __slots__ = ("oid", "_layout", "_values", "version")

    def __init__(self, oid: OID, layout: Tuple[str, ...] = (),
                 values: Tuple[Any, ...] = (), version: int = 1) -> None:
        _set(self, "oid", oid)
        _set(self, "_layout", layout)
        _set(self, "_values", values)
        _set(self, "version", version)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{self!r} is an immutable snapshot")
    __delattr__ = __setattr__

    def __reduce__(self):
        return DBObject, (self.oid, self._layout, self._values, self.version)

    @property
    def class_name(self) -> str:
        return self.oid.class_name

    @property
    def attributes(self) -> Dict[str, Any]:
        """A dict built on each read, for callers off the hot paths."""
        return dict(zip(self._layout, self._values))

    def get(self, name: str, default: Any = None) -> Any:
        layout = self._layout
        return self._values[layout.index(name)] if name in layout else default

    def __getattr__(self, name: str) -> Any:
        # Attribute-style access for queries and the session pseudo-code
        # (myNews.videoTrack); the slots resolve normally first.
        if name in self._layout:
            return self._values[self._layout.index(name)]
        raise AttributeError(f"object {self.oid} has no attribute {name!r}")

    def updated(self, changes: Dict[str, Any]) -> "DBObject":
        """A new snapshot with ``changes`` merged and version bumped."""
        if not changes:
            raise SchemaError("update with no changes")
        merged = {**self.attributes, **changes}
        return DBObject(self.oid, tuple(merged), tuple(merged.values()),
                        self.version + 1)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DBObject:
            return NotImplemented
        return ((self.oid, self.version, self.attributes)
                == (other.oid, other.version, other.attributes))

    def __repr__(self) -> str:
        keys = ", ".join(sorted(self._layout))
        return f"DBObject({self.oid}, v{self.version}, attrs=[{keys}])"
