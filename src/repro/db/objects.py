"""Objects and object identifiers.

"Certain requests, such as queries, may return references (i.e., names or
identifiers) to AV values rather than the values themselves" (§3.1).
:class:`OID` is that reference type; :class:`DBObject` is the stored
record.  Objects are immutable snapshots — updates go through a
transaction, which installs a new snapshot (and a new version number).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple

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


@dataclass(frozen=True)
class DBObject:
    """One stored object snapshot."""

    oid: OID
    attributes: Dict[str, Any] = field(default_factory=dict)
    version: int = 1

    @property
    def class_name(self) -> str:
        return self.oid.class_name

    def get(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def __getattr__(self, name: str) -> Any:
        # Attribute-style access for queries and the session pseudo-code
        # (myNews.videoTrack); dataclass fields resolve normally first.
        attributes = object.__getattribute__(self, "attributes")
        if name in attributes:
            return attributes[name]
        raise AttributeError(
            f"object {object.__getattribute__(self, 'oid')} has no attribute {name!r}"
        )

    def updated(self, changes: Dict[str, Any]) -> "DBObject":
        """A new snapshot with ``changes`` merged and version bumped."""
        if not changes:
            raise SchemaError("update with no changes")
        merged = dict(self.attributes)
        merged.update(changes)
        return DBObject(self.oid, merged, self.version + 1)

    def __repr__(self) -> str:
        keys = ", ".join(sorted(self.attributes))
        return f"DBObject({self.oid}, v{self.version}, attrs=[{keys}])"
