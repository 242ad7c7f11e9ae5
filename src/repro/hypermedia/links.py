"""Hypermedia links stored inside the object database.

:class:`HypermediaBase` manages a ``_HyperLink`` class in the host
database, so links participate in transactions, recovery and queries like
any object.  A link joins (source object, anchor text) to (target object
[, media attribute path [, cue world time]]).  Following a link returns a
:class:`Link` whose cue can be handed directly to
``MediaActivity.cue`` — the hypermedia jump into the middle of a video.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.avtime import WorldTime
from repro.db.database import Database
from repro.db.objects import OID
from repro.db.query import Q
from repro.db.schema import AttributeSpec, ClassDef
from repro.errors import DatabaseError


@dataclass(frozen=True, slots=True)
class Anchor:
    """A named location in a source object (e.g. a phrase in a document)."""

    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise DatabaseError("anchor text must be non-empty")


@dataclass(frozen=True, slots=True)
class Link:
    """A resolved hypermedia link."""

    oid: OID  # the link object itself
    source: OID
    anchor: str
    target: OID
    media_path: Optional[str]  # e.g. "clip.videoTrack"
    cue_seconds: float

    @property
    def cue(self) -> WorldTime:
        return WorldTime(self.cue_seconds)


LINK_CLASS = "_HyperLink"


class HypermediaBase:
    """Link management over a host database."""

    def __init__(self, db: Database) -> None:
        self.db = db
        if LINK_CLASS not in db.schema:
            db.define_class(ClassDef(LINK_CLASS, attributes=[
                AttributeSpec("source", str, indexed=True),
                AttributeSpec("target", str, indexed=True),
                AttributeSpec("anchor", str),
                AttributeSpec("media_path", str),
                AttributeSpec("cue_seconds", float),
            ]))

    # -- authoring -----------------------------------------------------------
    def link(self, source: OID, anchor: Anchor | str, target: OID,
             media_path: Optional[str] = None,
             cue: WorldTime | float = 0.0) -> Link:
        """Create a link from an anchor in ``source`` to ``target``."""
        if not self.db.exists(source):
            raise DatabaseError(f"link source {source} does not exist")
        if not self.db.exists(target):
            raise DatabaseError(f"link target {target} does not exist")
        anchor_text = anchor.text if isinstance(anchor, Anchor) else str(anchor)
        cue_seconds = cue.seconds if isinstance(cue, WorldTime) else float(cue)
        if cue_seconds < 0:
            raise DatabaseError(f"link cue must be >= 0, got {cue_seconds}")
        oid = self.db.insert(
            LINK_CLASS,
            source=str(source), target=str(target), anchor=anchor_text,
            media_path=media_path or "", cue_seconds=cue_seconds,
        )
        return self._to_link(oid)

    # -- navigation ----------------------------------------------------------
    def links_from(self, source: OID) -> List[Link]:
        oids = self.db.select(LINK_CLASS, Q.eq("source", str(source)))
        return [self._to_link(o) for o in oids]

    def links_to(self, target: OID) -> List[Link]:
        """Back-links: what refers to this object."""
        oids = self.db.select(LINK_CLASS, Q.eq("target", str(target)))
        return [self._to_link(o) for o in oids]

    def follow(self, source: OID, anchor: Anchor | str) -> Link:
        """Resolve the link at ``anchor`` in ``source`` (first match)."""
        anchor_text = anchor.text if isinstance(anchor, Anchor) else str(anchor)
        matches = [l for l in self.links_from(source) if l.anchor == anchor_text]
        if not matches:
            raise DatabaseError(
                f"no link from {source} at anchor {anchor_text!r}"
            )
        return matches[0]

    def _to_link(self, oid: OID) -> Link:
        obj = self.db.get(oid)
        return Link(
            oid=oid,
            source=self._parse_oid(obj.source),
            anchor=obj.anchor,
            target=self._parse_oid(obj.target),
            media_path=obj.media_path or None,
            cue_seconds=obj.cue_seconds,
        )

    @staticmethod
    def _parse_oid(text: str) -> OID:
        class_name, _, serial = text.rpartition(":")
        return OID(class_name, int(serial))
