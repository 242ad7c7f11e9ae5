"""Class schema with typed attributes and ``tcomp`` groups (paper §4.1).

The paper's running example compiles to::

    newscast = ClassDef(
        "Newscast",
        attributes=[
            AttributeSpec("title", str, indexed=True),
            AttributeSpec("broadcastSource", str),
            AttributeSpec("keywords", list),
            AttributeSpec("whenBroadcast", str, indexed=True),
        ],
        tcomps=[TCompSpec("clip", (
            TrackSpec("videoTrack", standard_type("video/*")),
            TrackSpec("englishTrack", standard_type("audio/*")),
            TrackSpec("frenchTrack", standard_type("audio/*")),
            TrackSpec("subtitleTrack", standard_type("text/stream")),
        ))],
    )

Attribute types are Python types, :class:`MediaValue` subclasses (with an
optional quality factor, as in ``VideoValue videoTrack quality
640x480x8@30``), or another class name (a reference attribute).
Single inheritance follows the paper's subclass-of notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type, Union

from repro.db.objects import DBObject, OID
from repro.errors import SchemaError
from repro.quality.factors import QualityFactor, VideoQuality
from repro.temporal.spec import TCompSpec
from repro.values.base import MediaValue

AttrType = Union[Type, str]  # a Python/MediaValue type, or a class name (reference)


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute declaration.

    Attributes
    ----------
    name:
        Attribute name.
    attr_type:
        Python type (``str``, ``int`` ...), a :class:`MediaValue`
        subclass, or a string naming another class (reference attribute).
    quality:
        Optional quality factor constraining stored media values
        ("Quality factors are optional in class definitions").
    indexed:
        Maintain an ordered index on this attribute.
    keyword_indexed:
        Maintain an inverted keyword index (content-based retrieval).
    required:
        Reject objects missing this attribute.
    """

    name: str
    attr_type: AttrType
    quality: Optional[QualityFactor] = None
    indexed: bool = False
    keyword_indexed: bool = False
    required: bool = False

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"attribute name {self.name!r} is not a valid identifier")
        if self.quality is not None:
            if not (isinstance(self.attr_type, type)
                    and issubclass(self.attr_type, MediaValue)):
                raise SchemaError(
                    f"attribute {self.name!r}: quality factors apply only to "
                    f"media-valued attributes"
                )

    @property
    def is_reference(self) -> bool:
        return isinstance(self.attr_type, str)

    def validate_value(self, value, schema: Optional["Schema"] = None) -> None:
        """Type/quality-check one attribute value."""
        if value is None:
            if self.required:
                raise SchemaError(f"attribute {self.name!r} is required")
            return
        if self.is_reference:
            if not isinstance(value, OID):
                raise SchemaError(
                    f"attribute {self.name!r} holds references to "
                    f"{self.attr_type!r}; got {type(value).__name__}"
                )
            return
        if not isinstance(value, self.attr_type):
            raise SchemaError(
                f"attribute {self.name!r} expects {self.attr_type.__name__}, "
                f"got {type(value).__name__}"
            )
        if self.quality is not None and isinstance(self.quality, VideoQuality):
            stored = VideoQuality(value.width, value.height, value.depth,
                                  value.mapping.rate)
            if not self.quality.dominates(stored) and not stored.dominates(self.quality):
                pass  # incomparable qualities are allowed
            elif not self.quality.dominates(stored):
                raise SchemaError(
                    f"attribute {self.name!r}: stored quality {stored} exceeds "
                    f"declared quality {self.quality}"
                )


@dataclass(frozen=True)
class ClassDef:
    """An object class: attributes, tcomp groups, optional superclass."""

    name: str
    attributes: Tuple[AttributeSpec, ...] = ()
    tcomps: Tuple[TCompSpec, ...] = ()
    superclass: Optional[str] = None

    def __init__(self, name: str, attributes=(), tcomps=(), superclass=None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", tuple(attributes))
        object.__setattr__(self, "tcomps", tuple(tcomps))
        object.__setattr__(self, "superclass", superclass)
        if not name.isidentifier():
            raise SchemaError(f"class name {name!r} is not a valid identifier")
        names = [a.name for a in self.attributes] + [t.name for t in self.tcomps]
        if len(set(names)) != len(names):
            raise SchemaError(f"class {name!r} has duplicate attribute/tcomp names")
        taken = [n for n in names if hasattr(DBObject, n)]
        if taken:
            raise SchemaError(f"class {name!r}: {taken} name the stored object's own fields")


class Schema:
    """Registry of class definitions with inheritance resolution."""

    def __init__(self) -> None:
        self._classes: Dict[str, ClassDef] = {}
        #: class -> (layout, attribute specs, tcomp specs), inherited included.
        self._resolved: Dict[str, tuple] = {}

    def define(self, class_def: ClassDef) -> ClassDef:
        """Register a class; its superclass must already be defined."""
        if class_def.name in self._classes:
            raise SchemaError(f"class {class_def.name!r} already defined")
        if class_def.superclass is not None and class_def.superclass not in self._classes:
            raise SchemaError(
                f"class {class_def.name!r}: unknown superclass {class_def.superclass!r}"
            )
        # Reference attributes may point at classes defined later; checked
        # at insert time instead.
        self._classes[class_def.name] = class_def
        self._resolved.clear()
        return class_def

    def get(self, name: str) -> ClassDef:
        try:
            return self._classes[name]
        except KeyError:
            raise SchemaError(f"unknown class {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    # -- inheritance ---------------------------------------------------------
    def ancestry(self, name: str) -> List[str]:
        """[name, superclass, ...] up to the root."""
        chain = []
        current: Optional[str] = name
        while current is not None:
            if current in chain:
                raise SchemaError(f"inheritance cycle at class {current!r}")
            chain.append(current)
            current = self.get(current).superclass
        return chain

    def is_subclass(self, name: str, ancestor: str) -> bool:
        return ancestor in self.ancestry(name)

    def subclasses_of(self, name: str) -> List[str]:
        """All classes whose ancestry includes ``name`` (including itself)."""
        return [c for c in self._classes if self.is_subclass(c, name)]

    def _resolve(self, name: str) -> tuple:
        resolved = self._resolved.get(name)
        if resolved is None:
            specs, tcomps = {}, {}
            # Root class first; a subclass's spec takes its parent's place.
            for cls_name in reversed(self.ancestry(name)):
                class_def = self.get(cls_name)
                specs.update((a.name, a) for a in class_def.attributes)
                tcomps.update((t.name, t) for t in class_def.tcomps)
            resolved = self._resolved[name] = (
                tuple({**specs, **tcomps}), specs, tcomps)
        return resolved

    def validate_object(self, class_name: str,
                        attributes: Dict[str, object]) -> Tuple[str, ...]:
        """Validate a full attribute dict for an object of ``class_name``;
        returns its layout: the names present, in declaration order."""
        names, specs, tcomps = self._resolve(class_name)
        for key, value in attributes.items():
            if key in specs:
                specs[key].validate_value(value, self)
            elif key in tcomps:
                from repro.temporal.composite import TemporalComposite
                if not isinstance(value, TemporalComposite):
                    raise SchemaError(
                        f"attribute {key!r} of {class_name!r} is a tcomp; "
                        f"assign a TemporalComposite"
                    )
                if value.spec.name != key:
                    raise SchemaError(
                        f"tcomp attribute {key!r} got a composite built from "
                        f"spec {value.spec.name!r}"
                    )
            else:
                raise SchemaError(f"class {class_name!r} has no attribute {key!r}")
        for spec in specs.values():
            if spec.required and attributes.get(spec.name) is None:
                raise SchemaError(
                    f"class {class_name!r}: required attribute {spec.name!r} missing"
                )
        return (names if len(names) == len(attributes)
                else tuple(name for name in names if name in attributes))
