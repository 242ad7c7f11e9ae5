"""Schema: class definitions, attribute typing, tcomp attributes,
inheritance — the paper's Newscast / SimpleNewscast classes."""

import pytest

from repro.db import AttributeSpec, ClassDef, Database
from repro.db.objects import OID
from repro.errors import SchemaError
from repro.quality import VideoQuality, parse_quality
from repro.synth import NEWSCAST_CLIP_SPEC, moving_scene
from repro.temporal import TCompSpec
from repro.values import VideoValue


def simple_newscast_class():
    """The paper's SimpleNewscast with its quality-factored video attribute."""
    return ClassDef("SimpleNewscast", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("broadcastSource", str),
        AttributeSpec("keywords", list, keyword_indexed=True),
        AttributeSpec("whenBroadcast", str, indexed=True),
        AttributeSpec("videoTrack", VideoValue,
                      quality=parse_quality("640x480x8@30")),
    ])


class TestAttributeSpec:
    def test_python_type_validation(self):
        spec = AttributeSpec("title", str)
        spec.validate_value("ok")
        spec.validate_value(None)  # optional by default
        with pytest.raises(SchemaError, match="expects str"):
            spec.validate_value(42)

    def test_required_attribute(self):
        spec = AttributeSpec("title", str, required=True)
        with pytest.raises(SchemaError, match="required"):
            spec.validate_value(None)

    def test_media_attribute_with_quality_cap(self):
        spec = AttributeSpec("videoTrack", VideoValue,
                             quality=VideoQuality(64, 48, 8, 30.0))
        spec.validate_value(moving_scene(2, 64, 48))  # at the cap
        spec.validate_value(moving_scene(2, 32, 24))  # below the cap
        with pytest.raises(SchemaError, match="exceeds"):
            spec.validate_value(moving_scene(2, 128, 96))

    def test_quality_on_non_media_rejected(self):
        with pytest.raises(SchemaError, match="media-valued"):
            AttributeSpec("title", str, quality=VideoQuality(64, 48, 8, 30.0))

    def test_reference_attribute(self):
        spec = AttributeSpec("producer", "Person")
        spec.validate_value(OID("Person", 1))
        with pytest.raises(SchemaError, match="references"):
            spec.validate_value("Person:1")

    def test_invalid_attribute_name(self):
        with pytest.raises(SchemaError):
            AttributeSpec("bad name", str)


class TestClassDef:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            ClassDef("C", attributes=[
                AttributeSpec("x", str), AttributeSpec("x", int),
            ])

    def test_tcomp_and_attribute_name_collision_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            ClassDef("C", attributes=[AttributeSpec("clip", str)],
                     tcomps=[NEWSCAST_CLIP_SPEC])

    @pytest.mark.parametrize("name", [
        "version", "oid", "attributes", "get", "updated", "class_name",
        "_layout", "_values", "__class__"])
    def test_names_of_the_stored_object_itself_are_reserved(self, name):
        # At the parent commit these were accepted, and obj.version read
        # the snapshot's own field (1), not the 7 that was stored.
        with pytest.raises(SchemaError, match="stored object's own"):
            ClassDef("C", attributes=[AttributeSpec(name, int)])
        with pytest.raises(SchemaError, match="stored object's own"):
            ClassDef("C", tcomps=[TCompSpec(name, NEWSCAST_CLIP_SPEC.tracks)])

    def test_values_and_names_stay_legal_attribute_names(self):
        # The row's own slots are underscore-prefixed for this.
        db = Database()
        db.define_class(ClassDef("C", attributes=[
            AttributeSpec("values", int), AttributeSpec("names", list),
            AttributeSpec("layout", str)]))
        obj = db.get(db.insert("C", values=7, names=["a"], layout="wide"))
        assert (obj.values, obj.names, obj.layout) == (7, ["a"], "wide")
        assert (obj.version, obj.oid.serial) == (1, 1)


class TestInheritance:
    def make_db(self):
        db = Database()
        db.define_class(ClassDef("Media", attributes=[
            AttributeSpec("title", str, indexed=True),
        ]))
        db.define_class(ClassDef("Newscast", superclass="Media", attributes=[
            AttributeSpec("whenBroadcast", str),
        ], tcomps=[NEWSCAST_CLIP_SPEC]))
        return db

    def test_subclass_inherits_attributes(self):
        db = self.make_db()
        layout = db.schema.validate_object(
            "Newscast", {"title": "t", "whenBroadcast": "w"})
        assert set(layout) == {"title", "whenBroadcast"}

    def test_subclass_queryable_via_superclass(self):
        db = self.make_db()
        oid = db.insert("Newscast", title="x", whenBroadcast="1992")
        from repro.db import Q
        assert db.select("Media") == [oid]
        assert db.select("Media", include_subclasses=False) == []
        assert db.select("Media", Q.eq("title", "x")) == [oid]

    def test_unknown_superclass_rejected(self):
        db = Database()
        with pytest.raises(SchemaError, match="unknown superclass"):
            db.schema.define(ClassDef("X", superclass="Ghost"))

    def test_ancestry(self):
        db = self.make_db()
        assert db.schema.ancestry("Newscast") == ["Newscast", "Media"]
        assert db.schema.is_subclass("Newscast", "Media")
        assert not db.schema.is_subclass("Media", "Newscast")


class TestObjectValidation:
    def test_insert_validates_types(self):
        db = Database()
        db.define_class(simple_newscast_class())
        db.insert("SimpleNewscast", title="60 Minutes",
                  videoTrack=moving_scene(2, 64, 48))
        with pytest.raises(SchemaError, match="expects"):
            db.insert("SimpleNewscast", title=42)

    def test_unknown_attribute_rejected(self):
        db = Database()
        db.define_class(simple_newscast_class())
        with pytest.raises(SchemaError, match="no attribute"):
            db.insert("SimpleNewscast", director="someone")

    def test_tcomp_attribute_takes_composite(self, clip):
        db = Database()
        db.define_class(ClassDef("Newscast", tcomps=[NEWSCAST_CLIP_SPEC],
                                 attributes=[AttributeSpec("title", str)]))
        oid = db.insert("Newscast", title="x", clip=clip)
        stored = db.get(oid)
        assert stored.clip.value("videoTrack").num_frames == 10

    def test_tcomp_attribute_rejects_plain_value(self):
        db = Database()
        db.define_class(ClassDef("Newscast", tcomps=[NEWSCAST_CLIP_SPEC]))
        with pytest.raises(SchemaError, match="tcomp"):
            db.insert("Newscast", clip=moving_scene(2))

    def test_tcomp_spec_name_must_match(self, clip):
        from repro.temporal import TCompSpec
        db = Database()
        other_spec = TCompSpec("other", NEWSCAST_CLIP_SPEC.tracks)
        db.define_class(ClassDef("Newscast", tcomps=[other_spec]))
        with pytest.raises(SchemaError, match="built from"):
            db.insert("Newscast", other=clip)

    def test_duplicate_class_rejected(self):
        db = Database()
        db.define_class(ClassDef("C"))
        with pytest.raises(SchemaError, match="already defined"):
            db.define_class(ClassDef("C"))
