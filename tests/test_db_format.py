"""The stored row against a dict, and the durable format against drift.

A ``DBObject`` is a slotted record over a shared layout and one value
tuple; the pickled rows are the durable format, stamped with a magic and
a version (``repro.db.store``).  The property holds the row to the dict
it replaced; the pinned hashes fail on any change of the bytes that
comes without a version bump; the refusal tests hold the store to
"refuse, never guess".
"""

import hashlib
import json
import pickle
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotations import AnnotationStore, AnnotationType
from repro.db import AttributeSpec, ClassDef, Database
from repro.db.objects import DBObject, OID
from repro.db.store import _HEADER, FORMAT_VERSION, MAGIC, ObjectStore
from repro.errors import DatabaseError, SchemaError
from repro.temporal.composite import TemporalComposite
from repro.temporal.spec import TCompSpec, TrackSpec
from repro.values import TextStreamValue
from repro.values.mediatype import standard_type

GOLDEN = Path(__file__).parent / "golden"


# -- the row against the dict it replaced ----------------------------------
#: name -> (type, values to draw); ``values`` and ``names`` are legal
#: attribute names because the row's own slots are underscore-prefixed.
POOL = {
    "title": (str, st.sampled_from(["", "60 Minutes", "News"])),
    "year": (int, st.integers(1900, 2100)),
    "values": (float, st.floats(allow_nan=False)),
    "names": (list, st.lists(st.text(max_size=3), max_size=3)),
    "body": (str, st.text(max_size=5)),
}
CAPTIONS = TCompSpec("captions", (
    TrackSpec("line", standard_type("text/stream")),))


@st.composite
def schema_and_attributes(draw):
    """A class over a drawn ordering of a drawn part of the pool, with or
    without the tcomp, and one attribute dict over it in a drawn key
    order: each member absent, ``None`` or a value (a tcomp absent or a
    composite)."""
    declared = draw(st.permutations(sorted(POOL)))[:draw(st.integers(0, 5))]
    tcomps = [CAPTIONS] if draw(st.booleans()) else []
    class_def = ClassDef("Thing", attributes=[
        AttributeSpec(name, POOL[name][0]) for name in declared],
        tcomps=tcomps)
    attributes = {}
    for name in draw(st.permutations(declared + [t.name for t in tcomps])):
        state = draw(st.sampled_from(("absent", "none", "value")))
        if name not in POOL and state != "absent":  # a tcomp is never None
            attributes[name] = TemporalComposite(
                CAPTIONS, {"line": TextStreamValue(["hello", "world"])})
        elif state == "none":
            attributes[name] = None
        elif state == "value":
            attributes[name] = draw(POOL[name][1])
    return class_def, attributes


def _plain(attributes):
    """Composites define no equality: compare them by what they hold."""
    return {name: (value.spec, value.value("line").texts())
            if isinstance(value, TemporalComposite) else value
            for name, value in attributes.items()}


class TestRowAgainstDict:
    @given(schema_and_attributes(), st.data())
    @settings(max_examples=150)
    def test_row_reads_as_the_dict_it_replaced(self, drawn, data):
        class_def, attributes = drawn
        db = Database()
        db.define_class(class_def)
        obj = db.get(db.insert("Thing", **attributes))
        declared = [a.name for a in class_def.attributes] + \
            [t.name for t in class_def.tcomps]

        # The layout is the names present, in declaration order.
        assert obj._layout == tuple(n for n in declared if n in attributes)
        assert obj.attributes == attributes
        assert list(obj.attributes) == list(obj._layout)
        absent = object()
        for name in declared + ["nowhere"]:
            assert obj.get(name, absent) is attributes.get(name, absent)
            assert obj.get(name) is attributes.get(name)
            if name in attributes:  # absent is not None
                assert getattr(obj, name) is attributes[name]
            else:
                with pytest.raises(AttributeError, match=name):
                    getattr(obj, name)
        assert (obj.oid, obj.version) == (OID("Thing", 1), 1)
        assert repr(obj) == (f"DBObject(Thing:1, v1, "
                             f"attrs=[{', '.join(sorted(attributes))}])")

        # Equality is the dict's: key order does not matter, absence does.
        shuffled = data.draw(st.permutations(list(attributes)))
        twin = DBObject(obj.oid, tuple(shuffled),
                        tuple(attributes[n] for n in shuffled))
        assert twin == obj and not twin != obj
        assert DBObject(obj.oid, obj._layout, obj._values, 2) != obj
        assert DBObject(OID("Thing", 2), obj._layout, obj._values) != obj
        assert DBObject(obj.oid, obj._layout + ("extra",),
                        obj._values + (None,)) != obj
        assert obj != attributes
        with pytest.raises(TypeError):
            hash(obj)

        again = pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
        assert again._layout == obj._layout and again.oid == obj.oid
        assert _plain(again.attributes) == _plain(attributes)

        changes = {name: data.draw(POOL[name][1]) for name in data.draw(
            st.lists(st.sampled_from(sorted(POOL)), unique=True))}
        if not changes:
            with pytest.raises(SchemaError, match="no changes"):
                obj.updated(changes)
            return
        newer = obj.updated(changes)
        assert newer.attributes == {**attributes, **changes}
        assert (newer.oid, newer.version) == (obj.oid, 2)
        assert obj.attributes == attributes  # the old snapshot stands
        if set(changes) <= set(declared):
            # Through a transaction the new row is in declaration order
            # again, whatever the update added.
            stored = db.update(obj.oid, **changes)
            assert stored == newer
            assert stored._layout == tuple(
                n for n in declared if n in newer.attributes)

    def test_snapshots_are_immutable(self):
        obj = DBObject(OID("Doc", 1), ("name",), ("a",))
        for name in ("oid", "version", "_layout", "_values", "name", "new"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            del obj.version
        assert (obj.name, obj.version) == ("a", 1)
        assert not hasattr(obj, "__dict__")


class TestSharedLayouts:
    def test_every_insert_path_yields_the_same_layout_object(self):
        store = AnnotationStore()
        store.define_type(AnnotationType("word"))
        one = store.annotate("v", "audio", "word", 0.0, 1.0)
        store.bulk_load([("v", "audio", "word", 1.0, 2.0, ()),
                         ("v", "video", "word", 2.0, 3.0, ())], chunk=1)
        with store.db.begin() as tx:
            two = store.annotate("w", "audio", "word", 0.0, 1.0, tx=tx)
        rows = [store.db.get(oid) for oid in store.db._store.all_oids()]
        assert len(rows) == 4 and one in store.db._store.all_oids()
        assert len({id(row._layout) for row in rows}) == 1
        assert rows[0]._layout == ("value_id", "track", "atype", "start",
                                   "end", "payload")
        assert store.db.get(two).value_id == "w"

    def test_partial_rows_share_too(self):
        db = Database()
        db.define_class(ClassDef("Doc", attributes=[
            AttributeSpec("name", str), AttributeSpec("body", str)]))
        rows = [db.get(db.insert("Doc", **attributes)) for attributes in (
            {"name": "a"}, {"name": "b"}, {"body": "x", "name": "c"},
            {"name": "d", "body": "y"})]
        assert rows[0]._layout is rows[1]._layout == ("name",)
        assert rows[2]._layout is rows[3]._layout == ("name", "body")
        grown = db.update(rows[0].oid, body="z")
        assert grown._layout is rows[2]._layout

    def test_recovered_rows_share_across_log_records(self, tmp_path):
        db = Database(str(tmp_path))
        db.define_class(ClassDef("Doc", attributes=[
            AttributeSpec("name", str)]))
        kept = db.insert("Doc", name="in the snapshot")
        db.checkpoint()
        oids = [kept] + [db.insert("Doc", name=f"n{i}") for i in range(3)]
        db.close()
        recovered = Database(str(tmp_path))
        assert recovered._store.recovered_records == 3
        assert len({id(recovered.get(oid)._layout) for oid in oids}) == 1
        recovered.define_class(ClassDef("Doc", attributes=[
            AttributeSpec("name", str)]))
        late = recovered.get(recovered.insert("Doc", name="late"))
        assert late._layout is recovered.get(kept)._layout
        recovered.close()


# -- the format against drift ----------------------------------------------
def _write_canonical_table(path) -> None:
    """One history over every kind of stored row, ending in a snapshot
    and a log: plain, partial, ``None``-holding, reference-holding and
    media-holding rows, an update, a delete, a multi-op transaction, and
    annotation rows from both ``annotate`` and ``bulk_load``."""
    db = Database(str(path))
    db.define_class(ClassDef("Clip", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("year", int),
        AttributeSpec("keywords", list),
        AttributeSpec("sequel", "Clip"),
        AttributeSpec("subtitles", TextStreamValue),
    ]))
    first = db.insert("Clip", title="one", year=1993, keywords=["a", "b"])
    second = db.insert("Clip", title="two", sequel=first)
    db.insert("Clip", title=None, year=7)
    store = AnnotationStore(db)
    store.define_type(AnnotationType("word"))
    store.annotate("one", "audio", "word", 0.5, 1.25, {})
    db.checkpoint()
    db.update(first, year=1994, subtitles=TextStreamValue(["hello", "world"]))
    db.delete(second)
    with db.begin() as tx:
        third = tx.insert("Clip", title="three")
        tx.update(first, sequel=third)
    store.bulk_load([("one", "audio", "word", 2.0, 2.5, ()),
                     ("one", "video", "word", 0.0, 4.0, ())])
    db.close()


class TestFormatDrift:
    def test_canonical_table_bytes_are_pinned(self, tmp_path):
        _write_canonical_table(tmp_path)
        found = {"format_version": FORMAT_VERSION}
        for name in (ObjectStore.SNAPSHOT_NAME, ObjectStore.WAL_NAME):
            data = (tmp_path / name).read_bytes()
            assert data[:_HEADER.size] == _HEADER.pack(MAGIC, FORMAT_VERSION)
            found[name] = hashlib.sha256(data).hexdigest()
        pinned = json.loads((GOLDEN / "db_format.json").read_text())
        assert found == pinned["pinned"], (
            "the bytes the store writes have changed, so directories "
            "written by the previous commit can no longer be trusted to "
            "read back.  If that is intended, bump FORMAT_VERSION in "
            "repro/db/store.py (earlier files are then refused by name) "
            "and pin these hashes with the new version in "
            f"tests/golden/db_format.json: {json.dumps(found, indent=2)}")

    def test_canonical_table_reads_back(self, tmp_path):
        _write_canonical_table(tmp_path)
        db = Database(str(tmp_path))
        assert db._store.recovered_records == 4
        first = db.get(OID("Clip", 1))
        assert first.attributes.keys() == {
            "title", "year", "keywords", "sequel", "subtitles"}
        assert (first.year, first.sequel, first.version) == \
            (1994, OID("Clip", 4), 3)
        assert first.subtitles.texts() == ["hello", "world"]
        assert not db.exists(OID("Clip", 2))
        assert db.get(OID("Clip", 3)).attributes == {"title": None, "year": 7}
        assert [db.get(OID("Annotation", n))._values for n in (1, 2, 3)] == [
            ("one", "audio", "word", 0.5, 1.25, ()),
            ("one", "audio", "word", 2.0, 2.5, ()),
            ("one", "video", "word", 0.0, 4.0, ())]
        db.close()


# -- refuse, never guess ----------------------------------------------------
def _small_directory(path) -> OID:
    db = Database(str(path))
    db.define_class(ClassDef("Doc", attributes=[AttributeSpec("name", str)]))
    db.insert("Doc", name="in the snapshot")
    db.checkpoint()
    oid = db.insert("Doc", name="in the log")
    db.close()
    return oid


class TestRefusal:
    EXPECTED = (rf"this build reads and writes only format {FORMAT_VERSION} "
                r"\(no other has a reader\): re-create the directory")

    @pytest.mark.parametrize("kept", [
        ("snapshot.pickle", "wal.log"), ("wal.log",)])
    def test_directory_from_the_parent_commit_is_refused(self, tmp_path,
                                                         kept):
        for name in kept:
            shutil.copy(GOLDEN / "db_v1" / name, tmp_path / name)
        before = {name: (tmp_path / name).read_bytes() for name in kept}
        with pytest.raises(DatabaseError) as refused:
            Database(str(tmp_path))
        assert str(refused.value) == (
            f"{tmp_path / kept[0]} is unstamped (format 1, or not a "
            f"database file); this build reads and writes only format 2 "
            f"(no other has a reader): re-create the directory")
        # Refused means untouched.
        assert {name: (tmp_path / name).read_bytes()
                for name in kept} == before

    @pytest.mark.parametrize("name", ["snapshot.pickle", "wal.log"])
    def test_other_version_and_other_magic_are_refused(self, tmp_path, name):
        _small_directory(tmp_path)
        target = tmp_path / name
        good = target.read_bytes()
        target.write_bytes(good[:4] + bytes([good[4] + 1]) + good[5:])
        with pytest.raises(DatabaseError, match=(
                rf"{name} is format {FORMAT_VERSION + 1}; " + self.EXPECTED)):
            Database(str(tmp_path))
        target.write_bytes(b"AVDB" + good[4:])  # a container file's magic
        with pytest.raises(DatabaseError, match=(
                rf"{name} is unstamped \(format 1, or not a database "
                rf"file\); " + self.EXPECTED)):
            Database(str(tmp_path))
        target.write_bytes(good)
        Database(str(tmp_path)).close()

    @pytest.mark.parametrize("garbage", [
        b"", b"AV", b"not a pickle at all",
        pickle.dumps({"some": "other pickle"})])
    def test_foreign_snapshot_is_refused(self, tmp_path, garbage):
        (tmp_path / "snapshot.pickle").write_bytes(garbage)
        with pytest.raises(DatabaseError, match=(
                r"snapshot.pickle is unstamped .*" + self.EXPECTED)):
            Database(str(tmp_path))

    def test_truncated_snapshot_is_refused(self, tmp_path):
        _small_directory(tmp_path)
        snapshot = tmp_path / "snapshot.pickle"
        good = snapshot.read_bytes()
        for cut in (_HEADER.size, _HEADER.size + 1, len(good) // 2,
                    len(good) - 1):
            snapshot.write_bytes(good[:cut])
            with pytest.raises(DatabaseError, match=(
                    rf"snapshot.pickle is a truncated format "
                    rf"{FORMAT_VERSION} file; " + self.EXPECTED)):
                Database(str(tmp_path))

    @pytest.mark.parametrize("cut", range(_HEADER.size + 1))
    def test_log_cut_inside_its_header_recovers_as_empty(self, tmp_path, cut):
        """A crash while the log was being created acknowledged nothing:
        the log is empty, and whole again before the next commit."""
        _small_directory(tmp_path)
        wal = tmp_path / "wal.log"
        stamp = wal.read_bytes()[:_HEADER.size]
        wal.write_bytes(stamp[:cut])
        db = Database(str(tmp_path))
        db.define_class(ClassDef("Doc", attributes=[
            AttributeSpec("name", str)]))
        assert len(db) == 1 and db._store.recovered_records == 0
        late = db.insert("Doc", name="after the crash")
        db.close()
        assert wal.read_bytes()[:_HEADER.size] == stamp
        again = Database(str(tmp_path))
        assert again.get(late).name == "after the crash"
        assert len(again) == 2 and again._store.recovered_records == 1
        again.close()

    def test_opening_and_closing_a_fresh_directory_leaves_a_stamped_log(
            self, tmp_path):
        Database(str(tmp_path)).close()
        assert (tmp_path / "wal.log").read_bytes() == \
            _HEADER.pack(MAGIC, FORMAT_VERSION)
        assert not (tmp_path / "snapshot.pickle").exists()
        Database(str(tmp_path)).close()
        assert (tmp_path / "wal.log").read_bytes() == \
            _HEADER.pack(MAGIC, FORMAT_VERSION)
