"""The paged object store: bounded memory, WAL recovery over the heap."""

import numpy as np
import pytest

from repro.db import AttributeSpec, ClassDef, Database, Q
from repro.db.pagedstore import PagedObjectStore
from repro.errors import ObjectNotFoundError, SchemaError
from repro.synth import moving_scene
from repro.values import VideoValue


def doc_class():
    return ClassDef("Doc", attributes=[
        AttributeSpec("name", str, indexed=True),
        AttributeSpec("body", str),
    ])


def open_db(path, pool_capacity=16):
    db = Database(str(path), paged=True, pool_capacity=pool_capacity)
    db.define_class(doc_class())
    db.rebuild_indexes()
    return db


class TestPagedDatabase:
    def test_basic_crud(self, tmp_path):
        db = open_db(tmp_path)
        oid = db.insert("Doc", name="a", body="hello")
        assert db.get(oid).body == "hello"
        db.update(oid, body="world")
        assert db.get(oid).body == "world"
        db.delete(oid)
        with pytest.raises(ObjectNotFoundError):
            db.get(oid)
        db.close()

    def test_requires_directory(self):
        with pytest.raises(SchemaError, match="directory"):
            Database(paged=True)

    def test_oids_of_class_order_is_the_oid_order(self, tmp_path):
        db = open_db(tmp_path)
        db.define_class(ClassDef("Clip", attributes=[
            AttributeSpec("name", str)]))
        oids = [db.insert(cls, name=str(i))
                for i in range(12) for cls in ("Doc", "Clip")]
        for oid in oids[3::5]:
            db.delete(oid)
        alive = [oid for oid in oids if db.exists(oid)]
        assert db._store.oids_of_class(["Clip", "Doc"]) == sorted(alive)
        assert db._store.oids_of_class(["Doc"]) == sorted(
            o for o in alive if o.class_name == "Doc")
        db.close()

    def test_recovery_after_close(self, tmp_path):
        db = open_db(tmp_path)
        oid1 = db.insert("Doc", name="one")
        oid2 = db.insert("Doc", name="two")
        db.update(oid1, body="edited")
        db.delete(oid2)
        db.close()

        recovered = open_db(tmp_path)
        assert recovered.get(oid1).body == "edited"
        assert not recovered.exists(oid2)
        recovered.close()

    def test_recovery_is_idempotent_after_flush(self, tmp_path):
        """Heap flushed + WAL intact: replay must not duplicate objects."""
        db = open_db(tmp_path)
        oid = db.insert("Doc", name="a")
        db._store._heap.pool.flush_all()  # effects reach the heap...
        db._store._wal_file.close()       # ...but the WAL is NOT truncated
        db._store._heap.close()

        recovered = open_db(tmp_path)
        assert len(recovered) == 1
        assert recovered.get(oid).name == "a"
        # Exactly one live record for the OID in the heap.
        live = [o for _, o in recovered._store._heap.scan()]
        assert len(live) == 1
        recovered.close()

    def test_checkpoint_truncates_wal(self, tmp_path):
        db = open_db(tmp_path)
        db.insert("Doc", name="pre")
        db.checkpoint()
        oid = db.insert("Doc", name="post")
        db.close()

        recovered = open_db(tmp_path)
        assert recovered._store.recovered_records == 1  # only post-checkpoint
        assert len(recovered) == 2
        recovered.close()

    def test_serials_survive(self, tmp_path):
        db = open_db(tmp_path)
        old = db.insert("Doc", name="old")
        db.close()
        recovered = open_db(tmp_path)
        new = recovered.insert("Doc", name="new")
        assert new.serial > old.serial
        recovered.close()

    def test_queries_and_indexes(self, tmp_path):
        db = open_db(tmp_path)
        oid = db.insert("Doc", name="findme")
        assert db.select("Doc", Q.eq("name", "findme")) == [oid]
        db.close()
        recovered = open_db(tmp_path)
        assert recovered.select("Doc", Q.eq("name", "findme")) == [oid]
        recovered.close()

    def test_large_media_objects_page_out(self, tmp_path):
        """Objects bigger than one page round-trip through overflow
        chains, with a pool far smaller than the data."""
        db = Database(str(tmp_path), paged=True, pool_capacity=4)
        db.define_class(ClassDef("Clip", attributes=[
            AttributeSpec("video", VideoValue),
        ]))
        videos = [moving_scene(6, 32, 24, seed=i) for i in range(8)]
        oids = [db.insert("Clip", video=v) for v in videos]
        store: PagedObjectStore = db._store
        assert store.pool.evictions > 0  # really paging
        for oid, video in zip(oids, videos):
            restored = db.get(oid).video
            assert np.array_equal(restored.frames_array, video.frames_array)
        db.close()

    def test_transactions_work_over_paged_store(self, tmp_path):
        db = open_db(tmp_path)
        with db.begin() as tx:
            oid = tx.insert("Doc", name="tx")
            tx.update(oid, body="buffered")
        assert db.get(oid).body == "buffered"
        # Abort leaves nothing.
        tx2 = db.begin()
        doomed = tx2.insert("Doc", name="no")
        tx2.abort()
        assert not db.exists(doomed)
        db.close()

    def test_update_reclaims_heap_space(self, tmp_path):
        db = open_db(tmp_path)
        oid = db.insert("Doc", name="x", body="v1")
        for i in range(5):
            db.update(oid, body=f"v{i + 2}")
        # Only one live record remains despite 6 versions written.
        live = [o for _, o in db._store._heap.scan()]
        assert len(live) == 1
        db.close()


class TestVacuum:
    def test_vacuum_reclaims_dead_space(self, tmp_path):
        db = open_db(tmp_path, pool_capacity=8)
        oids = [db.insert("Doc", name=f"d{i}", body="x" * 2000)
                for i in range(20)]
        for oid in oids[:15]:
            db.delete(oid)
        store = db._store
        saved = store.vacuum()
        assert saved > 0
        # Survivors still readable after compaction re-pointed the map.
        for oid in oids[15:]:
            assert db.get(oid).name.startswith("d")
        db.close()

    def test_vacuum_preserves_large_records(self, tmp_path):
        import numpy as np
        from repro.synth import moving_scene
        db = Database(str(tmp_path), paged=True, pool_capacity=8)
        db.define_class(ClassDef("Clip", attributes=[
            AttributeSpec("video", VideoValue),
        ]))
        videos = [moving_scene(5, 32, 24, seed=i) for i in range(4)]
        oids = [db.insert("Clip", video=v) for v in videos]
        db.delete(oids[1])
        db._store.vacuum()
        for oid, video in ((oids[0], videos[0]), (oids[2], videos[2]),
                           (oids[3], videos[3])):
            assert np.array_equal(db.get(oid).video.frames_array,
                                  video.frames_array)
        db.close()

    def test_updates_work_after_vacuum(self, tmp_path):
        db = open_db(tmp_path)
        oid = db.insert("Doc", name="survivor")
        db.insert("Doc", name="casualty")
        db.delete(db.select("Doc", Q.eq("name", "casualty"))[0])
        db._store.vacuum()
        db.update(oid, body="post-vacuum edit")
        assert db.get(oid).body == "post-vacuum edit"
        db.close()

    def test_recovery_after_vacuum_and_checkpoint(self, tmp_path):
        db = open_db(tmp_path)
        keep = db.insert("Doc", name="keep")
        drop = db.insert("Doc", name="drop")
        db.delete(drop)
        db._store.vacuum()
        db.checkpoint()
        post = db.insert("Doc", name="post")
        db.close()
        recovered = open_db(tmp_path)
        assert recovered.get(keep).name == "keep"
        assert recovered.get(post).name == "post"
        assert len(recovered) == 2
        recovered.close()
