"""Durability: WAL, checkpoints, crash recovery, torn-tail handling."""

import os
import pickle
import random

import pytest

from repro.db import AttributeSpec, ClassDef, Database
from repro.db.objects import DBObject, OID
from repro.db.store import OP_INSERT, ObjectStore
from repro.errors import DatabaseError, ObjectNotFoundError


def doc_class():
    return ClassDef("Doc", attributes=[
        AttributeSpec("name", str, indexed=True),
        AttributeSpec("body", str),
    ])


def reopen(path):
    db = Database(str(path))
    db.define_class(doc_class())
    db.rebuild_indexes()
    return db


class TestOID:
    def test_hash_eq_and_order_are_the_tuples(self):
        pairs = [("Doc", 2), ("Clip", 30), ("Docs", 1), ("Doc", 11)]
        oids = [OID(*pair) for pair in pairs]
        for oid, pair in zip(oids, pairs):
            assert oid == pair and hash(oid) == hash(pair)
            assert (oid.class_name, oid.serial) == pair
        assert sorted(oids) == [OID(*pair) for pair in sorted(pairs)]
        assert OID("Doc", 2) < OID("Doc", 11) < OID("Docs", 1)
        assert {OID("Doc", 2): "a"}[OID("Doc", 2)] == "a"

    def test_repr_and_str_are_unchanged(self):
        oid = OID("Doc", 7)
        assert repr(oid) == "OID(class_name='Doc', serial=7)"
        assert str(oid) == f"{oid}" == "Doc:7"

    def test_immutable(self):
        oid = OID("Doc", 7)
        with pytest.raises(AttributeError):
            oid.serial = 8
        with pytest.raises(AttributeError):
            oid.extra = 1

    def test_pickle_round_trip(self):
        oid = OID("Doc", 7)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(oid, protocol=protocol))
            assert type(again) is OID and again == oid


class TestInMemoryStore:
    def test_basic_lifecycle(self):
        store = ObjectStore()
        oid = store.next_oid("Doc")
        store.commit_ops(1, [(OP_INSERT, DBObject(oid, ("name",), ("a",)))])
        assert store.get(oid).name == "a"
        assert len(store) == 1

    def test_missing_object(self):
        store = ObjectStore()
        with pytest.raises(ObjectNotFoundError):
            store.get(OID("Doc", 99))

    def test_insert_existing_rejected(self):
        store = ObjectStore()
        oid = store.next_oid("Doc")
        obj = DBObject(oid)
        store.commit_ops(1, [(OP_INSERT, obj)])
        with pytest.raises(DatabaseError, match="insert of existing"):
            store.commit_ops(2, [(OP_INSERT, obj)])

    def test_checkpoint_requires_durable(self):
        with pytest.raises(DatabaseError):
            ObjectStore().checkpoint()

    def test_next_oids_equals_successive_next_oid(self):
        batched, single = ObjectStore(), ObjectStore()
        for store in (batched, single):
            assert store.next_oid("Doc") == OID("Doc", 1)
            assert store.next_oid("Clip") == OID("Clip", 1)
        assert batched.next_oids("Doc", 5) == \
            [single.next_oid("Doc") for _ in range(5)]
        assert batched.next_oids("Doc", 0) == []
        assert batched.next_oid("Doc") == single.next_oid("Doc")
        assert batched.next_oids("Clip", 3) == \
            [single.next_oid("Clip") for _ in range(3)]
        assert batched.next_oids("New", 2) == \
            [single.next_oid("New") for _ in range(2)]
        assert batched._serials == single._serials
        with pytest.raises(DatabaseError):
            batched.next_oids("Doc", -1)

    def test_oids_of_class_order_is_the_oid_order(self):
        # Inserted out of serial order, across classes whose names sort
        # around each other: the keyed sort must equal sorted(oids).
        store = ObjectStore()
        oids = [OID(name, serial) for serial in (7, 2, 11, 1, 30)
                for name in ("Doc", "Clip", "Docs")]
        store.commit_ops(1, [(OP_INSERT, DBObject(o)) for o in oids])
        assert store.oids_of_class(["Docs", "Clip", "Doc"]) == sorted(oids)
        assert store.oids_of_class(["Doc"]) == sorted(
            o for o in oids if o.class_name == "Doc")
        assert store.oids_of_class(["Nope"]) == []


class TestRecovery:
    def test_wal_replay_after_close(self, tmp_path):
        db = Database(str(tmp_path))
        db.define_class(doc_class())
        oid1 = db.insert("Doc", name="one")
        oid2 = db.insert("Doc", name="two")
        db.update(oid1, body="hello")
        db.delete(oid2)
        db.close()

        recovered = reopen(tmp_path)
        assert recovered.get(oid1).body == "hello"
        assert not recovered.exists(oid2)
        assert recovered._store.recovered_records == 4

    def test_checkpoint_then_more_writes(self, tmp_path):
        db = Database(str(tmp_path))
        db.define_class(doc_class())
        oid1 = db.insert("Doc", name="before")
        db.checkpoint()
        oid2 = db.insert("Doc", name="after")
        db.close()

        recovered = reopen(tmp_path)
        assert recovered.get(oid1).name == "before"
        assert recovered.get(oid2).name == "after"
        # Only the post-checkpoint record replays from the WAL.
        assert recovered._store.recovered_records == 1

    def test_torn_tail_ignored(self, tmp_path):
        db = Database(str(tmp_path))
        db.define_class(doc_class())
        oid1 = db.insert("Doc", name="committed")
        db.insert("Doc", name="casualty")
        db.close()
        # Simulate a crash mid-append: truncate the last 7 bytes.
        wal = tmp_path / ObjectStore.WAL_NAME
        size = os.path.getsize(wal)
        with open(wal, "r+b") as f:
            f.truncate(size - 7)

        recovered = reopen(tmp_path)
        assert recovered.exists(oid1)
        assert recovered._store.recovered_records == 1
        assert len(recovered) == 1

    def test_commit_after_torn_tail_survives_the_next_open(self, tmp_path):
        db = Database(str(tmp_path))
        db.define_class(doc_class())
        db.insert("Doc", name="committed")
        db.insert("Doc", name="casualty")
        db.close()
        wal = tmp_path / ObjectStore.WAL_NAME
        with open(wal, "r+b") as f:
            f.truncate(os.path.getsize(wal) - 7)

        recovered = reopen(tmp_path)
        assert len(recovered) == 1
        later = recovered.insert("Doc", name="acknowledged")
        recovered.close()
        # The new record must not sit behind the torn one's remains.
        again = reopen(tmp_path)
        assert again.get(later).name == "acknowledged"
        assert len(again) == 2

    def test_recovery_is_idempotent_after_checkpoint(self, tmp_path):
        """Snapshot replaced + WAL intact: replay must change nothing."""
        db = Database(str(tmp_path))
        db.define_class(doc_class())
        gone = db.insert("Doc", name="gone")
        kept = db.insert("Doc", name="kept")
        db.checkpoint()
        db.delete(gone)
        db.update(kept, body="edited")
        wal = tmp_path / ObjectStore.WAL_NAME
        log = wal.read_bytes()
        db.checkpoint()  # the snapshot now holds the log's effects...
        db.close()
        wal.write_bytes(log)  # ...and the crash came before the truncate

        recovered = reopen(tmp_path)
        assert recovered._store.all_oids() == [kept]
        assert recovered.get(kept).body == "edited"
        assert recovered._store.recovered_records == 2

    def test_corrupt_crc_stops_replay(self, tmp_path):
        db = Database(str(tmp_path))
        db.define_class(doc_class())
        oid1 = db.insert("Doc", name="good")
        db.insert("Doc", name="flipped")
        db.close()
        wal = tmp_path / ObjectStore.WAL_NAME
        data = bytearray(wal.read_bytes())
        data[-3] ^= 0xFF  # flip a bit inside the last record's CRC
        wal.write_bytes(bytes(data))

        recovered = reopen(tmp_path)
        assert recovered.exists(oid1)
        assert len(recovered) == 1

    def test_serials_continue_after_recovery(self, tmp_path):
        db = Database(str(tmp_path))
        db.define_class(doc_class())
        old = db.insert("Doc", name="old")
        db.close()

        recovered = reopen(tmp_path)
        new = recovered.insert("Doc", name="new")
        assert new.serial > old.serial  # no OID reuse

    def test_indexes_rebuild_after_recovery(self, tmp_path):
        from repro.db import Q
        db = Database(str(tmp_path))
        db.define_class(doc_class())
        oid = db.insert("Doc", name="findme")
        db.close()

        recovered = reopen(tmp_path)
        assert recovered.select("Doc", Q.eq("name", "findme")) == [oid]

    def test_media_values_survive_recovery(self, tmp_path):
        import numpy as np
        from repro.synth import moving_scene
        from repro.values import VideoValue
        db = Database(str(tmp_path))
        db.define_class(ClassDef("Clip", attributes=[
            AttributeSpec("video", VideoValue),
        ]))
        video = moving_scene(4, 16, 16)
        oid = db.insert("Clip", video=video)
        db.close()

        recovered = Database(str(tmp_path))
        recovered.define_class(ClassDef("Clip", attributes=[
            AttributeSpec("video", VideoValue),
        ]))
        restored = recovered.get(oid).video
        assert np.array_equal(restored.frames_array, video.frames_array)
        assert restored.mapping.rate == video.mapping.rate


class TestCrashPoints:
    """A crash wherever the log or a checkpoint can be cut, against a dict.

    A seeded history of single- and multi-op transactions with two
    checkpoints runs against a durable database and a dict (two, because
    only a log that deletes what an *earlier* snapshot brought in can
    tell an idempotent replay from a plain one).  Then, for a crash at
    every record boundary of the log, at three torn offsets inside every
    record, and at the two instants inside each checkpoint (snapshot
    replaced and log not yet truncated; log truncated), the files are
    put back as the crash left them and the reopened database must hold
    exactly the last durable commit, accept one more, and still hold
    that after another reopen.
    """

    CLASSES = ("Doc", "Memo")
    TRANSACTIONS = 42
    CHECKPOINTS = (14, 28)

    def _open(self, path):
        db = Database(str(path))
        for name in self.CLASSES:
            db.define_class(ClassDef(name, attributes=[
                AttributeSpec("name", str, indexed=True),
                AttributeSpec("body", str),
            ]))
        db.rebuild_indexes()
        return db

    def _crash_points(self, path, seed):
        """(snapshot bytes or None, log bytes, durable table, serials)s."""
        rng = random.Random(seed)
        db = self._open(path)
        wal = path / ObjectStore.WAL_NAME
        table, serials = {}, {}  # oid -> (attributes, version); class -> n

        def insert(tx):
            cls = rng.choice(self.CLASSES)
            attributes = {"name": f"n{rng.randrange(6)}", "body": "new"}
            oid = tx.insert(cls, **attributes)
            serials[cls] = serials.get(cls, 0) + 1
            assert oid == OID(cls, serials[cls])
            table[oid] = (attributes, 1)

        def update(tx, oid):
            attributes, version = table[oid]
            change = {"name": f"n{rng.randrange(6)}"}
            tx.update(oid, **change)
            table[oid] = ({**attributes, **change}, version + 1)

        def delete(tx, oid):
            tx.delete(oid)
            del table[oid]

        points = []
        snapshot = None
        # (log length, table, serials) at each commit since the snapshot
        durable = [(0, {}, {})]

        def cuts():
            log = wal.read_bytes()
            for (begin, *state), (end, *_) in zip(durable, durable[1:]):
                for cut in (begin, begin + 1, (begin + end) // 2, end - 1):
                    yield (snapshot, log[:cut], *state)
            yield (snapshot, log, *durable[-1][1:])

        for step in range(self.TRANSACTIONS):
            if step in self.CHECKPOINTS:
                points.extend(cuts())
                log = points[-1][1]  # the whole log, as cuts() read it
                db.checkpoint()
                snapshot = (path / ObjectStore.SNAPSHOT_NAME).read_bytes()
                state = durable[-1][1:]
                points.append((snapshot, log, *state))  # log not truncated
                durable = [(0, *state)]
            with db.begin() as tx:
                kind = rng.choice(("insert", "update", "delete", "multi"))
                if kind == "insert" or len(table) < 3:
                    insert(tx)
                elif kind == "update":
                    update(tx, rng.choice(sorted(table)))
                elif kind == "delete":
                    delete(tx, rng.choice(sorted(table)))
                else:
                    changed, dropped = rng.sample(sorted(table), 2)
                    insert(tx)
                    update(tx, changed)
                    delete(tx, dropped)
            durable.append((os.path.getsize(wal), dict(table), dict(serials)))
        points.extend(cuts())
        db.close()
        return points

    def _holds(self, db, table, serials):
        store = db._store
        assert {oid: (store.get(oid).attributes, store.get(oid).version)
                for oid in store.all_oids()} == table
        assert store._serials == serials
        for cls in self.CLASSES:
            by_name = {}
            for oid, (attributes, _) in table.items():
                if oid.class_name == cls:
                    by_name.setdefault(attributes["name"], set()).add(oid)
            assert list(db._ordered[cls, "name"].items()) == \
                sorted(by_name.items())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_crash_point_recovers_the_last_durable_commit(
            self, tmp_path, seed):
        points = self._crash_points(tmp_path / "history", seed)
        assert len(points) == \
            4 * self.TRANSACTIONS + 2 * len(self.CHECKPOINTS) + 1
        crashed = tmp_path / "crashed"
        crashed.mkdir()
        for snapshot, log, table, serials in points:
            if snapshot is not None:
                (crashed / ObjectStore.SNAPSHOT_NAME).write_bytes(snapshot)
            (crashed / ObjectStore.WAL_NAME).write_bytes(log)
            db = self._open(crashed)
            self._holds(db, table, serials)
            late = {"name": "after the crash", "body": "x"}
            oid = db.insert("Doc", **late)
            db.close()
            db = self._open(crashed)
            self._holds(db, {**table, oid: (late, 1)},
                        {**serials, "Doc": serials.get("Doc", 0) + 1})
            db.close()
