"""Transactions: isolation, strict 2PL, wait-die, abort semantics."""

import pytest

from repro.db import AttributeSpec, ClassDef, Database
from repro.db.locks import LockMode
from repro.errors import LockTimeoutError, ObjectNotFoundError, TransactionError


@pytest.fixture
def db():
    database = Database()
    database.define_class(ClassDef("Doc", attributes=[
        AttributeSpec("name", str, indexed=True),
        AttributeSpec("count", int),
    ]))
    return database


class TestBasics:
    def test_commit_applies_buffered_writes(self, db):
        tx = db.begin()
        oid = tx.insert("Doc", name="a", count=1)
        assert not db.exists(oid)  # not visible before commit
        tx.commit()
        assert db.get(oid).count == 1

    def test_abort_discards_writes(self, db):
        tx = db.begin()
        oid = tx.insert("Doc", name="a")
        tx.abort()
        assert not db.exists(oid)

    def test_abort_after_commit_is_a_no_op(self, db):
        tx = db.begin()
        oid = tx.insert("Doc", name="a")
        tx.commit()
        tx.abort()
        assert db.exists(oid)

    def test_own_writes_visible(self, db):
        tx = db.begin()
        oid = tx.insert("Doc", name="a", count=1)
        tx.update(oid, count=2)
        assert tx.read(oid).count == 2
        tx.commit()
        assert db.get(oid).count == 2

    def test_insert_then_delete_nets_nothing(self, db):
        tx = db.begin()
        oid = tx.insert("Doc", name="ghost")
        tx.delete(oid)
        tx.commit()
        assert not db.exists(oid)

    def test_used_after_commit_rejected(self, db):
        tx = db.begin()
        tx.insert("Doc", name="a")
        tx.commit()
        with pytest.raises(TransactionError, match="committed"):
            tx.insert("Doc", name="b")

    def test_context_manager_commits_or_aborts(self, db):
        with db.begin() as tx:
            oid = tx.insert("Doc", name="a")
        assert db.exists(oid)
        with pytest.raises(RuntimeError):
            with db.begin() as tx:
                doomed = tx.insert("Doc", name="b")
                raise RuntimeError("boom")
        assert not db.exists(doomed)

    def test_version_bumps_on_update(self, db):
        oid = db.insert("Doc", name="a")
        assert db.get(oid).version == 1
        db.update(oid, count=1)
        db.update(oid, count=2)
        assert db.get(oid).version == 3

    def test_update_missing_object(self, db):
        tx = db.begin()
        from repro.db.objects import OID
        with pytest.raises(ObjectNotFoundError):
            tx.update(OID("Doc", 404), name="x")

    def test_read_own_deleted_object_fails(self, db):
        oid = db.insert("Doc", name="a")
        tx = db.begin()
        tx.delete(oid)
        with pytest.raises(ObjectNotFoundError, match="deleted in this"):
            tx.read(oid)


class TestIsolation:
    def test_no_dirty_reads(self, db):
        oid = db.insert("Doc", name="clean", count=0)
        writer = db.begin()
        writer.update(oid, count=99)
        # Another client's non-transactional read sees the old snapshot.
        assert db.get(oid).count == 0
        writer.commit()
        assert db.get(oid).count == 99

    def test_write_write_conflict(self, db):
        oid = db.insert("Doc", name="contested")
        t1, t2 = db.begin(), db.begin()
        t1.update(oid, count=1)
        with pytest.raises(LockTimeoutError):
            t2.update(oid, count=2)

    def test_read_write_conflict(self, db):
        oid = db.insert("Doc", name="contested")
        t1, t2 = db.begin(), db.begin()
        t1.read(oid)  # shared lock
        with pytest.raises(LockTimeoutError):
            t2.update(oid, count=1)  # needs exclusive

    def test_shared_reads_coexist(self, db):
        oid = db.insert("Doc", name="shared")
        t1, t2 = db.begin(), db.begin()
        assert t1.read(oid).name == "shared"
        assert t2.read(oid).name == "shared"
        t1.commit()
        t2.commit()

    def test_lock_upgrade_when_sole_holder(self, db):
        oid = db.insert("Doc", name="x")
        tx = db.begin()
        tx.read(oid)
        tx.update(oid, count=5)  # upgrade S -> X succeeds
        tx.commit()
        assert db.get(oid).count == 5

    def test_lock_upgrade_blocked_by_other_reader(self, db):
        oid = db.insert("Doc", name="x")
        t1, t2 = db.begin(), db.begin()
        t1.read(oid)
        t2.read(oid)
        with pytest.raises(LockTimeoutError):
            t1.update(oid, count=1)

    def test_locks_released_at_commit(self, db):
        oid = db.insert("Doc", name="x")
        t1 = db.begin()
        t1.update(oid, count=1)
        t1.commit()
        t2 = db.begin()
        t2.update(oid, count=2)  # no conflict now
        t2.commit()
        assert db.get(oid).count == 2

    def test_locks_released_at_abort(self, db):
        oid = db.insert("Doc", name="x")
        t1 = db.begin()
        t1.update(oid, count=1)
        t1.abort()
        t2 = db.begin()
        t2.update(oid, count=2)
        t2.commit()
        assert db.get(oid).count == 2


class TestWaitDie:
    def test_younger_dies(self, db):
        oid = db.insert("Doc", name="x")
        older = db.begin()   # smaller tx_id = older
        younger = db.begin()
        older.update(oid, count=1)
        try:
            younger.update(oid, count=2)
            pytest.fail("expected a conflict")
        except LockTimeoutError as error:
            assert error.should_retry is False  # younger dies

    def test_older_waits(self, db):
        oid = db.insert("Doc", name="x")
        older = db.begin()
        younger = db.begin()
        younger.update(oid, count=2)
        try:
            older.update(oid, count=1)
            pytest.fail("expected a conflict")
        except LockTimeoutError as error:
            assert error.should_retry is True  # older may wait and retry

    def test_retry_after_younger_commits(self, db):
        oid = db.insert("Doc", name="x")
        older = db.begin()
        younger = db.begin()
        younger.update(oid, count=2)
        with pytest.raises(LockTimeoutError):
            older.update(oid, count=1)
        younger.commit()
        older.update(oid, count=1)  # retry succeeds
        older.commit()
        assert db.get(oid).count == 1


def mode_of(db, oid):
    entry = db._locks._locks.get(oid)
    return entry.mode if entry else None


class TestLockManager:
    def test_mode_tracking(self, db):
        oid = db.insert("Doc", name="x")
        tx = db.begin()
        tx.read(oid)
        assert mode_of(db, oid) is LockMode.SHARED
        tx.update(oid, count=1)
        assert mode_of(db, oid) is LockMode.EXCLUSIVE
        tx.commit()
        assert mode_of(db, oid) is None

    def test_held_by(self, db):
        oid = db.insert("Doc", name="x")
        tx = db.begin()
        tx.read(oid)
        assert tx.tx_id in db._locks._locks[oid].holders


class TestWaitDieProperties:
    def test_random_interleavings_never_deadlock_and_stay_serializable(self, db):
        """Wait-die under random workloads: every transaction either
        commits or dies; retried-to-completion counters match a serial
        execution's total."""
        import random

        rng = random.Random(42)
        oids = [db.insert("Doc", name=f"d{i}", count=0) for i in range(4)]

        total_increments = 0
        pending = []
        for round_number in range(60):
            # A few transactions interleaved at random.
            tx = db.begin()
            targets = rng.sample(oids, k=rng.randint(1, 3))
            try:
                for oid in targets:
                    current = tx.read(oid)
                    tx.update(oid, count=current.count + 1)
                pending.append((tx, len(targets)))
            except LockTimeoutError:
                tx.abort()  # died or must wait: give up this attempt
            # Randomly complete some pending transactions.
            while pending and rng.random() < 0.7:
                done, increments = pending.pop(rng.randrange(len(pending)))
                done.commit()
                total_increments += increments
        for tx, increments in pending:
            tx.commit()
            total_increments += increments

        final_total = sum(db.get(oid).count for oid in oids)
        assert final_total == total_increments

    def test_no_locks_leak_after_storm(self, db):
        import random
        rng = random.Random(7)
        oids = [db.insert("Doc", name=f"x{i}") for i in range(3)]
        for _ in range(40):
            tx = db.begin()
            try:
                for oid in rng.sample(oids, k=rng.randint(1, 3)):
                    if rng.random() < 0.5:
                        tx.read(oid)
                    else:
                        tx.update(oid, count=rng.randint(0, 9))
                if rng.random() < 0.5:
                    tx.commit()
                else:
                    tx.abort()
            except LockTimeoutError:
                tx.abort()
        assert db._locks._locks == {}
