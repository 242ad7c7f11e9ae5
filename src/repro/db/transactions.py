"""Transactions: buffered writes under strict 2PL.

A transaction buffers its writes privately; reads see the transaction's
own uncommitted writes, other transactions never do (no dirty reads).
Locks are taken as operations execute (growing phase) and released only
at commit/abort (strict 2PL), after the commit record reaches the WAL.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.db.locks import LockMode
from repro.db.objects import DBObject, OID
from repro.db.store import OP_DELETE, OP_INSERT, OP_UPDATE, Op
from repro.errors import ObjectNotFoundError, TransactionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import Database


class TxState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One unit of work against the database."""

    def __init__(self, db: "Database", tx_id: int) -> None:
        self._db = db
        self.tx_id = tx_id
        self.state = TxState.ACTIVE
        # OID -> buffered new snapshot; None marks a buffered delete.
        self._writes: Dict[OID, Optional[DBObject]] = {}
        self._inserted: List[OID] = []

    # -- guards -------------------------------------------------------------
    def _require_active(self) -> None:
        if self.state is not TxState.ACTIVE:
            raise TransactionError(
                f"transaction {self.tx_id} is {self.state.value}"
            )

    # -- operations ----------------------------------------------------------
    def read(self, oid: OID) -> DBObject:
        """Shared-locked read; sees this transaction's own writes."""
        self._require_active()
        if oid in self._writes:
            snapshot = self._writes[oid]
            if snapshot is None:
                raise ObjectNotFoundError(f"object {oid} deleted in this transaction")
            return snapshot
        self._db._locks.acquire(self.tx_id, oid, LockMode.SHARED)
        return self._db._store.get(oid)

    def lock(self, oid: OID, mode: LockMode = LockMode.SHARED) -> None:
        """Take an explicit lock without touching the object.

        Used for *logical* locks on OIDs that need not exist — e.g. the
        per-track sentinel OIDs that ``repro.annotations`` scans lock to
        keep wait-die writers out of an in-flight interval scan.  Strict
        2PL applies: the lock is held until commit/abort.
        """
        self._require_active()
        self._db._locks.acquire(self.tx_id, oid, mode)

    def insert(self, class_name: str, **attributes: Any) -> OID:
        """Create a new object (validated against the schema)."""
        self._require_active()
        names = self._db.schema.validate_object(class_name, attributes)
        oid = self._db._store.next_oid(class_name)
        self._db._locks.acquire(self.tx_id, oid, LockMode.EXCLUSIVE)
        self._writes[oid] = DBObject(oid, self._db._store.layout(names),
                                     tuple(map(attributes.__getitem__, names)))
        self._inserted.append(oid)
        return oid

    def update(self, oid: OID, **changes: Any) -> DBObject:
        """Buffer an attribute update (exclusive lock)."""
        self._require_active()
        self._db._locks.acquire(self.tx_id, oid, LockMode.EXCLUSIVE)
        current = self._writes.get(oid)
        if current is None:
            if oid in self._writes:  # buffered delete
                raise ObjectNotFoundError(f"object {oid} deleted in this transaction")
            current = self._db._store.get(oid)
        merged = current.updated(changes).attributes
        names = self._db.schema.validate_object(oid.class_name, merged)
        snapshot = DBObject(oid, self._db._store.layout(names),
                            tuple(map(merged.__getitem__, names)),
                            current.version + 1)
        self._writes[oid] = snapshot
        return snapshot

    def delete(self, oid: OID) -> None:
        self._require_active()
        self._db._locks.acquire(self.tx_id, oid, LockMode.EXCLUSIVE)
        if oid not in self._writes and not self._db._store.exists(oid):
            raise ObjectNotFoundError(f"no object {oid}")
        self._writes[oid] = None

    # -- completion ----------------------------------------------------------
    def commit(self) -> None:
        """Flush buffered writes through the WAL, then release all locks."""
        self._require_active()
        ops: List[Op] = []
        inserted = set(self._inserted)
        for oid, snapshot in self._writes.items():
            if snapshot is None:
                if oid in inserted:
                    continue  # insert + delete in the same tx: net nothing
                ops.append((OP_DELETE, oid))
            elif oid in inserted:
                ops.append((OP_INSERT, snapshot))
            else:
                ops.append((OP_UPDATE, snapshot))
        try:
            self._db._commit_transaction(self, ops)
        except Exception:
            self.abort()
            raise
        self.state = TxState.COMMITTED
        self._db._locks.release_all(self.tx_id)

    def abort(self) -> None:
        if self.state is not TxState.ACTIVE:
            return
        self.state = TxState.ABORTED
        self._writes.clear()
        self._db._locks.release_all(self.tx_id)
        self._db.stats["aborts"] += 1
        self._db._m_aborts.inc()

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.state is TxState.ACTIVE:
            self.commit()
        else:
            self.abort()
