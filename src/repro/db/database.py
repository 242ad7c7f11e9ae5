"""The database facade: schema + store + locks + indexes.

Ties the substrate together and exposes the traditional-database surface
the paper requires of an AV database system (§3.1): schema definition,
transactions, queries returning references, index maintenance, a
per-object version number, checkpoint/recovery.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from repro.db.index import KeywordIndex, OrderedIndex
from repro.db.locks import LockManager
from repro.db.objects import DBObject, OID
from repro.db.query import Predicate, Q
from repro.db.schema import ClassDef, Schema
from repro.db.store import OP_DELETE, OP_INSERT, OP_UPDATE, ObjectStore, Op
from repro.db.transactions import Transaction
from repro.errors import SchemaError
from repro.obs import Obs, attach


class Database:
    """An object database instance (optionally durable)."""

    def __init__(self, directory: Optional[str] = None,
                 obs: Optional[Obs] = None) -> None:
        self.obs = attach(obs)
        self.schema = Schema()
        self._store = ObjectStore(directory)
        self._locks = LockManager(obs=self.obs)
        self._tx_ids = itertools.count(1)
        # (class_name, attribute) -> index
        self._ordered: Dict[tuple, OrderedIndex] = {}
        self._keyword: Dict[tuple, KeywordIndex] = {}
        # name -> (class_name, index, key_of): derived-key indexes kept
        # in lockstep with commits (see attach_index).
        self._derived: Dict[str, tuple] = {}
        self.stats = {"commits": 0, "aborts": 0, "index_scans": 0, "full_scans": 0}
        metrics = self.obs.metrics
        self._m_begins = metrics.counter("db.tx_begins")
        self._m_commits = metrics.counter("db.tx_commits")
        self._m_aborts = metrics.counter("db.tx_aborts")
        self._m_index_scans = metrics.counter("db.index_scans")
        self._m_full_scans = metrics.counter("db.full_scans")

    # -- schema ---------------------------------------------------------
    def define_class(self, class_def: ClassDef) -> ClassDef:
        """Register a class and create its declared indexes."""
        self.schema.define(class_def)
        for spec in class_def.attributes:
            if spec.indexed:
                self._ordered[(class_def.name, spec.name)] = OrderedIndex()
            if spec.keyword_indexed:
                self._keyword[(class_def.name, spec.name)] = KeywordIndex()
        return class_def

    def attach_index(self, name: str, class_name: str, index: Any,
                     key_of) -> None:
        """Register a *derived-key* index maintained through commits.

        Unlike the per-attribute indexes declared in a :class:`ClassDef`,
        a derived index is keyed by ``key_of(obj)`` — any function of the
        whole object (e.g. the ``(value_id, track, start, end)`` interval
        key in ``repro.annotations``).  The index object must implement
        ``insert(key, obj)`` / ``remove(key, obj)`` / ``clear()``; ``obj``
        is the committed snapshot :meth:`get` returns, so an index may
        keep it and answer without the object table.  Existing objects
        are backfilled immediately; afterwards :meth:`_reindex` removes
        the old snapshot and inserts the new one on every commit.
        """
        if name in self._derived:
            raise SchemaError(f"derived index {name!r} already attached")
        self._derived[name] = (class_name, index, key_of)
        if class_name in self.schema:
            classes = self.schema.subclasses_of(class_name)
            for oid in self._store.oids_of_class(classes):
                obj = self._store.get(oid)
                index.insert(key_of(obj), obj)

    # -- transactions ------------------------------------------------------
    def begin(self) -> Transaction:
        self._m_begins.inc()
        return Transaction(self, next(self._tx_ids))

    def _commit_transaction(self, tx: Transaction, ops: List[Op]) -> None:
        # Maintain indexes: need old snapshots before the store applies.
        index_moves = []
        for kind, arg in ops:
            if kind == OP_INSERT:
                index_moves.append((None, arg))
            elif kind == OP_UPDATE:
                index_moves.append((self._store.get(arg.oid), arg))
            elif kind == OP_DELETE:
                index_moves.append((self._store.get(arg), None))
        self._store.commit_ops(tx.tx_id, ops)
        for old, new in index_moves:
            self._reindex(old, new)
        self.stats["commits"] += 1
        self._m_commits.inc()

    def _reindex(self, old: Optional[DBObject], new: Optional[DBObject]) -> None:
        oid = (old or new).oid
        class_name = oid.class_name
        if class_name not in self.schema:
            # Recovered objects whose class has not been redefined yet;
            # rebuild_indexes() after the definition will pick them up.
            return
        for (cls, attr), index in itertools.chain(self._ordered.items(),
                                                   self._keyword.items()):
            if not self.schema.is_subclass(class_name, cls):
                continue
            if old is not None:
                index.remove(old.get(attr), oid)
            if new is not None:
                index.insert(new.get(attr), oid)
        for cls, index, key_of in self._derived.values():
            if not self.schema.is_subclass(class_name, cls):
                continue
            if old is not None:
                index.remove(key_of(old), old)
            if new is not None:
                index.insert(key_of(new), new)

    # -- autocommit conveniences -----------------------------------------
    def insert(self, class_name: str, **attributes: Any) -> OID:
        with self.begin() as tx:
            oid = tx.insert(class_name, **attributes)
        return oid

    def update(self, oid: OID, **changes: Any) -> DBObject:
        with self.begin() as tx:
            snapshot = tx.update(oid, **changes)
        return snapshot

    def delete(self, oid: OID) -> None:
        with self.begin() as tx:
            tx.delete(oid)

    def get(self, oid: OID) -> DBObject:
        """Non-transactional read of the latest committed snapshot."""
        return self._store.get(oid)

    def exists(self, oid: OID) -> bool:
        return self._store.exists(oid)

    def __len__(self) -> int:
        return len(self._store)

    # -- queries --------------------------------------------------------
    def select(self, class_name: str, predicate: Optional[Predicate] = None,
               include_subclasses: bool = True) -> List[OID]:
        """``select <class> where <predicate>`` — returns references."""
        predicate = predicate if predicate is not None else Q.true()
        if class_name not in self.schema:
            raise SchemaError(f"unknown class {class_name!r}")
        classes = (
            self.schema.subclasses_of(class_name)
            if include_subclasses else [class_name]
        )
        results: List[OID] = []
        for cls in classes:
            ordered = {
                attr: idx for (c, attr), idx in self._ordered.items() if c == cls
            }
            keyword = {
                attr: idx for (c, attr), idx in self._keyword.items() if c == cls
            }
            plan = predicate.index_plan(ordered, keyword)
            if plan is not None:
                self.stats["index_scans"] += 1
                self._m_index_scans.inc()
                candidates = sorted(o for o in plan if o.class_name == cls)
            else:
                self.stats["full_scans"] += 1
                self._m_full_scans.inc()
                candidates = self._store.oids_of_class([cls])
            results.extend(
                oid for oid in candidates if predicate.matches(self._store.get(oid))
            )
        return sorted(results)

    def query(self, text: str) -> List[OID]:
        """Run a textual ``select <Class> where <expr>`` query (§4.3)."""
        from repro.db.parser import parse_query
        class_name, predicate = parse_query(text)
        return self.select(class_name, predicate)

    def select_one(self, class_name: str, predicate: Optional[Predicate] = None) -> OID:
        matches = self.select(class_name, predicate)
        if len(matches) != 1:
            raise SchemaError(
                f"select_one expected exactly 1 match, got {len(matches)}"
            )
        return matches[0]

    # -- durability ----------------------------------------------------------
    def checkpoint(self) -> None:
        self._store.checkpoint()

    def close(self) -> None:
        self._store.close()

    def rebuild_indexes(self) -> None:
        """Repopulate all indexes from the store (after recovery)."""
        for index in itertools.chain(
                self._ordered.values(), self._keyword.values(),
                (index for _, index, _ in self._derived.values())):
            index.clear()
        for oid in self._store.all_oids():
            self._reindex(None, self._store.get(oid))
