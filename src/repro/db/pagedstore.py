"""Disk-resident object store over the paged heap file.

Same commit/recovery protocol as :class:`~repro.db.store.ObjectStore`
(redo-only WAL, replay on open) but object bytes live in the
:class:`~repro.db.pages.HeapFile` behind an LRU buffer pool, so memory
stays bounded no matter how much media is stored — only the OID →
record-id map is resident.  ``checkpoint()`` flushes the pool and
truncates the WAL (the heap *is* the snapshot).
"""

from __future__ import annotations

import os
import pickle
import zlib
from pathlib import Path
from typing import Dict, Iterable, List

from repro.db.objects import DBObject, OID
from repro.db.pages import HeapFile, RecordId
from repro.db.store import _CRC, _LEN, OP_DELETE, OP_INSERT, OP_UPDATE, Op
from repro.errors import DatabaseError, ObjectNotFoundError


class PagedObjectStore:
    """WAL + paged heap object store with bounded resident memory."""

    HEAP_NAME = "objects.pages"
    WAL_NAME = "wal.log"

    def __init__(self, directory: os.PathLike | str,
                 pool_capacity: int = 128) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._heap = HeapFile(self._directory / self.HEAP_NAME, pool_capacity)
        self._rids: Dict[OID, RecordId] = {}
        self._serials: Dict[str, int] = {}
        self.recovered_records = 0
        self._bootstrap_from_heap()
        self._replay_wal()
        self._wal_file = open(self._wal_path, "ab")

    # -- paths / properties ------------------------------------------------
    @property
    def _wal_path(self) -> Path:
        return self._directory / self.WAL_NAME

    @property
    def durable(self) -> bool:
        return True

    @property
    def pool(self):
        return self._heap.pool

    # -- bootstrap ---------------------------------------------------------
    def _bootstrap_from_heap(self) -> None:
        # A crash between the insert-new and delete-old halves of an
        # update can leave two records for one OID; keep the newer
        # version and reclaim the loser.
        for rid, payload in self._heap.scan():
            obj: DBObject = pickle.loads(payload)
            existing = self._rids.get(obj.oid)
            if existing is not None:
                current: DBObject = pickle.loads(self._heap.read(existing))
                if current.version >= obj.version:
                    self._heap.delete(rid)
                    continue
                self._heap.delete(existing)
            self._rids[obj.oid] = rid
            serial = self._serials.get(obj.oid.class_name, 0)
            self._serials[obj.oid.class_name] = max(serial, obj.oid.serial)

    def _replay_wal(self) -> None:
        if not self._wal_path.exists():
            return
        data = self._wal_path.read_bytes()
        position = 0
        while position + _LEN.size <= len(data):
            (length,) = _LEN.unpack_from(data, position)
            end = position + _LEN.size + length + _CRC.size
            if end > len(data):
                break
            payload = data[position + _LEN.size: position + _LEN.size + length]
            (crc,) = _CRC.unpack_from(data, end - _CRC.size)
            if zlib.crc32(payload) != crc:
                break
            _tx_id, ops = pickle.loads(payload)
            self._apply_ops(ops, replay=True)
            self.recovered_records += 1
            position = end

    # -- object table protocol ---------------------------------------------
    def next_oid(self, class_name: str) -> OID:
        serial = self._serials.get(class_name, 0) + 1
        self._serials[class_name] = serial
        return OID(class_name, serial)

    def next_oids(self, class_name: str, count: int) -> List[OID]:
        """``count`` successive :meth:`next_oid` results, reserved at once."""
        if count < 0:
            raise DatabaseError(f"cannot reserve {count} OIDs")
        first = self._serials.get(class_name, 0) + 1
        self._serials[class_name] = first + count - 1
        return [OID(class_name, serial)
                for serial in range(first, first + count)]

    def exists(self, oid: OID) -> bool:
        return oid in self._rids

    def get(self, oid: OID) -> DBObject:
        try:
            rid = self._rids[oid]
        except KeyError:
            raise ObjectNotFoundError(f"no object {oid}") from None
        return pickle.loads(self._heap.read(rid))

    def all_oids(self) -> List[OID]:
        return sorted(self._rids)

    def oids_of_class(self, class_names: Iterable[str]) -> List[OID]:
        wanted = set(class_names)
        return sorted(o for o in self._rids if o.class_name in wanted)

    def __len__(self) -> int:
        return len(self._rids)

    # -- commit path -------------------------------------------------------
    def commit_ops(self, tx_id: int, ops: List[Op]) -> None:
        """WAL-then-apply: fsync the commit record, then update the heap."""
        self._validate_ops(ops)
        payload = pickle.dumps((tx_id, ops), protocol=pickle.HIGHEST_PROTOCOL)
        record = _LEN.pack(len(payload)) + payload + _CRC.pack(zlib.crc32(payload))
        self._wal_file.write(record)
        self._wal_file.flush()
        os.fsync(self._wal_file.fileno())
        self._apply_ops(ops)

    def _validate_ops(self, ops: List[Op]) -> None:
        for kind, arg in ops:
            if kind == OP_INSERT:
                if arg.oid in self._rids:
                    raise DatabaseError(f"insert of existing object {arg.oid}")
            elif kind == OP_UPDATE:
                if arg.oid not in self._rids:
                    raise ObjectNotFoundError(f"update of missing object {arg.oid}")
            elif kind == OP_DELETE:
                if arg not in self._rids:
                    raise ObjectNotFoundError(f"delete of missing object {arg}")
            else:
                raise DatabaseError(f"unknown op kind {kind!r}")

    def _apply_ops(self, ops: List[Op], replay: bool = False) -> None:
        for kind, arg in ops:
            if kind == OP_INSERT:
                existing = self._rids.pop(arg.oid, None) if replay else None
                if existing is not None:
                    # Idempotent replay: the effect already reached the heap.
                    self._heap.delete(existing)
                self._store_object(arg)
                serial = self._serials.get(arg.oid.class_name, 0)
                self._serials[arg.oid.class_name] = max(serial, arg.oid.serial)
            elif kind == OP_UPDATE:
                old = self._rids.pop(arg.oid, None)
                if old is not None:
                    self._heap.delete(old)
                self._store_object(arg)
            elif kind == OP_DELETE:
                rid = self._rids.pop(arg, None)
                if rid is not None:
                    self._heap.delete(rid)

    def _store_object(self, obj: DBObject) -> None:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._rids[obj.oid] = self._heap.insert(payload)

    # -- maintenance -------------------------------------------------------
    def vacuum(self) -> int:
        """Compact the heap and re-point the OID map; returns pages saved."""
        before = self._heap.page_file.page_count
        mapping = self._heap.vacuum()
        self._rids = {oid: mapping[rid] for oid, rid in self._rids.items()}
        return before - self._heap.page_file.page_count

    # -- durability ----------------------------------------------------------
    def checkpoint(self) -> None:
        """Flush the heap (it *is* the snapshot) and truncate the WAL."""
        self._heap.pool.flush_all()
        self._wal_file.close()
        self._wal_file = open(self._wal_path, "wb")

    def close(self) -> None:
        if self._wal_file is not None:
            self._wal_file.close()
            self._wal_file = None
        self._heap.pool.flush_all()
        self._heap.close()

    def __enter__(self) -> "PagedObjectStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
