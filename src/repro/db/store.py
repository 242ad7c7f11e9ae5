"""Durable object store: redo-only write-ahead log + snapshot checkpoints.

Commit protocol: a transaction's operations are appended to the WAL (with
length prefix and CRC) and flushed *before* being applied to the
in-memory object table — redo-only logging, so recovery is a pure replay
of committed work.  ``checkpoint()`` pickles the full table to a snapshot
file and truncates the log.  Recovery loads the snapshot then replays the
WAL, stopping cleanly at a torn tail (simulated crash mid-append) and
cutting the log back to its last whole record, so that what is appended
next is not hidden behind the garbage.  Replay is idempotent: a crash
between a checkpoint's two steps leaves a snapshot that already holds
the log's effects, and replaying the log over it changes nothing.

The store is representation-agnostic: attribute values (including media
values with numpy payloads) are pickled.  Those bytes are the durable
format, so both files open with a magic and a format version, and a file
that opens otherwise is refused: the one reader is for what this tree writes.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.db.objects import DBObject, OID
from repro.errors import DatabaseError, ObjectNotFoundError

# op kinds
OP_INSERT = "insert"
OP_UPDATE = "update"
OP_DELETE = "delete"

Op = Tuple[str, Any]  # (kind, DBObject | OID)

_LEN = struct.Struct("<I")
_CRC = struct.Struct("<I")

MAGIC = b"AVDS"
#: Bumped whenever the pickled bytes of a stored row change.
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sH")
_STAMP = _HEADER.pack(MAGIC, FORMAT_VERSION)


def _refusal(path: Path, head: bytes) -> DatabaseError:
    """Refuse, never guess, a file this build did not write whole."""
    found = "unstamped (format 1, or not a database file)"
    if head == _STAMP:
        found = f"a truncated format {FORMAT_VERSION} file"
    elif len(head) == _HEADER.size and head.startswith(MAGIC):
        found = f"format {_HEADER.unpack(head)[1]}"
    return DatabaseError(
        f"{path} is {found}; this build reads and writes only format "
        f"{FORMAT_VERSION} (no other has a reader): re-create the directory")


class ObjectStore:
    """In-memory object table with optional WAL-backed durability."""

    SNAPSHOT_NAME = "snapshot.pickle"
    WAL_NAME = "wal.log"

    def __init__(self, directory: Optional[os.PathLike | str] = None) -> None:
        self._objects: Dict[OID, DBObject] = {}
        self._serials: Dict[str, int] = {}
        self._layouts: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._directory: Optional[Path] = Path(directory) if directory else None
        self._wal_file = None
        self.recovered_records = 0
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
            self._recover()
            self._wal_file = open(self._wal_path, "ab")
            # What a new log, or one cut short while it was being created,
            # lacks of the header; unflushed, the first commit's fsync covers it.
            self._wal_file.write(_STAMP[self._wal_file.tell():])

    # -- paths ----------------------------------------------------------
    @property
    def _snapshot_path(self) -> Path:
        return self._directory / self.SNAPSHOT_NAME

    @property
    def _wal_path(self) -> Path:
        return self._directory / self.WAL_NAME

    # -- object table ----------------------------------------------------
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
        return [tuple.__new__(OID, (class_name, serial))  # OID() runs in Python
                for serial in range(first, first + count)]

    def layout(self, names: Tuple[str, ...]) -> Tuple[str, ...]:
        """The one tuple equal to ``names`` that this store's rows share."""
        return self._layouts.setdefault(names, names)

    def exists(self, oid: OID) -> bool:
        return oid in self._objects

    def get(self, oid: OID) -> DBObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise ObjectNotFoundError(f"no object {oid}") from None

    def all_oids(self) -> List[OID]:
        return sorted(self._objects)

    def oids_of_class(self, class_names: Iterable[str]) -> List[OID]:
        wanted = set(class_names)
        return sorted(o for o in self._objects if o.class_name in wanted)

    def __len__(self) -> int:
        return len(self._objects)

    # -- commit path -------------------------------------------------------
    def commit_ops(self, tx_id: int, ops: List[Op]) -> None:
        """Log (if durable) then apply a committed transaction's ops."""
        self._validate_ops(ops)
        if self._wal_file is not None:
            payload = pickle.dumps((tx_id, ops), protocol=pickle.HIGHEST_PROTOCOL)
            record = _LEN.pack(len(payload)) + payload + _CRC.pack(zlib.crc32(payload))
            self._wal_file.write(record)
            self._wal_file.flush()
            os.fsync(self._wal_file.fileno())
        self._apply_ops(ops)

    def _validate_ops(self, ops: List[Op]) -> None:
        for kind, arg in ops:
            if kind == OP_INSERT:
                if arg.oid in self._objects:
                    raise DatabaseError(f"insert of existing object {arg.oid}")
            elif kind == OP_UPDATE:
                if arg.oid not in self._objects:
                    raise ObjectNotFoundError(f"update of missing object {arg.oid}")
            elif kind == OP_DELETE:
                if arg not in self._objects:
                    raise ObjectNotFoundError(f"delete of missing object {arg}")
            else:
                raise DatabaseError(f"unknown op kind {kind!r}")

    def _apply_ops(self, ops: List[Op]) -> None:
        # Also the replay path, where the snapshot may already hold an
        # op's effect: an insert or update overwrites, a delete of an
        # object that is gone is a no-op (live commits never get here
        # with one: _validate_ops).
        for kind, arg in ops:
            if kind == OP_INSERT:
                oid = arg.oid  # read once: a DBObject attribute read is slow
                self._objects[oid] = arg
                serial = self._serials.get(oid.class_name, 0)
                self._serials[oid.class_name] = max(serial, oid.serial)
            elif kind == OP_UPDATE:
                self._objects[arg.oid] = arg
            elif kind == OP_DELETE:
                self._objects.pop(arg, None)

    # -- durability ----------------------------------------------------------
    def checkpoint(self) -> None:
        """Write a snapshot and truncate the WAL."""
        if self._directory is None:
            raise DatabaseError("checkpoint requires a durable store")
        tmp = self._snapshot_path.with_suffix(".tmp")
        with open(tmp, "wb") as f:
            f.write(_STAMP)
            pickle.dump((self._objects, self._serials), f,
                        protocol=pickle.HIGHEST_PROTOCOL)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._snapshot_path)
        self._wal_file.close()
        self._wal_file = open(self._wal_path, "wb")
        self._wal_file.write(_STAMP)

    def _recover(self) -> None:
        """Load the snapshot (if any) and replay the WAL's committed tail."""
        if self._snapshot_path.exists():
            with open(self._snapshot_path, "rb") as f:
                head = f.read(_HEADER.size)
                if head != _STAMP:
                    raise _refusal(self._snapshot_path, head)
                try:
                    self._objects, self._serials = pickle.load(f)
                except (EOFError, pickle.UnpicklingError):
                    raise _refusal(self._snapshot_path, head) from None
            # Rows that shared a layout when pickled share it still (memo).
            self._layouts = {obj._layout: obj._layout
                             for obj in self._objects.values()}
        if not self._wal_path.exists():
            return
        data = self._wal_path.read_bytes()
        pos = _HEADER.size
        if len(data) < pos and _STAMP.startswith(data):
            return  # cut short while being created: nothing was acknowledged
        if data[:pos] != _STAMP:
            raise _refusal(self._wal_path, data[:pos])
        while pos + _LEN.size <= len(data):
            (length,) = _LEN.unpack_from(data, pos)
            end = pos + _LEN.size + length + _CRC.size
            if end > len(data):
                break  # torn tail: the record never finished committing
            payload = data[pos + _LEN.size: pos + _LEN.size + length]
            (crc,) = _CRC.unpack_from(data, end - _CRC.size)
            if zlib.crc32(payload) != crc:
                break  # corrupt tail
            _tx_id, ops = pickle.loads(payload)
            for kind, arg in ops:
                if kind != OP_DELETE:  # every record unpickles its own copy
                    object.__setattr__(arg, "_layout", self.layout(arg._layout))
            self._apply_ops(ops)
            self.recovered_records += 1
            pos = end
        if pos < len(data):
            # A torn or corrupt tail: cut it off before the log is
            # opened for append, or the next recovery stops in front
            # of every record written after it.
            with open(self._wal_path, "r+b") as f:
                f.truncate(pos)
                f.flush()
                os.fsync(f.fileno())

    def close(self) -> None:
        if self._wal_file is not None:
            self._wal_file.close()
            self._wal_file = None
