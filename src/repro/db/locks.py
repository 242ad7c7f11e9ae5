"""Lock manager: strict two-phase locking with wait-die deadlock avoidance.

Object-granularity shared/exclusive locks.  Requests that conflict are
resolved by wait-die on transaction age: an *older* requester may wait (in
this non-blocking implementation, waiting surfaces as a retryable
:class:`LockTimeoutError` with ``should_retry=True``), a *younger*
requester dies (``should_retry=False``, the transaction must abort).
Wait-die guarantees no deadlock cycles ever form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Set

from repro.db.objects import OID
from repro.errors import LockTimeoutError
from repro.obs import Obs, attach


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass
class _LockEntry:
    mode: LockMode
    holders: Set[int]


class LockManager:
    """Per-OID S/X locks keyed by transaction id (= age: lower is older)."""

    def __init__(self, obs: Optional[Obs] = None) -> None:
        self._locks: Dict[OID, _LockEntry] = {}
        self.conflicts = 0
        metrics = attach(obs).metrics
        self._m_acquired = metrics.counter("db.locks_acquired")
        self._m_conflicts = metrics.counter("db.lock_conflicts")

    def acquire(self, tx_id: int, oid: OID, mode: LockMode) -> None:
        """Grant or raise.

        Raises :class:`LockTimeoutError`; its ``should_retry`` attribute
        tells the caller whether waiting is permitted (wait-die).
        """
        entry = self._locks.get(oid)
        if entry is None:
            self._locks[oid] = _LockEntry(mode, {tx_id})
            self._m_acquired.inc()
            return
        if tx_id in entry.holders:
            if mode is LockMode.EXCLUSIVE and entry.mode is LockMode.SHARED:
                if entry.holders == {tx_id}:
                    entry.mode = LockMode.EXCLUSIVE  # upgrade
                    return
                self._conflict(tx_id, oid, entry)
            return  # already held at sufficient strength
        if mode is LockMode.SHARED and entry.mode is LockMode.SHARED:
            entry.holders.add(tx_id)
            self._m_acquired.inc()
            return
        self._conflict(tx_id, oid, entry)

    def _conflict(self, tx_id: int, oid: OID, entry: _LockEntry) -> None:
        self.conflicts += 1
        self._m_conflicts.inc()
        oldest_holder = min(entry.holders)
        should_retry = tx_id < oldest_holder  # older transactions wait
        holders = ", ".join(str(h) for h in sorted(entry.holders))
        error = LockTimeoutError(
            f"tx {tx_id}: lock conflict on {oid} "
            f"(held {entry.mode.value} by tx {holders}); "
            f"{'wait and retry' if should_retry else 'die (wait-die)'}"
        )
        error.should_retry = should_retry
        raise error

    def release_all(self, tx_id: int) -> None:
        """Strict 2PL: all locks released together at commit/abort."""
        empty = []
        for oid, entry in self._locks.items():
            entry.holders.discard(tx_id)
            if not entry.holders:
                empty.append(oid)
        for oid in empty:
            del self._locks[oid]
