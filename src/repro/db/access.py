"""Access control.

The paper notes (§2) that security is "an issue discussed in database
research, but has never been really addressed in multimedia database
systems."  This module addresses it at the granularity the corporate
scenario needs: per-user, per-class permissions with an owner override,
enforced by a guarded database facade.

Permissions: ``READ`` (select/get), ``WRITE`` (insert/update/delete) and
``ADMIN`` (grant/revoke).  Grants are per (user, class); ADMIN on the
pseudo-class ``*`` makes a superuser.
"""

from __future__ import annotations

from enum import Flag, auto
from typing import Any, Dict, List, Optional, Tuple

from repro.db.database import Database
from repro.db.objects import DBObject, OID
from repro.db.query import Predicate
from repro.errors import DatabaseError


class Permission(Flag):
    READ = auto()
    WRITE = auto()
    ADMIN = auto()


class AccessDeniedError(DatabaseError):
    """The user lacks the permission the operation requires."""


ANY_CLASS = "*"


class AccessController:
    """Grant table: (user, class) -> permission flags."""

    def __init__(self) -> None:
        self._grants: Dict[Tuple[str, str], Permission] = {}

    def grant(self, user: str, class_name: str, permission: Permission,
              granted_by: Optional[str] = None) -> None:
        """Add permissions; ``granted_by`` (when given) must hold ADMIN."""
        if granted_by is not None and not self.holds(granted_by, class_name,
                                                     Permission.ADMIN):
            raise AccessDeniedError(
                f"user {granted_by!r} cannot grant on {class_name!r} "
                f"(no ADMIN permission)"
            )
        key = (user, class_name)
        self._grants[key] = self._grants.get(key, Permission(0)) | permission

    def revoke(self, user: str, class_name: str, permission: Permission,
               revoked_by: Optional[str] = None) -> None:
        """Remove permissions; ``revoked_by`` (when given) must hold ADMIN."""
        if revoked_by is not None and not self.holds(revoked_by, class_name,
                                                     Permission.ADMIN):
            raise AccessDeniedError(
                f"user {revoked_by!r} cannot revoke on {class_name!r}"
            )
        key = (user, class_name)
        current = self._grants.get(key, Permission(0))
        remaining = current & ~permission
        if remaining:
            self._grants[key] = remaining
        else:
            self._grants.pop(key, None)

    def holds(self, user: str, class_name: str, permission: Permission) -> bool:
        for key in ((user, class_name), (user, ANY_CLASS)):
            if permission & self._grants.get(key, Permission(0)):
                return True
        return False

    def require(self, user: str, class_name: str, permission: Permission) -> None:
        if not self.holds(user, class_name, permission):
            raise AccessDeniedError(
                f"user {user!r} lacks {permission.name} on class {class_name!r}"
            )

    def permissions_of(self, user: str) -> Dict[str, Permission]:
        return {
            class_name: perm
            for (grant_user, class_name), perm in self._grants.items()
            if grant_user == user
        }


class GuardedDatabase:
    """A per-user view of a database with access control enforced.

    Wraps the operations the session layer uses; everything else of the
    underlying database stays reachable via ``.db`` for administrators.
    """

    def __init__(self, db: Database, controller: AccessController,
                 user: str) -> None:
        self.db = db
        self.controller = controller
        self.user = user

    # -- reads -------------------------------------------------------------
    def select(self, class_name: str, predicate: Optional[Predicate] = None,
               include_subclasses: bool = True) -> List[OID]:
        self.controller.require(self.user, class_name, Permission.READ)
        return self.db.select(class_name, predicate, include_subclasses)

    def get(self, oid: OID) -> DBObject:
        self.controller.require(self.user, oid.class_name, Permission.READ)
        return self.db.get(oid)

    # -- writes ----------------------------------------------------------
    def insert(self, class_name: str, **attributes: Any) -> OID:
        self.controller.require(self.user, class_name, Permission.WRITE)
        return self.db.insert(class_name, **attributes)

    def update(self, oid: OID, **changes: Any) -> DBObject:
        self.controller.require(self.user, oid.class_name, Permission.WRITE)
        return self.db.update(oid, **changes)

    def delete(self, oid: OID) -> None:
        self.controller.require(self.user, oid.class_name, Permission.WRITE)
        self.db.delete(oid)
