"""Object database substrate.

"AV database systems should provide the functionality found in
traditional database systems, i.e., query processing, concurrency control,
recovery mechanisms, etc." (§3.1) and "most of the work done up to now
favors the object-oriented approach and suggests the use of an OODBMS"
(§2).  This package is that OODBMS core:

* :mod:`repro.db.schema` — class definitions with typed attributes and
  the ``tcomp`` construct (the Newscast example compiles to one);
* :mod:`repro.db.objects` — objects with OIDs and a per-object version
  number; queries return *references*, not values (§3.1);
* :mod:`repro.db.store` — durable store: write-ahead log + snapshot
  checkpoints, crash recovery by replay;
* :mod:`repro.db.locks` / :mod:`repro.db.transactions` — strict 2PL
  concurrency control with wait-die deadlock avoidance;
* :mod:`repro.db.query` — predicate language and query engine with
  index acceleration and content-based keyword retrieval;
* :mod:`repro.db.index` — ordered and keyword attribute indexes;
* :mod:`repro.db.database` — the facade tying them together.
"""

from repro.db.database import Database
from repro.db.objects import DBObject, OID
from repro.db.query import Q, Predicate
from repro.db.schema import AttributeSpec, ClassDef, Schema
from repro.db.transactions import Transaction

__all__ = [
    "Database",
    "DBObject",
    "OID",
    "Q",
    "Predicate",
    "Schema",
    "ClassDef",
    "AttributeSpec",
    "Transaction",
]
