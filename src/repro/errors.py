"""Exception hierarchy shared by all subsystems.

Every error raised by the library derives from :class:`AVDBError`, so
applications can catch one base class at the database/application boundary.
The sub-hierarchies mirror the paper's subsystem split: data model errors,
activity (flow composition) errors, resource errors, storage errors and
database errors.
"""

from __future__ import annotations


class AVDBError(Exception):
    """Base class for all errors raised by this library."""


class DataModelError(AVDBError):
    """Violation of the AV data model (values, types, quality factors)."""


class MediaTypeError(DataModelError):
    """Operation applied to an incompatible media data type."""


class QualityError(DataModelError):
    """Malformed or unsatisfiable quality factor."""


class TemporalError(DataModelError):
    """Invalid temporal coordinate, interval or composition."""


class ActivityError(AVDBError):
    """Violation of the activity model (flow composition)."""


class PortError(ActivityError):
    """Unknown port, port direction mismatch or port type mismatch."""


class ConnectionError_(ActivityError):
    """Illegal connection between activity ports."""


class ActivityStateError(ActivityError):
    """Operation invalid for the activity's current state."""


class GraphError(ActivityError):
    """Structural error in an activity graph (cycles, dangling ports)."""


class ResourceError(AVDBError):
    """Resource pre-allocation failed (paper section 3.3, scheduling)."""


class AdmissionError(ResourceError):
    """Admission control rejected a stream (bandwidth or device)."""


class DeviceBusyError(ResourceError):
    """A non-shareable device is already allocated to another client."""


class AdmissionTimeoutError(AdmissionError):
    """A queued admission request expired before capacity freed up."""


class PreemptedError(AdmissionError):
    """A granted reservation was revoked to admit higher-priority work."""


class FaultError(AVDBError):
    """An injected fault surfaced to the affected component (recoverable).

    Faults are *expected* failures: the kernel records a process killed by
    a :class:`FaultError` (or :class:`Interrupted`) as a fault, not a
    programming failure, so ``Simulator.run()`` does not re-raise it.
    Recovery policies (:mod:`repro.faults.recovery`) retry on this class.
    """


class DeviceFaultError(FaultError):
    """An injected storage-device fault (outage) hit a transfer."""


class ChannelFaultError(FaultError):
    """An injected network fault dropped a transmission (mode='error')."""


class CircuitOpenError(AdmissionError, FaultError):
    """A circuit breaker rejected a call without attempting it.

    Raised while the breaker is open (the guarded component faulted
    repeatedly) so callers fail fast instead of queue-piling behind a
    dead resource.  Inherits :class:`FaultError` so retry policies treat
    it as transient: backed-off retries line up with the breaker's
    half-open probe window instead of hammering the fault.
    """


class StorageError(AVDBError):
    """Error in the simulated storage subsystem."""


class SchedulerStoppedError(StorageError, FaultError):
    """A disk request failed because the scheduler stopped.

    Raised both for requests pending at ``DiskScheduler.stop()`` time and
    for submissions against a stopped scheduler.  Inherits
    :class:`FaultError` so retry policies treat it as recoverable (the
    scheduler may be restarted, e.g. after an injected outage).
    """


class PlacementError(StorageError):
    """Data placement constraint violated (paper section 3.3)."""


class ClusterError(StorageError):
    """Error in the scale-out storage cluster tier."""


class NodeDownError(ClusterError, FaultError):
    """No live replica of a shard could serve a request.

    Inherits :class:`FaultError` so retry policies treat it as
    transient: a killed node may be restored, or background repair may
    re-create the replica on a surviving node, before the backoff
    schedule is exhausted.
    """


class OutOfSpaceError(StorageError):
    """Device has no free extent large enough for an allocation."""


class CacheError(StorageError):
    """Misuse of the cache tier (:mod:`repro.cache`)."""


class DatabaseError(AVDBError):
    """Error in the object database substrate."""


class SchemaError(DatabaseError):
    """Class definition or attribute access violates the schema."""


class QueryError(DatabaseError):
    """Malformed query or predicate."""


class TransactionError(DatabaseError):
    """Transaction used after commit/abort, or commit failed."""


class LockTimeoutError(TransactionError):
    """Lock request could not be granted (conflict or deadlock victim)."""


class ObjectNotFoundError(DatabaseError):
    """No object with the requested OID exists."""


class AnnotationError(DatabaseError):
    """Invalid annotation, annotation type, or temporal query."""


class CodecError(AVDBError):
    """Encoding or decoding failure."""


class SimulationError(AVDBError):
    """Misuse of the discrete-event simulation kernel."""


class Interrupted(SimulationError):
    """Thrown into a process by ``Process.interrupt()``.

    Like :class:`FaultError`, an uncaught ``Interrupted`` marks the
    process as faulted rather than failed, so the kill does not abort the
    whole simulation run.
    """


class DeadlineExceeded(SimulationError):
    """A ``Timeout`` command expired before its event/process completed."""


class SessionError(AVDBError):
    """Client session misuse (e.g. using a closed session)."""


class WatchError(AVDBError):
    """Misuse of the supervision layer (:mod:`repro.watch`)."""


class InvariantBreachError(WatchError):
    """A continuously-checked system invariant was violated.

    Deliberately *not* a :class:`FaultError`: injected faults are
    expected and measured, but an invariant breach means the system's
    own bookkeeping went wrong, so it fails the run fast (the kernel
    records it as a failure and re-raises it from ``run()``).
    """


class SLOViolationError(WatchError):
    """A hard SLO failed (only raised when the watchdog is told to)."""


class RenderError(AVDBError):
    """Error in the 3D rendering substrate."""
