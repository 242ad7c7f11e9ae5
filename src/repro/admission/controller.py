"""Priority QoS admission control over shared resources (ROADMAP: overload).

The paper makes resource admission client-visible — "this statement
would fail if insufficient network bandwidth were available" — but a
bare reject collapses under overload: whoever arrives first wins and
everyone else gets an exception.  The :class:`AdmissionController`
arbitrates instead.  Each request carries a :class:`QoSContract` — the
bandwidth it needs, a :class:`Priority` class, the floor it would accept
degraded service at, and how long it is willing to queue — and the
controller decides, in order (``AdmissionController._decide`` is the
one place the rules are written; every entry point is a case of it):

1. **shed** fresh background work outright past the high-watermark;
2. **admit** at full rate when capacity allows;
3. **preempt** background holders to admit an interactive request;
4. **degrade** down to the contract's floor (:func:`degraded_rate`,
   which a ``Session`` on a bare channel shares);
5. **queue** in virtual time (bounded queue → backpressure; deadline →
   :class:`~repro.errors.AdmissionTimeoutError`), draining best class
   first on every release; a request with no patience is rejected.

Shared device pools go through :meth:`acquire_device` (fail-fast, then
queued with a deadline), and faulting components are wrapped in
:class:`~repro.admission.breaker.CircuitBreaker` instances obtained from
:meth:`breaker`.  Everything is metered under ``admission.*``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, Generator, List, NamedTuple, Optional, Tuple

from repro.admission.breaker import CircuitBreaker
from repro.errors import (
    AdmissionError,
    AdmissionTimeoutError,
    DeadlineExceeded,
    DeviceBusyError,
)
from repro.net.channel import Channel, Reservation
from repro.sim import SimEvent, Simulator, Timeout


class Priority(IntEnum):
    """Priority classes, best first (lower sorts ahead in the queue)."""

    INTERACTIVE = 0
    STANDARD = 1
    BACKGROUND = 2


@dataclass(frozen=True, slots=True)
class QoSContract:
    """What one stream asks of the admission controller.

    ``min_fraction`` is the degraded-service floor: 1.0 means the stream
    is useless below its nominal rate (never degrade), 0.25 means it
    would rather run at a quarter rate than not at all.
    ``queue_timeout_s`` bounds how long the request may wait in the
    admission queue before failing with
    :class:`~repro.errors.AdmissionTimeoutError`.
    """

    bps: float
    priority: Priority = Priority.STANDARD
    min_fraction: float = 1.0
    queue_timeout_s: float = 1.0

    def __post_init__(self) -> None:
        if self.bps <= 0:
            raise AdmissionError(f"contract rate must be positive, got {self.bps}")
        if not 0.0 < self.min_fraction <= 1.0:
            raise AdmissionError(
                f"degraded floor must be in (0, 1], got {self.min_fraction}"
            )
        if self.queue_timeout_s < 0:
            raise AdmissionError(
                f"queue timeout must be >= 0, got {self.queue_timeout_s}"
            )


class BatchVerdict(NamedTuple):
    """Outcome of one :meth:`AdmissionController.admit_batch` call.

    ``reservations`` holds the cohort reservations actually granted —
    at most one full-rate aggregate (``admitted_full`` clients at the
    contract rate each) and at most one degraded single-client grant,
    mirroring what a sequential arrival burst would have produced.
    """

    admitted_full: int
    admitted_degraded: int
    shed: int  #: everyone else, shed and rejected alike
    reservations: Tuple[Reservation, ...]


def degraded_rate(available: float, bps: float, min_fraction: float) -> float:
    """The degrade rule: the rate a request for ``bps`` that would run at
    ``min_fraction`` of it gets out of ``available`` b/s (all that is
    left, at most what it asked), or 0.0 when the floor does not fit."""
    if min_fraction < 1.0 and 0 < available and available + 1e-9 >= bps * min_fraction:
        return min(available, bps)
    return 0.0


class _Shed:
    """Sentinel payload: the queued request was shed, not granted."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason


class _Pending:
    """One queued admission request."""

    __slots__ = ("contract", "label", "seq", "event", "queued_at",
                 "cancelled", "granted")

    def __init__(self, contract: QoSContract, label: str, seq: int,
                 event: SimEvent, queued_at: float) -> None:
        self.contract = contract
        self.label = label
        self.seq = seq
        self.event = event
        self.queued_at = queued_at
        self.cancelled = False
        self.granted: Optional[Reservation] = None

    @property
    def sort_key(self) -> Tuple[int, int]:
        return (int(self.contract.priority), self.seq)


class AdmissionController:
    """Arbitrates one channel's bandwidth between priority classes."""

    def __init__(self, simulator: Simulator, channel: Channel,
                 max_queue: int = 32,
                 high_watermark: float = 0.85,
                 preempt: bool = True,
                 name: str = "admission") -> None:
        if max_queue < 0:
            raise AdmissionError(f"queue bound must be >= 0, got {max_queue}")
        if not 0.0 < high_watermark <= 1.0:
            raise AdmissionError(
                f"high watermark must be in (0, 1], got {high_watermark}"
            )
        self.simulator = simulator
        self.channel = channel
        self.max_queue = max_queue
        self.high_watermark = high_watermark
        self.preempt = preempt
        self.name = name
        self._seq = itertools.count(1)
        self._queue: List[Tuple[Tuple[int, int], _Pending]] = []
        # Live (non-cancelled) queued entries, maintained incrementally
        # so queue_depth is O(1) — it is published on every queue
        # transition, which made the O(n) scan quadratic under load.
        self._live_queued = 0
        #: reservation id -> (reservation, priority) for every live grant.
        self._held: Dict[int, Tuple[Reservation, Priority]] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._pumping = False
        # Pre-bound decision log (same pattern as the metric instruments):
        # every verdict below is mirrored as a structured decision event
        # so `python -m repro explain` can reconstruct per-session chains.
        self._decisions = simulator.obs.decisions
        metrics = simulator.obs.metrics
        self._m_admitted = metrics.counter("admission.admitted")
        self._m_degraded = metrics.counter("admission.degraded")
        self._m_rejected = metrics.counter("admission.rejected")
        self._m_shed = metrics.counter("admission.shed")
        self._m_timeouts = metrics.counter("admission.timeouts")
        self._m_preempted = metrics.counter("admission.preempted")
        self._m_queued = metrics.counter("admission.queued")
        self._m_queue_depth = metrics.gauge("admission.queue_depth")
        self._m_queue_depth_h = metrics.histogram("admission.queue_depth_hist")
        self._m_queue_wait_s = metrics.histogram("admission.queue_wait_s")
        self._m_utilization = metrics.gauge(f"admission.{name}.utilization")

    # -- introspection -----------------------------------------------------
    @property
    def utilization(self) -> float:
        return self.channel.reserved_bps / self.channel.capacity_bps

    @property
    def queue_depth(self) -> int:
        return self._live_queued

    def _at_watermark(self, reserved: float) -> bool:
        return reserved / self.channel.capacity_bps >= self.high_watermark - 1e-12

    def _log(self, kind: str, label: str, clients: int = 1, cohort: bool = False,
             queued_for: Optional[float] = None, via: Optional[str] = None,
             **fields: object) -> None:
        """One verdict into the decision log.  ``count`` is carried only
        for a cohort or when the event speaks for other than one client,
        how the grant came about only when from the queue or by preemption."""
        if cohort or clients != 1:
            fields["count"] = clients
        if queued_for is not None:
            fields.update(from_queue=True, waited_s=round(queued_for, 6))
        if via is not None:
            fields["via"] = via
        self._decisions.record(kind, label, self.name, fields)

    # -- the decision core -------------------------------------------------
    def _grant(self, bps: float, contract: QoSContract, label: str,
               clients: int = 1) -> Reservation:
        reservation = self.channel.reserve(bps, label=label)
        reservation.cohort_clients = clients
        self._held[reservation.id] = (reservation, contract.priority)
        reservation.on_release = self._on_release
        self._m_utilization.set(self.utilization)
        return reservation

    def _on_release(self, reservation: Reservation) -> None:
        self._held.pop(reservation.id, None)
        self._m_utilization.set(self.utilization)
        self._pump()

    def _preempt_for(self, bps: float) -> None:
        """Revoke background grants (newest first) until ``bps`` fits."""
        victims = sorted(
            (r for r, p in self._held.values()
             if p is Priority.BACKGROUND and not r.released),
            key=lambda r: -r.id,
        )
        for victim in victims:
            if self.channel.can_admit(bps):
                break
            victim.preempted = True
            self._m_preempted.inc(victim.cohort_clients)
            if self._decisions.enabled:
                self._log("preempt", victim.label, victim.cohort_clients,
                          bps=victim.bps)
            tracer = self.simulator.obs.tracer
            if tracer.enabled:
                tracer.instant("admission:preempt", "admission",
                               victim=victim.label)
            victim.release()

    def _decide(self, contract: QoSContract, label: str, count: int = 1,
                cohort: bool = False, waited_s: Optional[float] = None,
                may_preempt: bool = False,
                via: Optional[str] = None) -> Tuple[int, int, int, tuple]:
        """The admission policy, written once: what ``count`` identical
        requests arriving at one instant are granted, in O(1).

        Returns ``(full, degraded, shed, reservations)``: how many got
        the full rate (one reservation of ``full x bps``), whether the
        next took the degraded remainder (0 or 1, its own reservation),
        how many were shed at the watermark.  The rest were granted
        nothing: the caller rejects, queues or tallies them.  A ``cohort``'s
        events carry client counts; ``waited_s`` is None for a fresh
        request; ``via`` says how a retry came to fit.
        """
        bps = contract.bps
        capacity = self.channel.capacity_bps
        reserved = self.channel.reserved_bps
        # (A queued request was let past the watermark when it arrived.)
        watermarked = waited_s is None and contract.priority is Priority.BACKGROUND
        if watermarked and self._at_watermark(reserved):
            self._m_shed.inc(count)
            if self._decisions.enabled:
                self._log("shed", label, count, cohort, reason="watermark",
                          utilization=round(reserved / capacity, 4))
            return 0, 0, count, ()
        fit = (capacity - reserved + 1e-9) // bps
        full = count if fit >= count else max(int(fit), 0)
        if watermarked and full:
            # Each arrival of a burst re-checks the watermark *before* its
            # grant, so the k-th admits only while reserved + (k-1)*bps is
            # under it (the first just did): cap there, not at capacity.
            headroom = (self.high_watermark - 1e-12) * capacity - reserved
            full = min(full, max(1, math.ceil(headroom / bps)))
        granted = ()
        if full:
            self._m_admitted.inc(full)
            if self._decisions.enabled:
                self._log("admit", label, full, cohort, waited_s, via, bps=bps)
            granted = (self._grant(full * bps, contract, label, full),)
        elif may_preempt and contract.priority is Priority.INTERACTIVE:
            self._pumping = True  # freed bandwidth is for this request
            try:
                self._preempt_for(bps)
            finally:
                self._pumping = False
            return self._decide(contract, label, count, cohort, waited_s,
                                via="preemption")
        if full < count:
            # The next request sees what that grant left: background work
            # now at the watermark is shed, not degraded; anyone else may
            # take the whole remainder, so at most one request degrades.
            reserved = self.channel.reserved_bps
            rate = 0.0 if watermarked and self._at_watermark(reserved) else (
                degraded_rate(capacity - reserved, bps, contract.min_fraction))
            if rate:
                self._m_degraded.inc()
                if self._decisions.enabled:
                    self._log("degrade", label, queued_for=waited_s, bps=rate,
                              requested_bps=bps, fraction=round(rate / bps, 4))
                return full, 1, 0, granted + (
                    self._grant(rate, contract, f"{label}-degraded"),)
        return full, 0, 0, granted

    def _admit_now(self, contract: QoSContract, label: str) -> Optional[Reservation]:
        """One fresh request: its grant, or None (the caller may queue
        it).  Raises when it is *shed*: shed requests must not be
        queued; that is the point of shedding."""
        _, _, shed, granted = self._decide(contract, label, may_preempt=self.preempt)
        if shed:
            raise AdmissionError(
                f"{self.name}: shedding background work "
                f"({self.utilization:.0%} of {self.channel.name!r} reserved, "
                f"watermark {self.high_watermark:.0%})"
            )
        if not granted:
            return None
        self._pump()  # a degraded grant may leave room for queued work
        return granted[0]

    # -- synchronous admission (session connect path) ----------------------
    def try_admit(self, contract: QoSContract, label: str = "stream") -> Reservation:
        """Admit / preempt / degrade now, or raise — no queueing.

        This is the path for synchronous callers (e.g.
        ``Session.connect``) that are not running inside a DES process
        and therefore cannot wait in virtual time.
        """
        reservation = self._admit_now(contract, label)
        if reservation is None:
            self._m_rejected.inc()
            if self._decisions.enabled:
                self._log("reject", label, bps=contract.bps,
                          available_bps=round(self.channel.available_bps, 3))
            raise AdmissionError(
                f"{self.name}: cannot admit {contract.bps:g} b/s "
                f"({self.channel.available_bps:g} of "
                f"{self.channel.capacity_bps:g} b/s available on "
                f"{self.channel.name!r}; floor "
                f"{contract.bps * contract.min_fraction:g} b/s)"
            )
        return reservation

    # -- batched admission (the herd path) ---------------------------------
    def admit_batch(self, contract: QoSContract, count: int,
                    label: str = "herd") -> BatchVerdict:
        """Admit up to ``count`` identical contracts in one decision.

        ``count`` back-to-back :meth:`try_admit` calls at one instant by
        construction (both are :meth:`_decide`), minus queueing and
        preemption.  The full-rate grants are **one** cohort
        :class:`~repro.net.channel.Reservation` of ``n x bps`` (a herd of
        10^5 clients costs O(lifetime) reservations, not O(clients)); it
        carries ``cohort_clients`` so preemption by foreground work is
        charged per *client*, as metrics and decision events are.
        """
        if count < 0:
            raise AdmissionError(f"batch count must be >= 0, got {count}")
        if count == 0:
            return BatchVerdict(0, 0, 0, ())
        full, degraded, shed, granted = self._decide(contract, label, count, cohort=True)
        left = count - full - degraded - shed
        if left:
            # The leftovers all see the same post-grant state (a degraded
            # grant may itself have reached the watermark): background
            # work at the watermark is shed, anything else is rejected.
            at_watermark = (contract.priority is Priority.BACKGROUND
                            and self._at_watermark(self.channel.reserved_bps))
            (self._m_shed if at_watermark else self._m_rejected).inc(left)
            if self._decisions.enabled:
                self._log("shed" if at_watermark else "reject", label, left, True,
                          available_bps=round(self.channel.available_bps, 3))
        return BatchVerdict(full, degraded, shed + left, granted)

    # -- queued admission (DES subroutine) ---------------------------------
    def admit(self, contract: QoSContract, label: str = "stream") -> Generator:
        """DES subroutine: admit, or wait in the queue until admitted,
        shed, or timed out.

        Returns a live :class:`~repro.net.channel.Reservation`.  Raises
        :class:`~repro.errors.AdmissionError` when shed (watermark or
        queue backpressure) and
        :class:`~repro.errors.AdmissionTimeoutError` when the contract's
        queue deadline expires first.  With no patience
        (``queue_timeout_s == 0``) this is :meth:`try_admit`: queued, the
        request could only displace a patient one and time out at once.
        """
        if contract.queue_timeout_s == 0:
            return self.try_admit(contract, label)
        reservation = self._admit_now(contract, label)
        if reservation is not None:
            return reservation
        self._make_room_for(contract, label)
        entry = _Pending(contract, label, next(self._seq),
                         self.simulator.event(f"admit:{label}"),
                         self.simulator.now_s)
        heapq.heappush(self._queue, (entry.sort_key, entry))
        self._live_queued += 1
        self._m_queued.inc()
        if self._decisions.enabled:
            self._log("queue", label, depth=self.queue_depth,
                      priority=contract.priority.name.lower())
        self._publish_depth()
        try:
            payload = yield Timeout(entry.event, contract.queue_timeout_s)
        except DeadlineExceeded:
            entry.cancelled = True
            self._live_queued -= 1
            self._publish_depth()
            if entry.granted is not None:
                # Granted in the same tick the deadline fired (the timer
                # wins ties): give the bandwidth straight back.
                entry.granted.release()
            self._m_timeouts.inc()
            if self._decisions.enabled:
                self._log("queue-timeout", label, waited_s=contract.queue_timeout_s)
            raise AdmissionTimeoutError(
                f"{self.name}: {label!r} spent {contract.queue_timeout_s:g}s "
                f"queued without admission (priority "
                f"{contract.priority.name.lower()})"
            ) from None
        if isinstance(payload, _Shed):
            if self._decisions.enabled:
                self._log("shed", label, reason=payload.reason)
            raise AdmissionError(
                f"{self.name}: {label!r} shed while queued ({payload.reason})"
            )
        self._m_queue_wait_s.observe(
            self.simulator.now_s - entry.queued_at
        )
        return payload

    def _make_room_for(self, contract: QoSContract, label: str = "stream") -> None:
        """Bounded queue: shed the worst queued entry or refuse this one."""
        if self.queue_depth < self.max_queue:
            return
        worst = max(
            (e for _, e in self._queue if not e.cancelled),
            key=lambda e: e.sort_key,
            default=None,
        )
        if worst is not None and int(worst.contract.priority) > int(contract.priority):
            # A strictly lower-priority request waits in the queue: shed
            # it to make room (lowest-priority work goes first).
            worst.cancelled = True
            self._live_queued -= 1
            self._m_shed.inc()
            self._publish_depth()
            worst.event.trigger(_Shed("displaced by higher-priority request"))
            return
        self._m_shed.inc()
        if self._decisions.enabled:
            self._log("shed", label, reason="queue-full", depth=self.max_queue)
        raise AdmissionError(
            f"{self.name}: admission queue full "
            f"({self.max_queue} waiting); backpressure"
        )

    def _publish_depth(self) -> None:
        depth = self.queue_depth
        self._m_queue_depth.set(depth)
        self._m_queue_depth_h.observe(depth)

    def _pump(self) -> None:
        """Drain the wait queue, highest priority first, as capacity allows."""
        if self._pumping:
            return
        self._pumping = True
        try:
            while self._queue:
                key, entry = self._queue[0]
                if entry.cancelled:
                    heapq.heappop(self._queue)
                    continue
                waited_s = self.simulator.now_s - entry.queued_at
                granted = self._decide(entry.contract, entry.label,
                                       waited_s=waited_s)[3]
                if not granted:
                    break  # head of queue cannot be served; keep order
                heapq.heappop(self._queue)
                self._live_queued -= 1
                entry.granted = granted[0]
                self._publish_depth()
                entry.event.trigger(entry.granted)
        finally:
            self._pumping = False

    # -- shared device pools -----------------------------------------------
    def acquire_device(self, pool, priority: Priority = Priority.STANDARD,
                       timeout_s: float = 1.0) -> Generator:
        """DES subroutine: a pool lease under admission policy.

        Fail-fast when a unit is free; when the pool is fully busy,
        background requests are shed; otherwise the request queues on
        the pool (FIFO, the hardware's own order) bounded by
        ``timeout_s``.
        """
        from repro.sim import WaitProcess

        try:
            return pool.allocate()
        except DeviceBusyError:
            pass
        if priority is Priority.BACKGROUND:
            self._m_shed.inc()
            if self._decisions.enabled:
                self._log("shed", f"device:{pool.kind}", reason="pool-busy")
            raise AdmissionError(
                f"{self.name}: shedding background request for a "
                f"{pool.kind!r} device ({pool.in_use}/{pool.count} busy)"
            )
        self._m_queued.inc()
        queued_at = self.simulator.now_s
        proc = self.simulator.spawn(pool.acquire(),
                                    name=f"admit-device:{pool.kind}")
        try:
            lease = yield Timeout(proc, timeout_s)
        except DeadlineExceeded:
            proc.interrupt()

            def scavenge():
                # The grant can land in the very tick the deadline fired
                # (the timer wins ties); if so, the lease would be
                # stranded — give the unit straight back.
                try:
                    late_lease = yield WaitProcess(proc)
                except BaseException:
                    return  # interrupted while queued: claim lapsed cleanly
                if late_lease is not None and not late_lease.released:
                    late_lease.release()

            self.simulator.spawn(scavenge(), name=f"admit-scavenge:{pool.kind}")
            self._m_timeouts.inc()
            raise AdmissionTimeoutError(
                f"{self.name}: no {pool.kind!r} device freed up within "
                f"{timeout_s:g}s"
            ) from None
        self._m_queue_wait_s.observe(self.simulator.now_s - queued_at)
        return lease

    # -- circuit breakers ----------------------------------------------------
    def breaker(self, name: str, **kwargs) -> CircuitBreaker:
        """Get or create the named breaker (see :mod:`repro.admission.breaker`)."""
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(self.simulator, name=name, **kwargs)
            self._breakers[name] = breaker
        return breaker
