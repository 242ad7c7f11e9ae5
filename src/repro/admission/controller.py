"""Priority QoS admission control over shared resources (ROADMAP: overload).

The paper makes resource admission client-visible — "this statement
would fail if insufficient network bandwidth were available" — but a
bare reject collapses under overload: whoever arrives first wins and
everyone else gets an exception.  The :class:`AdmissionController`
arbitrates instead.  Each request carries a :class:`QoSContract` — the
bandwidth it needs, a :class:`Priority` class, the floor it would accept
degraded service at, and how long it is willing to queue — and the
controller decides, in order:

1. **admit** at full rate when capacity allows;
2. **preempt** background holders to admit an interactive request;
3. **degrade** down to the contract's floor (the
   ``Session._degraded_reservation`` path made policy);
4. **shed** background work outright past the high-watermark;
5. **queue** in virtual time (bounded queue → backpressure; deadline →
   :class:`~repro.errors.AdmissionTimeoutError`), draining
   highest-priority-first whenever bandwidth is released.

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
from typing import Dict, Generator, List, Optional, Tuple

from repro.admission.breaker import CircuitBreaker
from repro.errors import (
    AdmissionError,
    AdmissionTimeoutError,
    DeadlineExceeded,
    DeviceBusyError,
)
from repro.net.channel import Channel, Reservation
from repro.obs.metrics import DEPTH_BUCKETS
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


@dataclass(frozen=True, slots=True)
class BatchVerdict:
    """Outcome of one :meth:`AdmissionController.admit_batch` call.

    ``reservations`` holds the cohort reservations actually granted —
    at most one full-rate aggregate (``admitted_full`` clients at the
    contract rate each) and at most one degraded single-client grant,
    mirroring what a sequential arrival burst would have produced.
    """

    requested: int
    admitted_full: int
    admitted_degraded: int
    shed: int
    granted_bps: float
    reservations: Tuple[Reservation, ...]


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
        self._m_queue_depth_h = metrics.histogram("admission.queue_depth_hist",
                                                  buckets=DEPTH_BUCKETS)
        self._m_queue_wait_s = metrics.histogram("admission.queue_wait_s")
        self._m_utilization = metrics.gauge(f"admission.{name}.utilization")

    # -- introspection -----------------------------------------------------
    @property
    def utilization(self) -> float:
        return self.channel.reserved_bps / self.channel.capacity_bps

    @property
    def queue_depth(self) -> int:
        return self._live_queued

    def holders(self, priority: Optional[Priority] = None) -> List[Reservation]:
        return [r for r, p in self._held.values()
                if priority is None or p is priority]

    # -- the decision core -------------------------------------------------
    def _grant(self, bps: float, contract: QoSContract, label: str) -> Reservation:
        reservation = self.channel.reserve(bps, label=label)
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
            if self.channel.available_bps + 1e-9 >= bps:
                break
            victim.preempted = True
            self._m_preempted.inc(victim.cohort_clients)
            if self._decisions.enabled:
                # Ordinary streams keep the historical event shape; only
                # herd cohorts carry the per-client count field.
                if victim.cohort_clients == 1:
                    self._decisions.emit("preempt", victim.label,
                                         actor=self.name, bps=victim.bps)
                else:
                    self._decisions.emit("preempt", victim.label,
                                         actor=self.name, bps=victim.bps,
                                         count=victim.cohort_clients)
            tracer = self.simulator.obs.tracer
            if tracer.enabled:
                tracer.instant("admission:preempt", "admission",
                               victim=victim.label)
            victim.release()

    def _decide(self, contract: QoSContract, label: str,
                queued: bool = False) -> Optional[Reservation]:
        """Grant now, or return None (caller may queue).

        Raises :class:`~repro.errors.AdmissionError` when the request is
        *shed* — refused outright because the system is past its
        high-watermark and the request is lowest-priority.  Shed requests
        must not be queued; that is the point of shedding.
        """
        if (not queued
                and contract.priority is Priority.BACKGROUND
                and self.utilization >= self.high_watermark - 1e-12):
            self._m_shed.inc()
            if self._decisions.enabled:
                self._decisions.emit("shed", label, actor=self.name,
                                     reason="watermark",
                                     utilization=round(self.utilization, 4))
            raise AdmissionError(
                f"{self.name}: shedding background work "
                f"({self.utilization:.0%} of {self.channel.name!r} reserved, "
                f"watermark {self.high_watermark:.0%})"
            )
        available = self.channel.available_bps
        if available + 1e-9 >= contract.bps:
            self._m_admitted.inc()
            if self._decisions.enabled:
                self._decisions.emit("admit", label, actor=self.name,
                                     bps=contract.bps)
            return self._grant(contract.bps, contract, label)
        if self.preempt and contract.priority is Priority.INTERACTIVE:
            self._pumping = True  # freed bandwidth is for this request
            try:
                self._preempt_for(contract.bps)
            finally:
                self._pumping = False
            if self.channel.available_bps + 1e-9 >= contract.bps:
                self._m_admitted.inc()
                if self._decisions.enabled:
                    self._decisions.emit("admit", label, actor=self.name,
                                         bps=contract.bps, via="preemption")
                return self._grant(contract.bps, contract, label)
            available = self.channel.available_bps
        floor = contract.bps * contract.min_fraction
        if contract.min_fraction < 1.0 and available + 1e-9 >= floor and available > 0:
            self._m_degraded.inc()
            granted = min(available, contract.bps)
            if self._decisions.enabled:
                self._decisions.emit("degrade", label, actor=self.name,
                                     bps=granted, requested_bps=contract.bps,
                                     fraction=round(granted / contract.bps, 4))
            return self._grant(granted, contract, f"{label}-degraded")
        return None

    # -- synchronous admission (session connect path) ----------------------
    def try_admit(self, contract: QoSContract, label: str = "stream") -> Reservation:
        """Admit / preempt / degrade now, or raise — no queueing.

        This is the path for synchronous callers (e.g.
        ``Session.connect``) that are not running inside a DES process
        and therefore cannot wait in virtual time.
        """
        reservation = self._decide(contract, label)
        if reservation is None:
            self._m_rejected.inc()
            if self._decisions.enabled:
                self._decisions.emit(
                    "reject", label, actor=self.name, bps=contract.bps,
                    available_bps=round(self.channel.available_bps, 3))
            raise AdmissionError(
                f"{self.name}: cannot admit {contract.bps:g} b/s "
                f"({self.channel.available_bps:g} of "
                f"{self.channel.capacity_bps:g} b/s available on "
                f"{self.channel.name!r}; floor "
                f"{contract.bps * contract.min_fraction:g} b/s)"
            )
        self._pump()  # a degraded grant may leave room for queued work
        return reservation

    # -- batched admission (the herd path) ---------------------------------
    def admit_batch(self, contract: QoSContract, count: int,
                    label: str = "herd") -> BatchVerdict:
        """Admit up to ``count`` identical contracts in one decision.

        The vectorized equivalent of ``count`` back-to-back
        :meth:`try_admit` calls at one instant, minus queueing and
        preemption: as many full-rate grants as capacity allows are
        folded into **one** cohort :class:`~repro.net.channel.Reservation`
        of ``n x bps`` (so a herd of 10^5 clients costs O(lifetime)
        reservations, not O(clients)); the next client may take the
        degraded remainder exactly as a sequential arrival would; the
        rest are shed or rejected exactly as sequential arrivals would
        be.  Background batches re-check the watermark per grant, so a
        cohort stops growing the moment its own grants reach it — the
        same point a sequential arrival burst stops admitting.

        Cohort reservations carry ``cohort_clients`` so preemption by
        foreground interactive work is charged per *client*, not per
        reservation.  Metrics and the decision log advance by batch
        counts.
        """
        if count < 0:
            raise AdmissionError(f"batch count must be >= 0, got {count}")
        if count == 0:
            return BatchVerdict(0, 0, 0, 0, 0.0, ())
        if (contract.priority is Priority.BACKGROUND
                and self.utilization >= self.high_watermark - 1e-12):
            self._m_shed.inc(count)
            if self._decisions.enabled:
                self._decisions.emit("shed", label, actor=self.name,
                                     reason="watermark", count=count,
                                     utilization=round(self.utilization, 4))
            return BatchVerdict(count, 0, 0, count, 0.0, ())
        reservations = []
        granted_bps = 0.0
        available = self.channel.available_bps
        n_full = min(count, int((available + 1e-9) // contract.bps))
        if contract.priority is Priority.BACKGROUND and n_full:
            # A sequential background arrival re-checks the watermark
            # *before* its grant, so the k-th client of a burst admits
            # only while reserved + k*bps is still under it — cap the
            # cohort there, not at channel capacity.
            headroom = ((self.high_watermark - 1e-12)
                        * self.channel.capacity_bps
                        - self.channel.reserved_bps)
            n_full = min(n_full, max(0, math.ceil(headroom / contract.bps)))
        if n_full:
            cohort = self._grant(n_full * contract.bps, contract, label)
            cohort.cohort_clients = n_full
            reservations.append(cohort)
            granted_bps += cohort.bps
            self._m_admitted.inc(n_full)
            if self._decisions.enabled:
                self._decisions.emit("admit", label, actor=self.name,
                                     bps=contract.bps, count=n_full)
        # Past the grants above, a sequential background arrival sheds
        # at the watermark before it ever reaches the degrade step.
        at_watermark = (contract.priority is Priority.BACKGROUND
                        and self.utilization >= self.high_watermark - 1e-12)
        n_degraded = 0
        if count > n_full and contract.min_fraction < 1.0 and not at_watermark:
            available = self.channel.available_bps
            floor = contract.bps * contract.min_fraction
            if available + 1e-9 >= floor and available > 0:
                # Sequentially, the first client past capacity takes the
                # whole remainder (>= its floor); everyone after it sees
                # nothing left — so a batch degrades at most one client.
                grant = min(available, contract.bps)
                degraded = self._grant(grant, contract, f"{label}-degraded")
                degraded.cohort_clients = 1
                reservations.append(degraded)
                granted_bps += grant
                n_degraded = 1
                self._m_degraded.inc()
                if self._decisions.enabled:
                    self._decisions.emit(
                        "degrade", label, actor=self.name, bps=grant,
                        requested_bps=contract.bps,
                        fraction=round(grant / contract.bps, 4))
        shed = count - n_full - n_degraded
        if shed:
            # Sequentially the leftovers all see the same post-grant
            # state (a degraded grant may itself have reached the
            # watermark, so re-check): background work at the watermark
            # is shed, anything else is rejected.
            at_watermark = (contract.priority is Priority.BACKGROUND
                            and self.utilization
                            >= self.high_watermark - 1e-12)
            if at_watermark:
                self._m_shed.inc(shed)
            else:
                self._m_rejected.inc(shed)
            if self._decisions.enabled:
                self._decisions.emit(
                    "shed" if at_watermark else "reject", label,
                    actor=self.name, count=shed,
                    available_bps=round(self.channel.available_bps, 3))
        return BatchVerdict(count, n_full, n_degraded, shed,
                            granted_bps, tuple(reservations))

    # -- queued admission (DES subroutine) ---------------------------------
    def admit(self, contract: QoSContract, label: str = "stream") -> Generator:
        """DES subroutine: admit, or wait in the queue until admitted,
        shed, or timed out.

        Returns a live :class:`~repro.net.channel.Reservation`.  Raises
        :class:`~repro.errors.AdmissionError` when shed (watermark or
        queue backpressure) and
        :class:`~repro.errors.AdmissionTimeoutError` when the contract's
        queue deadline expires first.
        """
        reservation = self._decide(contract, label)  # raises when shed
        if reservation is not None:
            self._pump()
            return reservation
        self._make_room_for(contract, label)
        entry = _Pending(contract, label, next(self._seq),
                         self.simulator.event(f"admit:{label}"),
                         self.simulator.now.seconds)
        heapq.heappush(self._queue, (entry.sort_key, entry))
        self._live_queued += 1
        self._m_queued.inc()
        if self._decisions.enabled:
            self._decisions.emit("queue", label, actor=self.name,
                                 depth=self.queue_depth,
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
                self._decisions.emit("queue-timeout", label, actor=self.name,
                                     waited_s=contract.queue_timeout_s)
            raise AdmissionTimeoutError(
                f"{self.name}: {label!r} spent {contract.queue_timeout_s:g}s "
                f"queued without admission (priority "
                f"{contract.priority.name.lower()})"
            ) from None
        if isinstance(payload, _Shed):
            if self._decisions.enabled:
                self._decisions.emit("shed", label, actor=self.name,
                                     reason=payload.reason)
            raise AdmissionError(
                f"{self.name}: {label!r} shed while queued ({payload.reason})"
            )
        self._m_queue_wait_s.observe(
            self.simulator.now.seconds - entry.queued_at
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
            self._decisions.emit("shed", label, actor=self.name,
                                 reason="queue-full", depth=self.max_queue)
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
                contract = entry.contract
                available = self.channel.available_bps
                if available + 1e-9 >= contract.bps:
                    grant = contract.bps
                    self._m_admitted.inc()
                    verdict = "admit"
                elif (contract.min_fraction < 1.0
                      and available + 1e-9 >= contract.bps * contract.min_fraction
                      and available > 0):
                    grant = min(available, contract.bps)
                    self._m_degraded.inc()
                    verdict = "degrade"
                else:
                    break  # head of queue cannot be served; keep order
                heapq.heappop(self._queue)
                self._live_queued -= 1
                entry.granted = self._grant(grant, contract, entry.label)
                if self._decisions.enabled:
                    waited = self.simulator.now.seconds - entry.queued_at
                    self._decisions.emit(verdict, entry.label, actor=self.name,
                                         bps=grant, from_queue=True,
                                         waited_s=round(waited, 6))
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
                self._decisions.emit("shed", f"device:{pool.kind}",
                                     actor=self.name, reason="pool-busy")
            raise AdmissionError(
                f"{self.name}: shedding background request for a "
                f"{pool.kind!r} device ({pool.in_use}/{pool.count} busy)"
            )
        self._m_queued.inc()
        queued_at = self.simulator.now.seconds
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
        self._m_queue_wait_s.observe(self.simulator.now.seconds - queued_at)
        return lease

    # -- circuit breakers ----------------------------------------------------
    def breaker(self, name: str, **kwargs) -> CircuitBreaker:
        """Get or create the named breaker (see :mod:`repro.admission.breaker`)."""
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(self.simulator, name=name, **kwargs)
            self._breakers[name] = breaker
        return breaker

    def __repr__(self) -> str:
        return (f"AdmissionController({self.name!r} on {self.channel.name!r}, "
                f"{len(self._held)} held, {self.queue_depth} queued)")
