"""The herd coupler: folds aggregate demand into the real trunk.

:class:`HerdCoupler` is the bridge between a compiled
:class:`~repro.herd.population.HerdPopulation` and the discrete world.

:meth:`HerdCoupler.start` compiles, before the first tick, everything
the population already fixes: per-epoch arrivals, the optional
:class:`~repro.cache.aggregate.AggregateHitModel`'s hits, misses and
fills (the model never evicts, so they depend on earlier demand alone),
and each epoch's misses split across the priority classes by
:func:`apportion` — all epochs in one vectorized pass, kept as Python
lists.  It then registers one
:meth:`~repro.sim.Simulator.schedule_every` cadence, and every epoch
tick does only what depends on admission, in this order:

1. **departures** — cohorts admitted :data:`SESSION_EPOCHS` ticks ago
   release their aggregate reservations (or are counted preempted if a
   foreground interactive stream revoked them in between), and their
   delivered bits are charged to the trunk's traffic accounting;
2. **arrivals** — the epoch's compiled cache counts are charged (edge
   hits never touch the trunk) and its compiled class counts are put
   to :meth:`~repro.admission.AdmissionController.admit_batch` per
   priority class, best class first.

Because admitted cohorts hold *real*
:class:`~repro.net.channel.Reservation` slices of the *real* channel,
contention is bidirectional: herd load makes foreground sessions queue,
degrade or preempt, and foreground reservations shrink what the herd
can admit.  One epoch costs O(priority classes) controller calls
regardless of how many thousand clients arrive — that is the whole
trick.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.admission.controller import (
    AdmissionController,
    QoSContract,
)
from repro.admission.workload import PRIORITY_QOS
from repro.errors import SimulationError
from repro.herd.population import PRIORITY_ORDER, HerdPopulation
from repro.net.channel import Reservation
from repro.sim import Simulator

#: a herd client's stream: 1 Mb/s for 4 epochs.
STREAM_BPS = 1_000_000.0
SESSION_EPOCHS = 4


def apportion(totals, counts) -> np.ndarray:
    """Split each row's total across its counts (largest remainder).

    Row ``i`` splits ``totals[i]`` across ``counts[i]`` proportionally:
    exact quotas ``total * c / pool`` are floored, then the leftover
    units go to the largest fractional parts, first-listed winning
    ties.  Deterministic, and exact while ``total * c`` stays below
    2**53.  Used to spread every epoch's cache misses across its
    priority classes at once.
    """
    totals = np.asarray(totals, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    pools = counts.sum(axis=1)
    bad = (totals < 0) | (totals > pools)
    if bad.any():
        row = int(np.argmax(bad))
        raise SimulationError(
            f"cannot apportion {totals[row]} across counts summing to "
            f"{pools[row]}")
    quotas = np.divide(totals[:, None] * counts, pools[:, None],
                       out=np.zeros(counts.shape),
                       where=pools[:, None] > 0)
    floors = quotas.astype(np.int64)
    shortfall = totals - floors.sum(axis=1)
    order = np.argsort(-(quotas - floors), axis=1, kind="stable")
    rank = np.argsort(order, axis=1)
    return floors + (rank < shortfall[:, None])


class _Cohort:
    """One admitted slice of an epoch, awaiting its departure tick."""

    __slots__ = ("reservation", "admitted_at", "released_at")

    def __init__(self, reservation: Reservation, admitted_at: float) -> None:
        self.reservation = reservation
        self.admitted_at = admitted_at
        self.released_at: Optional[float] = None


class HerdCoupler:
    """Advance a herd population per epoch against a live controller."""

    def __init__(self, simulator: Simulator,
                 controller: AdmissionController,
                 population: HerdPopulation, *,
                 cache_model=None) -> None:
        self.simulator = simulator
        self.controller = controller
        self.population = population
        self.session_s = SESSION_EPOCHS * population.epoch_s
        self.cache_model = cache_model
        self._contracts = {
            priority: QoSContract(STREAM_BPS, priority,
                                  *PRIORITY_QOS[priority])
            for priority in PRIORITY_ORDER
        }
        self._labels = {
            priority: f"herd-{priority.name.lower()}"
            for priority in PRIORITY_ORDER
        }
        #: departure tick -> cohorts whose sessions end there.
        self._departures: Dict[int, List[_Cohort]] = {}
        #: (epoch-end virtual time, trunk utilization) per tick — the
        #: curve the equivalence harness compares against the discrete
        #: reference.
        self.occupancy: List[Tuple[float, float]] = []
        self.stats: Dict[str, int] = {key: 0 for key in (
            "clients", "edge_served", "admitted_full", "admitted_degraded",
            "shed", "completed", "preempted", "goodput_bits",
            "wasted_bits",
        )}
        self._ticker = None
        metrics = simulator.obs.metrics
        self._m_clients = metrics.counter("herd.clients")
        self._m_edge = metrics.counter("herd.edge_served")
        self._m_completed = metrics.counter("herd.completed")
        self._m_preempted = metrics.counter("herd.preempted_clients")

    # -- lifecycle ---------------------------------------------------------
    def start(self):
        """Compile the horizon, register the epoch cadence; returns the ticker."""
        if self._ticker is not None:
            raise SimulationError("herd coupler already started")
        population = self.population
        counts = np.stack([population.by_priority[p]
                           for p in PRIORITY_ORDER], axis=1)
        # A list per column, not per epoch: few containers.
        self._arrivals = population.arrivals.tolist()
        self._cache = None
        if self.cache_model is not None:
            self._cache = self.cache_model.fold(population.demand)
            _, misses, _ = self._cache
            counts = apportion(misses, counts)
        self._counts = counts.T.tolist()
        self._ticker = self.simulator.schedule_every(
            population.epoch_s, self._on_epoch)
        return self._ticker

    # -- the epoch tick ----------------------------------------------------
    def _on_epoch(self, tick: int) -> None:
        self._depart(tick)
        done = tick >= self.population.n_epochs
        if not done:
            self._arrive(tick)
        self.occupancy.append((round(self.simulator.now_s, 9),
                               self.controller.utilization))
        # Fixed horizon: the last possible departure is at tick
        # ``n_epochs - 1 + SESSION_EPOCHS`` — run exactly through it so
        # the occupancy curve always has ``n_epochs + SESSION_EPOCHS``
        # points, shed-everything tails included.
        if tick + 1 >= self.population.n_epochs + SESSION_EPOCHS:
            raise StopIteration

    def _depart(self, tick: int) -> None:
        for cohort in self._departures.pop(tick, ()):
            reservation = cohort.reservation
            clients = reservation.cohort_clients
            if reservation.preempted:
                # A foreground interactive stream revoked this cohort
                # mid-session; everything it sent up to that point was
                # wasted work (the discrete scoring rule).
                released_at = cohort.released_at
                held_s = ((self.simulator.now_s if released_at is None
                           else released_at) - cohort.admitted_at)
                bits = int(reservation.bps * held_s)
                self.controller.channel._account(bits)
                self.stats["preempted"] += clients
                self.stats["wasted_bits"] += bits
                self._m_preempted.inc(clients)
                continue
            bits = int(reservation.bps * self.session_s)
            self.controller.channel._account(bits)
            reservation.release()
            self.stats["completed"] += clients
            self.stats["goodput_bits"] += bits
            self._m_completed.inc(clients)

    def _arrive(self, tick: int) -> None:
        total = self._arrivals[tick]
        if not total:
            return
        self.stats["clients"] += total
        self._m_clients.inc(total)
        if self._cache is not None:
            hits_at, misses_at, fills_at = self._cache
            hits = hits_at[tick]
            self.cache_model.charge(hits, misses_at[tick], fills_at[tick])
            if hits:
                # Edge hits are served locally at full rate; they never
                # reach the trunk (start() split the misses alone
                # across the priority classes).
                self.stats["edge_served"] += hits
                self._m_edge.inc(hits)
                self.stats["goodput_bits"] += int(
                    hits * STREAM_BPS * self.session_s)
        now = self.simulator.now_s
        depart_tick = tick + SESSION_EPOCHS
        for priority, counts in zip(PRIORITY_ORDER, self._counts):
            count = counts[tick]
            if not count:
                continue
            verdict = self.controller.admit_batch(
                self._contracts[priority], count,
                label=self._labels[priority])
            self.stats["admitted_full"] += verdict.admitted_full
            self.stats["admitted_degraded"] += verdict.admitted_degraded
            self.stats["shed"] += verdict.shed
            for reservation in verdict.reservations:
                cohort = _Cohort(reservation, now)
                self._watch_release(cohort)
                self._departures.setdefault(depart_tick, []).append(cohort)

    def _watch_release(self, cohort: _Cohort) -> None:
        """Chain the release hook to timestamp preemption-era releases.

        The controller owns ``on_release`` (queue re-pump); the coupler
        needs the release *time* to charge a preempted cohort for the
        bits it sent before revocation.  Chaining keeps both.
        """
        inner = cohort.reservation.on_release

        def hook(reservation: Reservation, _inner=inner,
                 _cohort=cohort) -> None:
            _cohort.released_at = self.simulator.now_s
            if _inner is not None:
                _inner(reservation)

        cohort.reservation.on_release = hook

    # -- facts -------------------------------------------------------------
    def facts(self) -> Dict[str, object]:
        stats = self.stats
        return {
            "clients": stats["clients"],
            "edge_served": stats["edge_served"],
            "admitted_full": stats["admitted_full"],
            "admitted_degraded": stats["admitted_degraded"],
            "shed": stats["shed"],
            "completed": stats["completed"],
            "preempted": stats["preempted"],
            "goodput_bits": stats["goodput_bits"],
            "wasted_bits": stats["wasted_bits"],
            "peak_utilization": round(
                max((u for _, u in self.occupancy), default=0.0), 4),
        }
