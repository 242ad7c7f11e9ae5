"""Herd <-> discrete equivalence: the proof the fluid mode is honest.

The herd coupler claims each ``admit_batch`` is exactly what ``count``
individual clients arriving back-to-back at the epoch boundary would
have gotten.  This module makes that falsifiable: :func:`run_herd` and
:func:`run_discrete` drive the *same compiled population* — same seed,
same per-epoch counts — through the same channel/controller
configuration, once as aggregate cohorts and once as one real DES
process per client, and :func:`compare` diffs the verdict counts,
goodput, trunk traffic and the epoch-by-epoch trunk-occupancy curve.

Two deliberate alignment rules make the comparison exact rather than
statistical:

* discrete sessions hold their reservation for ``session_s`` minus a
  fixed ``RELEASE_SLACK_S`` so their releases land just *before* the
  epoch boundary — the coupler's departures-before-arrivals order —
  while bits are still charged for the full ``session_s``;
* occupancy is sampled mid-epoch (both systems are quiescent there),
  so the curves are comparable point-for-point.

Equivalence rigs run with ``preempt=False`` and ``max_queue=0``:
``admit_batch`` models an instantaneous arrival burst, not queue
residency, and cohort-granularity preemption is a documented
coarsening (a revoked cohort loses all its clients at once).
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.admission.controller import AdmissionController, QoSContract
from repro.admission.workload import PRIORITY_QOS
from repro.avtime import WorldTime
from repro.errors import AdmissionError
from repro.herd.coupler import SESSION_EPOCHS, STREAM_BPS, HerdCoupler
from repro.herd.population import PRIORITY_ORDER, HerdPopulation
from repro.net.channel import Channel
from repro.sim import Delay, Simulator

#: how much earlier than the epoch boundary a discrete session releases
#: (virtual seconds) — small enough to be invisible in any fact, large
#: enough to order releases ahead of same-boundary arrivals.
RELEASE_SLACK_S = 1e-7

#: the largest gap between the two occupancy curves that still agrees.
OCCUPANCY_TOLERANCE = 1e-9


def _rig(capacity_bps: float):
    simulator = Simulator()
    trunk = Channel(simulator, capacity_bps=capacity_bps, name="trunk")
    controller = AdmissionController(simulator, trunk, max_queue=0,
                                     preempt=False)
    return simulator, trunk, controller


def run_herd(population: HerdPopulation, *,
             capacity_bps: float) -> Dict[str, object]:
    """Run the population through the coupler; no cache, no foreground."""
    simulator, trunk, controller = _rig(capacity_bps)
    coupler = HerdCoupler(simulator, controller, population)
    coupler.start()
    end = simulator.run()
    facts = coupler.facts()
    facts["trunk_bits"] = trunk.total_bits
    facts["virtual_seconds"] = round(end.seconds, 6)
    facts["occupancy"] = tuple(round(u, 9) for _, u in coupler.occupancy)
    return facts


def run_discrete(population: HerdPopulation, *,
                 capacity_bps: float) -> Dict[str, object]:
    """The reference: one real DES process per compiled client."""
    simulator, trunk, controller = _rig(capacity_bps)
    epoch_s = population.epoch_s
    session_s = SESSION_EPOCHS * epoch_s
    hold_s = session_s - RELEASE_SLACK_S
    contracts = {priority: QoSContract(STREAM_BPS, priority,
                                       *PRIORITY_QOS[priority])
                 for priority in PRIORITY_ORDER}
    stats = {key: 0 for key in (
        "clients", "admitted_full", "admitted_degraded", "shed",
        "completed", "goodput_bits",
    )}

    def client(arrival_s: float, contract: QoSContract,
               label: str) -> Generator:
        if arrival_s > 0:
            yield Delay(arrival_s)
        try:
            reservation = controller.try_admit(contract, label)
        except AdmissionError:
            stats["shed"] += 1
            return
        if reservation.bps + 1e-9 >= STREAM_BPS:
            stats["admitted_full"] += 1
        else:
            stats["admitted_degraded"] += 1
        yield Delay(hold_s)
        # Charge the full session's bits (the slack is an ordering
        # device, not lost service) exactly like the coupler does.
        bits = int(reservation.bps * session_s)
        trunk._account(bits)
        reservation.release()
        stats["completed"] += 1
        stats["goodput_bits"] += bits

    # Spawn in (epoch, priority class, index) order — the order the
    # coupler's batches hit the controller — so same-instant wakeups
    # dispatch identically.
    for tick in range(population.n_epochs):
        arrival = population.epoch_start(tick)
        for priority in PRIORITY_ORDER:
            count = int(population.by_priority[priority][tick])
            label = f"herd-{priority.name.lower()}"
            for index in range(count):
                stats["clients"] += 1
                simulator.spawn(client(arrival, contracts[priority], label),
                                name=f"{label}-e{tick}-{index}")

    # Mid-epoch occupancy samples, matching the coupler's tick count.
    n_samples = population.n_epochs + SESSION_EPOCHS
    occupancy: List[float] = []

    def sample(tick: int) -> None:
        occupancy.append(round(controller.utilization, 9))
        if tick + 1 >= n_samples:
            raise StopIteration

    simulator.schedule_every(epoch_s, sample,
                             start_at=WorldTime(epoch_s / 2))
    end = simulator.run()
    facts: Dict[str, object] = dict(stats)
    facts["edge_served"] = 0
    facts["preempted"] = 0
    facts["wasted_bits"] = 0
    facts["peak_utilization"] = round(max(occupancy, default=0.0), 4)
    facts["trunk_bits"] = trunk.total_bits
    facts["virtual_seconds"] = round(end.seconds, 6)
    facts["occupancy"] = tuple(occupancy)
    return facts


#: the facts that must match *exactly* between the two modes.
EXACT_KEYS = ("clients", "admitted_full", "admitted_degraded", "shed",
              "completed", "goodput_bits", "trunk_bits")


def compare(herd_facts: Dict[str, object],
            discrete_facts: Dict[str, object]) -> List[str]:
    """Diff the two runs; returns human-readable mismatch lines."""
    mismatches: List[str] = []
    for key in EXACT_KEYS:
        if herd_facts[key] != discrete_facts[key]:
            mismatches.append(
                f"{key}: herd={herd_facts[key]} "
                f"discrete={discrete_facts[key]}")
    herd_curve = herd_facts["occupancy"]
    discrete_curve = discrete_facts["occupancy"]
    if len(herd_curve) != len(discrete_curve):
        mismatches.append(
            f"occupancy length: herd={len(herd_curve)} "
            f"discrete={len(discrete_curve)}")
    else:
        worst = max((abs(h - d) for h, d in zip(herd_curve, discrete_curve)),
                    default=0.0)
        if worst > OCCUPANCY_TOLERANCE:
            mismatches.append(
                f"occupancy curve diverges by {worst:g} "
                f"(> {OCCUPANCY_TOLERANCE:g})")
    return mismatches


def equivalence_report(population: HerdPopulation, *,
                       capacity_bps: float) -> Dict[str, object]:
    """Run both modes and return the verdict (the CI probe's payload)."""
    herd_facts = run_herd(population, capacity_bps=capacity_bps)
    discrete_facts = run_discrete(population, capacity_bps=capacity_bps)
    mismatches = compare(herd_facts, discrete_facts)
    return {
        "clients": herd_facts["clients"],
        "epochs": population.n_epochs,
        "herd": herd_facts,
        "discrete": discrete_facts,
        "mismatches": mismatches,
        "equivalent": not mismatches,
    }
