"""Named overload scenarios for ``python -m repro overload``.

Each scenario builds a workload, runs it to completion in virtual time,
and returns a dict of headline facts.  Every scenario takes ``seed`` and
``admission``: with ``admission=False`` the same offered load hits the
system with the admission layer disabled, which is the baseline the
overload benchmark's goodput claims are measured against
(``bench_overload.py``).

Scenarios are deterministic: same seed, same facts, every run.

* ``surge`` — the headline experiment: 60 Poisson clients offering 10x
  the trunk's capacity (see :class:`~repro.admission.OverloadWorkload`).
* ``priority-mix`` — scripted arrivals showing background preemption:
  background streams fill the trunk, then interactive requests arrive
  and (with admission) preempt them instead of timing out.
* ``device-outage`` — the circuit breaker against a scheduler outage
  from :mod:`repro.faults`: closed -> open -> half-open probes ->
  closed, with fail-fast calls while open and nothing stranded.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.admission.controller import AdmissionController, Priority, QoSContract
from repro.admission.workload import OverloadWorkload
from repro.errors import (
    AdmissionError,
    AdmissionTimeoutError,
    CircuitOpenError,
    FaultError,
    PreemptedError,
)
from repro.net.channel import Channel
from repro.sim import Delay, Simulator


def surge(seed: int = 0, admission: bool = True) -> Dict[str, object]:
    """10x overload: 60 Poisson clients against a 5-stream trunk."""
    return OverloadWorkload(seed=seed, admission=admission).run()


def priority_mix(seed: int = 0, admission: bool = True) -> Dict[str, object]:
    """Interactive preemption of background streams.

    Three background streams fill a 3-stream trunk; half a second later
    two interactive requests arrive with 0.3 s of patience, and one
    standard request waits with a longer deadline.  With ``admission``
    the controller preempts the two newest background streams so the
    interactive work starts immediately at full rate; with preemption
    disabled (the baseline) the interactive requests queue behind 2 s of
    background streaming and expire.

    ``seed`` is accepted for CLI symmetry; the scenario is scripted.
    """
    del seed  # arrivals are scripted, not drawn
    sim = Simulator()
    stream_bps, element_bits, elements = 2_000_000.0, 200_000, 20
    trunk = Channel(sim, capacity_bps=3 * stream_bps, latency_s=0.0,
                    name="trunk")
    controller = AdmissionController(sim, trunk, max_queue=8,
                                     preempt=admission)
    stats = {
        "background_admitted": 0, "background_preempted": 0,
        "interactive_admitted": 0, "interactive_timeouts": 0,
        "interactive_violations": 0, "standard_admitted": 0,
        "completed": 0,
    }

    def client(name: str, arrival_s: float, priority: Priority,
               min_fraction: float, timeout_s: float):
        if arrival_s > sim.now_s:
            yield Delay(arrival_s - sim.now_s)
        contract = QoSContract(stream_bps, priority, min_fraction, timeout_s)
        try:
            reservation = yield from controller.admit(contract, label=name)
        except AdmissionTimeoutError:
            if priority is Priority.INTERACTIVE:
                stats["interactive_timeouts"] += 1
            return
        except AdmissionError:
            return
        key = {Priority.INTERACTIVE: "interactive_admitted",
               Priority.STANDARD: "standard_admitted",
               Priority.BACKGROUND: "background_admitted"}[priority]
        stats[key] += 1
        start = sim.now_s
        period = element_bits / reservation.bps
        try:
            with reservation:
                for i in range(elements):
                    ideal = start + i * period
                    if ideal > sim.now_s:
                        yield Delay(ideal - sim.now_s)
                    yield from reservation.serialize(element_bits)
                    late = sim.now_s - (ideal + period)
                    if (priority is Priority.INTERACTIVE
                            and late > 0.25 * period):
                        stats["interactive_violations"] += 1
        except PreemptedError:
            stats["background_preempted"] += 1
            return
        stats["completed"] += 1

    sim.spawn(client("bg-0", 0.000, Priority.BACKGROUND, 0.25, 3.0))
    sim.spawn(client("bg-1", 0.005, Priority.BACKGROUND, 0.25, 3.0))
    sim.spawn(client("bg-2", 0.010, Priority.BACKGROUND, 0.25, 3.0))
    sim.spawn(client("std-0", 0.200, Priority.STANDARD, 0.5, 2.5))
    sim.spawn(client("int-0", 0.500, Priority.INTERACTIVE, 1.0, 0.3))
    sim.spawn(client("int-1", 0.550, Priority.INTERACTIVE, 1.0, 0.3))
    end = sim.run()
    metrics = sim.obs.metrics
    return {
        "mode": "admission" if admission else "no-admission",
        **stats,
        "admission_preempted": int(metrics.counter("admission.preempted").value),
        "admission_timeouts": int(metrics.counter("admission.timeouts").value),
        "reserved_bps_end": int(trunk.reserved_bps),
        "virtual_seconds": round(end.seconds, 4),
        "stranded_processes": sim.live_processes,
    }


def device_outage(seed: int = 0, admission: bool = True) -> Dict[str, object]:
    """Circuit breaker over the disk scheduler during an injected outage.

    Six readers fetch a frame every 50 ms through the scheduler; the
    fault plan stops it from t=0.3 to t=0.8.  With ``admission`` the
    reads go through the controller's ``disk`` breaker: three
    consecutive faults open it, reads fail fast while it is open,
    half-open probes retest the scheduler every 0.2 s, and the first
    probe after the restart closes it again.  Without the breaker every
    read slams into the dead scheduler individually.
    """
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.storage.scheduler import DiskScheduler, Policy

    sim = Simulator()
    disk = DiskScheduler(sim, policy=Policy.CSCAN)
    disk.start()
    plan = FaultPlan(seed=seed).scheduler_outage("disk", at=0.30, duration=0.50)
    FaultInjector(sim, plan).arm(schedulers={"disk": disk})
    trunk = Channel(sim, capacity_bps=10_000_000.0, name="trunk")
    controller = AdmissionController(sim, trunk)
    breaker = (controller.breaker("disk", failure_threshold=3,
                                  reset_timeout_s=0.2)
               if admission else None)

    readers, frames = 6, 30
    period, slack, bits = 0.05, 0.04, 200_000
    stats = {"delivered": 0, "lost": 0, "fast_failed": 0}

    def reader(index: int):
        for i in range(frames):
            ideal = i * period
            if ideal > sim.now_s:
                yield Delay(ideal - sim.now_s)
            position = (index * 150 + i * 7) % disk.cylinders

            def attempt(p=position, d=ideal + slack):
                return disk.read(p, bits, deadline=d)

            try:
                if breaker is not None:
                    yield from breaker.call(attempt)
                else:
                    yield from attempt()
            except CircuitOpenError:
                stats["fast_failed"] += 1
                continue
            except FaultError:
                stats["lost"] += 1
                continue
            stats["delivered"] += 1

    for index in range(readers):
        sim.spawn(reader(index), name=f"reader-{index}")
    end = sim.run()
    metrics = sim.obs.metrics
    transitions = breaker.transitions if breaker is not None else []
    negotiated = readers * frames
    accounted = stats["delivered"] + stats["lost"] + stats["fast_failed"]
    return {
        "mode": "admission" if admission else "no-admission",
        "negotiated_frames": negotiated,
        "delivered_frames": stats["delivered"],
        "lost_frames": stats["lost"],
        "fast_failed_frames": stats["fast_failed"],
        "breaker_state": breaker.state.value if breaker is not None else "none",
        "breaker_transitions": len(transitions),
        "breaker_path": "->".join(to for _, _, to in transitions),
        "breaker_fast_failures": int(
            metrics.counter("admission.breaker_fast_failures").value),
        "virtual_seconds": round(end.seconds, 4),
        # every negotiated read resolved (delivered / faulted / fast-failed):
        # nothing was left waiting on an open breaker or a dead scheduler.
        "stranded_requests": negotiated - accounted,
    }


SCENARIOS: Dict[str, Callable[..., Dict[str, object]]] = {
    "surge": surge,
    "priority-mix": priority_mix,
    "device-outage": device_outage,
}
