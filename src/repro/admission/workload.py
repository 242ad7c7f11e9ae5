"""Seeded multi-client overload workload (ROADMAP: "millions of users").

:class:`OverloadWorkload` drives 60 client sessions against one
:class:`~repro.avdb.AVDatabaseSystem` whose streams share a single
trunk channel, a shared decoder pool, and the catalog database.
Arrivals are Poisson in *virtual* time; every random draw comes from one
seeded generator consumed before the simulation starts, so a run is a
pure function of ``(seed, admission)`` — byte-identical facts across
runs, which the overload benchmark gates on.

Each client: opens a session, runs a catalog transaction (read + update
under wait-die, with bounded retries), takes a decoder lease, asks for
stream bandwidth, paces its elements over the wire, and closes.

Two admission regimes:

* ``admission=True`` — requests go through the
  :class:`~repro.admission.AdmissionController`: full-rate admission,
  queueing with a deadline, degradation to the contract floor, shedding
  of background work past the watermark, and preemption of background
  streams by interactive ones.  An admitted stream paces against its
  *operative* (possibly renegotiated) contract, so it honours what it
  was granted.
* ``admission=False`` — the uncontrolled baseline: nobody is refused
  and nothing is reserved; concurrent streams statistically multiplex
  the trunk (each element is served at ``capacity / active_streams``).
  Past saturation every stream's effective rate collapses, deadlines
  slip, and clients abandon — the congestion collapse that admission
  control exists to prevent.

*Goodput* counts only the bits of streams that completed while honouring
their operative QoS contract (zero late elements); bits burned by
abandoned, preempted, or contract-violating streams are wasted work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.admission.controller import AdmissionController, Priority, QoSContract
from repro.avdb import AVDatabaseSystem
from repro.db import AttributeSpec, ClassDef, Q
from repro.errors import (
    AdmissionError,
    AdmissionTimeoutError,
    LockTimeoutError,
    PreemptedError,
)
from repro.net.channel import Channel
from repro.sim import Delay
from repro.synth.arrivals import mixture_pick, poisson_step

#: per-priority QoS defaults: (degraded floor fraction, queue timeout s).
PRIORITY_QOS = {
    Priority.INTERACTIVE: (1.0, 0.5),   # full rate or nothing, short patience
    Priority.STANDARD: (0.5, 1.5),
    Priority.BACKGROUND: (0.25, 3.0),
}

#: arrival mix: cumulative thresholds over one uniform draw.
_PRIORITY_MIX = (
    (0.30, Priority.INTERACTIVE),
    (0.70, Priority.STANDARD),
    (1.00, Priority.BACKGROUND),
)

CLIP_COUNT = 3

#: The surge experiment: 60 clients offering 10x a trunk of five 2 Mb/s
#: streams, each stream 20 elements of 200 kbit.
CLIENTS = 60
LOAD_FACTOR = 10.0
STREAM_BPS = 2_000_000.0
ELEMENT_BITS = 200_000
ELEMENTS = 20
CAPACITY_BPS = STREAM_BPS * 5
PERIOD_S = ELEMENT_BITS / STREAM_BPS
STREAM_DURATION_S = ELEMENTS * PERIOD_S
#: decoder leases in the shared pool.
POOL_SIZE = 6
#: lateness tolerated per element, as a fraction of its period.
SLACK_FRACTION = 0.25
#: a baseline client abandons once an element is this many periods late.
ABANDON_FACTOR = 8.0


@dataclass(frozen=True, slots=True)
class ClientSpec:
    """One pre-drawn client: everything random, decided before t=0."""

    index: int
    name: str
    arrival_s: float
    priority: Priority
    clip: int


class FairShareLink:
    """Best-effort multiplexing of the trunk (the no-admission regime).

    No reservations: each element is served at the capacity divided by
    the number of active streams, sampled when the element starts — a
    deterministic stand-in for TCP-fair sharing of an unmanaged link.
    """

    def __init__(self, capacity_bps: float) -> None:
        self.capacity_bps = capacity_bps
        self.active = 0
        self.total_bits = 0

    def serialize(self, bits: int) -> Generator:
        share = self.capacity_bps / max(1, self.active)
        yield Delay(bits / share)
        self.total_bits += bits


class OverloadWorkload:
    """Build, run and score one seeded overload experiment."""

    def __init__(self, seed: int = 0, admission: bool = True) -> None:
        self.seed = seed
        self.admission = admission
        self.specs = self._draw_specs()

    def _draw_specs(self) -> List[ClientSpec]:
        rng = random.Random(f"overload:{self.seed}")
        # Offered load = load_factor x capacity: arrival rate such that
        # (arrivals/s) x (stream duration) x (stream rate) = load x capacity.
        lam = LOAD_FACTOR * CAPACITY_BPS / (STREAM_BPS * STREAM_DURATION_S)
        specs: List[ClientSpec] = []
        clock = 0.0
        for index in range(CLIENTS):
            clock += poisson_step(rng, lam)
            priority = mixture_pick(rng, _PRIORITY_MIX)
            specs.append(ClientSpec(
                index=index,
                name=f"client-{index:03d}",
                arrival_s=round(clock, 6),
                priority=priority,
                clip=rng.randrange(CLIP_COUNT),
            ))
        return specs

    # -- system under test -------------------------------------------------
    def _build(self):
        system = AVDatabaseSystem(name="overload")
        sim = system.simulator
        system.db.define_class(ClassDef("Clip", attributes=[
            AttributeSpec("title", str, indexed=True),
            AttributeSpec("plays", int),
        ]))
        for i in range(CLIP_COUNT):
            system.db.insert("Clip", title=f"clip-{i}", plays=0)
        pool = system.resources.add_pool("decoder", POOL_SIZE)
        trunk = Channel(sim, capacity_bps=CAPACITY_BPS,
                        latency_s=0.0, name="trunk")
        controller = None
        if self.admission:
            controller = system.enable_admission(trunk)
        return system, trunk, pool, controller

    # -- the client process ------------------------------------------------
    def _metadata_transaction(self, system, spec: ClientSpec,
                              stats: Dict[str, int]) -> Generator:
        """Catalog read-modify-write under wait-die, bounded retries.

        The transaction spans a yield (think: client think-time between
        reading the catalog entry and confirming the play), so
        concurrent clients really conflict; wait-die resolves every
        conflict without deadlock, and a bounded retry loop converts
        both verdicts (wait / die) into eventual commits.
        """
        db = system.db
        for attempt in range(10):
            tx = db.begin()
            try:
                oid = db.select("Clip", Q.eq("title", f"clip-{spec.clip}"))[0]
                obj = tx.read(oid)
                yield Delay(0.002)  # think time: the window conflicts live in
                tx.update(oid, plays=obj.plays + 1)
                tx.commit()
                stats["tx_commits"] += 1
                return
            except LockTimeoutError as error:
                tx.abort()
                stats["tx_retries"] += 1
                # wait-die: an older tx may wait and retry, a younger tx
                # dies — either way we back off and run a fresh attempt.
                yield Delay(0.002 * (attempt + 1)
                            * (1.0 if error.should_retry else 1.5))
        stats["tx_gave_up"] += 1

    def _stream(self, sim, serialize, op_period: float, priority: Priority,
                stats: Dict[str, int], baseline: bool) -> Generator:
        """Pace :data:`ELEMENTS` elements; returns (violations, ontime_bits,
        abandoned).

        ``ontime_bits`` counts only elements delivered within the
        operative schedule's slack — the element-level goodput of this
        stream, provided it runs to completion.
        """
        start = sim.now_s
        slack = SLACK_FRACTION * op_period
        violations = 0
        ontime_bits = 0
        for i in range(ELEMENTS):
            ideal = start + i * op_period
            if ideal > sim.now_s:
                yield Delay(ideal - sim.now_s)
            yield from serialize(ELEMENT_BITS)
            finish = sim.now_s
            lateness = finish - (ideal + op_period)
            if lateness > slack + 1e-12:
                violations += 1
                if priority is Priority.INTERACTIVE:
                    stats["interactive_violations"] += 1
            else:
                ontime_bits += ELEMENT_BITS
            if baseline and lateness > ABANDON_FACTOR * op_period:
                # The user gave up waiting; everything sent was wasted.
                stats["abandoned"] += 1
                return violations, ontime_bits, True
        return violations, ontime_bits, False

    def _client_controlled(self, system, trunk, pool, controller,
                           spec: ClientSpec, stats: Dict[str, int]) -> Generator:
        sim = system.simulator
        if spec.arrival_s > sim.now_s:
            yield Delay(spec.arrival_s - sim.now_s)
        session = system.open_session(spec.name, channel=trunk)
        lease = None
        reservation = None
        try:
            yield from self._metadata_transaction(system, spec, stats)
            min_fraction, timeout_s = PRIORITY_QOS[spec.priority]
            contract = QoSContract(STREAM_BPS, spec.priority,
                                   min_fraction, timeout_s)
            try:
                lease = yield from controller.acquire_device(
                    pool, spec.priority, timeout_s
                )
                reservation = yield from controller.admit(contract,
                                                          label=spec.name)
            except AdmissionTimeoutError:
                stats["timeouts"] += 1
                return
            except AdmissionError:
                stats["shed"] += 1
                return
            if reservation.bps + 1e-9 >= STREAM_BPS:
                stats["admitted_full"] += 1
            else:
                stats["admitted_degraded"] += 1
            if spec.priority is Priority.INTERACTIVE:
                stats["interactive_admitted"] += 1
            # Pace against the operative contract: a degraded grant is a
            # renegotiated (slower) schedule the stream then honours.
            op_period = ELEMENT_BITS / reservation.bps
            try:
                violations, ontime_bits, _ = yield from self._stream(
                    sim, reservation.serialize, op_period, spec.priority,
                    stats, baseline=False,
                )
            except PreemptedError:
                stats["preempted"] += 1
                return
            stats["completed"] += 1
            stats["goodput_bits"] += ontime_bits
            if violations == 0:
                stats["qos_streams"] += 1
        finally:
            if reservation is not None and not reservation.released:
                reservation.release()
            if lease is not None and not lease.released:
                lease.release()
            session.close()

    def _client_baseline(self, system, trunk, link, pool, spec: ClientSpec,
                         stats: Dict[str, int]) -> Generator:
        sim = system.simulator
        if spec.arrival_s > sim.now_s:
            yield Delay(spec.arrival_s - sim.now_s)
        session = system.open_session(spec.name, channel=trunk)
        lease = None
        try:
            yield from self._metadata_transaction(system, spec, stats)
            # No admission control: nobody is refused.  The pool queues
            # unboundedly (FIFO) and the trunk is multiplexed fairly.
            lease = yield from pool.acquire()
            stats["admitted_full"] += 1
            if spec.priority is Priority.INTERACTIVE:
                stats["interactive_admitted"] += 1
            link.active += 1
            try:
                violations, ontime_bits, abandoned = yield from self._stream(
                    sim, link.serialize, PERIOD_S, spec.priority,
                    stats, baseline=True,
                )
            finally:
                link.active -= 1
            if abandoned:
                return
            stats["completed"] += 1
            stats["goodput_bits"] += ontime_bits
            if violations == 0:
                stats["qos_streams"] += 1
        finally:
            if lease is not None and not lease.released:
                lease.release()
            session.close()

    # -- driving -----------------------------------------------------------
    def run(self) -> Dict[str, object]:
        system, trunk, pool, controller = self._build()
        sim = system.simulator
        link = FairShareLink(CAPACITY_BPS)
        stats: Dict[str, int] = {key: 0 for key in (
            "admitted_full", "admitted_degraded", "shed", "timeouts",
            "preempted", "abandoned", "completed", "qos_streams",
            "goodput_bits", "interactive_admitted", "interactive_violations",
            "tx_commits", "tx_retries", "tx_gave_up",
        )}
        for spec in self.specs:
            if self.admission:
                gen = self._client_controlled(system, trunk, pool, controller,
                                              spec, stats)
            else:
                gen = self._client_baseline(system, trunk, link, pool,
                                            spec, stats)
            sim.spawn(gen, name=spec.name)
        end = sim.run()
        horizon = max(end.seconds, 1e-9)
        metrics = sim.obs.metrics

        def counter(name: str) -> int:
            instrument = metrics.get(name)
            return int(instrument.value) if instrument is not None else 0

        facts: Dict[str, object] = {
            "mode": "admission" if self.admission else "no-admission",
            "seed": self.seed,
            "clients": CLIENTS,
            "load_factor": LOAD_FACTOR,
            "capacity_bps": int(CAPACITY_BPS),
            "admitted_full": stats["admitted_full"],
            "admitted_degraded": stats["admitted_degraded"],
            "shed": stats["shed"],
            "timeouts": stats["timeouts"],
            "preempted": stats["preempted"],
            "abandoned": stats["abandoned"],
            "completed": stats["completed"],
            "qos_streams": stats["qos_streams"],
            "interactive_admitted": stats["interactive_admitted"],
            "interactive_violations": stats["interactive_violations"],
            "tx_commits": stats["tx_commits"],
            "tx_retries": stats["tx_retries"],
            "tx_gave_up": stats["tx_gave_up"],
            "goodput_bits": stats["goodput_bits"],
            "virtual_seconds": round(horizon, 4),
            "goodput_bps": round(stats["goodput_bits"] / horizon, 1),
            "admission_queued": counter("admission.queued"),
            "admission_shed_metric": counter("admission.shed"),
            "stranded_processes": sim.live_processes,
        }
        return facts


def summary_line(scenario: str, facts: Dict[str, object]) -> str:
    """One deterministic line for CI smoke checks and the benchmark."""
    keys = (
        "mode", "seed", "clients", "load_factor",
        "admitted_full", "admitted_degraded", "shed", "timeouts",
        "preempted", "abandoned", "completed", "qos_streams",
        "interactive_admitted", "interactive_violations",
        "background_preempted", "interactive_timeouts",
        "delivered_frames", "fast_failed_frames", "breaker_path",
        "stranded_requests", "stranded_processes",
        "goodput_bits", "virtual_seconds", "goodput_bps",
    )
    parts = [f"{key}={facts[key]}" for key in keys if key in facts]
    return f"overload {scenario}: " + " ".join(parts)
