"""Seeded herd scenarios: hybrid foreground + million-user crowds.

Each scenario builds one trunk + admission controller, compiles a
:class:`~repro.herd.population.HerdPopulation` for the crowd, couples
it with a :class:`~repro.herd.coupler.HerdCoupler`, and spawns a
handful of *foreground* interactive sessions as ordinary discrete
processes on the same controller — full kernel semantics (queueing,
degradation, preemption of herd cohorts) for the streams you care
about, fluid per-epoch batches for the hundred-thousand extras.

* ``surge`` — a ramp / peak / cooldown day; the peak offers ~2.5x the
  trunk, the edge cache absorbs the popular head, foreground sessions
  ride through the squeeze.
* ``flash`` — a quiet baseline, then a 10x viral flash crowd (95% of
  arrivals on one asset); the aggregate edge model eats the viral
  asset after one cold epoch and the trunk mostly carries the tail.
* ``day`` — the broadcast-day soak phases
  (:func:`repro.soak.phases.default_day`) recast as herd rates, same
  shares, scaled to any client count.

Every scenario takes ``clients`` (expected total crowd size — the
actual Poisson total is seeded) and ``compare_discrete`` (run the
scaled-down equivalence probe alongside and report the verdict).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.admission.controller import (
    AdmissionController,
    Priority,
    QoSContract,
)
from repro.cache.aggregate import AggregateHitModel
from repro.errors import AdmissionError, AdmissionTimeoutError, PreemptedError, SimulationError
from repro.herd.coupler import STREAM_BPS, HerdCoupler
from repro.herd.equivalence import equivalence_report
from repro.herd.population import HerdPhase, HerdPopulation
from repro.net.channel import Channel
from repro.sim import Delay, Simulator

#: the herd's epoch: a session's 4 epochs last 0.2 s.
EPOCH_S = 0.05

#: foreground sessions: interactive, full-rate-or-nothing.
FG_ELEMENT_BITS = 50_000
FG_ELEMENTS = 20

#: the equivalence probe runs the same phase mix thinned to this many
#: expected clients against a proportionally thinned trunk.
PROBE_CLIENTS = 240


def _surge_phases(rate: float) -> Tuple[HerdPhase, ...]:
    return (
        HerdPhase("ramp", 2.0, rate, viral_share=0.35,
                  interactive_share=0.2),
        HerdPhase("peak", 3.0, 4.0 * rate, viral_share=0.6,
                  interactive_share=0.25, background_share=0.1),
        HerdPhase("cool", 2.0, 0.8 * rate, viral_share=0.3),
    )


def _flash_phases(rate: float) -> Tuple[HerdPhase, ...]:
    return (
        HerdPhase("quiet", 1.5, rate, viral_share=0.2,
                  background_share=0.3),
        HerdPhase("flash", 1.0, 10.0 * rate, viral_share=0.95,
                  interactive_share=0.3, background_share=0.2),
        HerdPhase("decay", 1.5, 2.0 * rate, viral_share=0.7),
    )


def _day_phases(rate: float) -> Tuple[HerdPhase, ...]:
    from repro.soak.phases import default_day

    specs = default_day()
    # Recast session counts as rates, preserving each phase's share of
    # the day's arrivals and its skew/priority character.
    total_density = sum(s.vod_sessions for s in specs) / sum(
        s.duration_s for s in specs)
    return tuple(
        HerdPhase(spec.name, spec.duration_s,
                  rate * (spec.vod_sessions / spec.duration_s)
                  / total_density,
                  viral_share=spec.viral_share,
                  interactive_share=spec.interactive_share)
        for spec in specs
    )


def _expected_clients(phases: Tuple[HerdPhase, ...]) -> float:
    return sum(p.duration_s * p.arrivals_per_s for p in phases)


def _foreground(simulator: Simulator, controller: AdmissionController,
                stats: Dict[str, int], *, sessions: int, start_s: float,
                spacing_s: float, bps: float) -> None:
    """Spawn discrete interactive sessions over the herd-loaded trunk."""

    def session(index: int) -> Generator:
        yield Delay(start_s + index * spacing_s)
        contract = QoSContract(bps, Priority.INTERACTIVE,
                               min_fraction=1.0, queue_timeout_s=0.5)
        try:
            reservation = yield from controller.admit(
                contract, label=f"fg-{index:02d}")
        except (AdmissionError, AdmissionTimeoutError):
            stats["fg_refused"] += 1
            return
        stats["fg_admitted"] += 1
        period = FG_ELEMENT_BITS / reservation.bps
        start = simulator.now_s
        late = 0
        try:
            for i in range(FG_ELEMENTS):
                ideal = start + i * period
                if ideal > simulator.now_s:
                    yield Delay(ideal - simulator.now_s)
                yield from reservation.serialize(FG_ELEMENT_BITS)
                if simulator.now_s > ideal + 1.25 * period + 1e-12:
                    late += 1
        except PreemptedError:
            stats["fg_preempted"] += 1
            return
        finally:
            if not reservation.released:
                reservation.release()
        stats["fg_completed"] += 1
        stats["fg_late_elements"] += late

    for index in range(sessions):
        simulator.spawn(session(index), name=f"fg-{index:02d}")


def _run(phases_for_rate, own_clients: int, *, seed: int,
         clients: Optional[int], capacity_streams: int, catalog_size: int,
         cached_assets: int, fg_sessions: int, fg_start_s: float,
         compare_discrete: bool) -> Dict[str, object]:
    if clients is None:
        clients = own_clients
    elif clients < 1:
        raise SimulationError(f"a herd needs at least 1 client, got {clients}")
    nominal = _expected_clients(phases_for_rate(1.0))
    rate = clients / nominal
    phases = phases_for_rate(rate)
    simulator = Simulator()
    trunk = Channel(simulator, capacity_bps=STREAM_BPS * capacity_streams,
                    name="trunk")
    controller = AdmissionController(simulator, trunk, max_queue=64,
                                     high_watermark=0.85, preempt=True)
    population = HerdPopulation(phases, seed=seed,
                                catalog_size=catalog_size, epoch_s=EPOCH_S)
    # The model caches the first assets in catalogue order, which *is*
    # popularity order here (asset 0 viral, then Zipf by rank).
    cache_model = AggregateHitModel(simulator.obs.metrics, catalog_size,
                                    cached_assets)
    coupler = HerdCoupler(simulator, controller, population,
                          cache_model=cache_model)
    coupler.start()
    fg_stats = {key: 0 for key in (
        "fg_admitted", "fg_refused", "fg_preempted", "fg_completed",
        "fg_late_elements",
    )}
    _foreground(simulator, controller, fg_stats, sessions=fg_sessions,
                start_s=fg_start_s, spacing_s=EPOCH_S / 2, bps=4 * STREAM_BPS)
    end = simulator.run()

    facts: Dict[str, object] = {
        "seed": seed,
        "clients_expected": int(clients),
        "epochs": population.n_epochs,
        "population_sha": population.sha256()[:16],
    }
    facts.update(coupler.facts())
    facts.update(fg_stats)
    facts["cache_hit_ratio"] = round(cache_model.hit_ratio, 4)
    facts["trunk_bits"] = trunk.total_bits
    facts["virtual_seconds"] = round(end.seconds, 6)
    if compare_discrete:
        probe = HerdPopulation(
            tuple(p.scaled(PROBE_CLIENTS / clients) for p in phases),
            seed=seed, catalog_size=catalog_size, epoch_s=EPOCH_S)
        report = equivalence_report(
            probe,
            capacity_bps=STREAM_BPS * max(2, int(
                capacity_streams * PROBE_CLIENTS / clients)))
        facts["probe_clients"] = report["clients"]
        facts["probe_equivalent"] = report["equivalent"]
        facts["probe_mismatches"] = len(report["mismatches"])
    return facts


def surge(seed: int = 0, clients: Optional[int] = None,
          compare_discrete: bool = False) -> Dict[str, object]:
    """Ramp / peak / cooldown: a 2.5x-over-capacity evening."""
    return _run(_surge_phases, 20_000, seed=seed, clients=clients,
                capacity_streams=160, catalog_size=32, cached_assets=6,
                fg_sessions=8, fg_start_s=2.5,
                compare_discrete=compare_discrete)


def flash(seed: int = 0, clients: Optional[int] = None,
          compare_discrete: bool = False) -> Dict[str, object]:
    """A 10x viral flash crowd with 95% of demand on one asset."""
    return _run(_flash_phases, 30_000, seed=seed, clients=clients,
                capacity_streams=150, catalog_size=64, cached_assets=4,
                fg_sessions=8, fg_start_s=1.6,
                compare_discrete=compare_discrete)


def day(seed: int = 0, clients: Optional[int] = None,
        compare_discrete: bool = False) -> Dict[str, object]:
    """The broadcast-day soak phases, recast as a scalable herd."""
    return _run(_day_phases, 25_000, seed=seed, clients=clients,
                capacity_streams=200, catalog_size=32, cached_assets=6,
                fg_sessions=6, fg_start_s=5.2,
                compare_discrete=compare_discrete)


SCENARIOS = {
    "surge": surge,
    "flash": flash,
    "day": day,
}


def summary_line(scenario: str, facts: Dict[str, object]) -> str:
    """One deterministic line for CI smoke checks and the benchmark."""
    keys = (
        "seed", "clients_expected", "clients", "edge_served",
        "admitted_full", "admitted_degraded", "shed", "completed",
        "preempted", "fg_admitted", "fg_refused", "fg_preempted",
        "fg_completed", "fg_late_elements", "cache_hit_ratio",
        "peak_utilization", "goodput_bits", "trunk_bits",
        "probe_equivalent", "virtual_seconds",
    )
    parts = [f"{key}={facts[key]}" for key in keys if key in facts]
    return f"herd {scenario}: " + " ".join(parts)
