"""Seeded chaos: sampling fault plans against the broadcast day.

A :class:`ChaosProfile` says how much adversity to draw — how many
storage-node outages, whether any edge NIC carries a loss model,
whether a batch process gets crashed; every draw also takes
:data:`EDGE_OUTAGES` edge-cache outages.  :func:`sample_chaos`
turns ``(seed, horizon, names, profile)`` into a concrete, *validated*
:class:`~repro.faults.plan.FaultPlan`:

* every outage window is restored by 80% of the horizon, so repair
  and boost teardown have room to leave replication whole before the
  teardown audit;
* windows on one target never overlap (placement tracks the last end
  per target), so the sampled plan passes
  :meth:`~repro.faults.plan.FaultPlan.validate` by construction;
* per-kind sub-plans are combined with
  :meth:`~repro.faults.plan.FaultPlan.merge`, so a contradictory
  profile would be rejected at sample time, not arm time.

The same arguments always produce the same plan — chaos search leans
on that to re-derive the schedule it is minimizing without threading
plan objects through scenario facts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan

#: edge-cache outages in every draw.
EDGE_OUTAGES = 2
#: outage duration bounds, as fractions of the horizon.
OUTAGE_MIN = 0.06
OUTAGE_MAX = 0.22


@dataclass(frozen=True, slots=True)
class ChaosProfile:
    """How much adversity one chaos draw contains."""

    name: str
    node_outages: int = 0
    loss_channels: int = 0
    loss_rate: float = 0.0
    process_crashes: int = 0
    #: at most one *node* down at a time.  At R=2, two concurrent node
    #: outages can outrun repair and leave a shard with zero live
    #: replicas — a replication breach by design, not a survivable
    #: fault.  Edge outages may still overlap anything (edges hold no
    #: authoritative data; the cost is hit ratio).
    serialize_nodes: bool = True


PROFILES: Dict[str, ChaosProfile] = {
    # Gentle is the soak default and must be survivable: outages only,
    # all restored, one node at a time, no loss, no crashes.  A clean
    # day under gentle chaos is the acceptance gate.
    "gentle": ChaosProfile("gentle", node_outages=2),
    # Aggressive piles on: concurrent node outages, a lossy edge NIC,
    # and one crashed batch process.  Used to stress the search
    # harness, not gated clean.
    "aggressive": ChaosProfile("aggressive", node_outages=3,
                               loss_channels=1, loss_rate=0.02,
                               process_crashes=1, serialize_nodes=False),
}


def _sample_outages(plan: FaultPlan, rng: random.Random, kind: str,
                    targets: Sequence[str], count: int, horizon_s: float,
                    serialize: bool = False) -> None:
    """Place ``count`` non-overlapping outage windows across targets.

    With ``serialize`` the windows are disjoint across *all* targets
    (one component of this kind down at a time), not just per target.
    """
    last_end: Dict[str, float] = {}
    add = plan.node_outage if kind == "node-outage" else plan.edge_cache_outage
    for _ in range(count):
        target = targets[rng.randrange(len(targets))]
        duration = rng.uniform(OUTAGE_MIN, OUTAGE_MAX) * horizon_s
        floor = max(last_end.values(), default=0.0) if serialize \
            else last_end.get(target, 0.0)
        start_lo = max(0.1 * horizon_s, floor)
        start_hi = 0.8 * horizon_s - duration
        if start_hi <= start_lo:
            # No room left on this target this draw; skip rather than
            # overlap.  Deterministic: the rng stream already advanced.
            continue
        at = rng.uniform(start_lo, start_hi)
        add(target, round(at, 6), round(duration, 6))
        last_end[target] = at + duration + 0.02 * horizon_s


def sample_chaos(seed: int, horizon_s: float,
                 nodes: Sequence[str], edges: Sequence[str],
                 channels: Sequence[str] = (),
                 processes: Sequence[str] = (),
                 profile: str | ChaosProfile = "gentle") -> FaultPlan:
    """Draw one validated fault plan from ``Random(seed)``."""
    if isinstance(profile, str):
        try:
            prof = PROFILES[profile]
        except KeyError:
            raise SimulationError(
                f"unknown chaos profile {profile!r} "
                f"(one of: {sorted(PROFILES)})") from None
    else:
        prof = profile
    if horizon_s <= 0:
        raise SimulationError(f"chaos horizon must be positive, got {horizon_s}")
    rng = random.Random(f"soak-chaos:{seed}:{prof.name}")
    node_plan = FaultPlan(seed=seed)
    if nodes and prof.node_outages:
        _sample_outages(node_plan, rng, "node-outage", list(nodes),
                        prof.node_outages, horizon_s,
                        serialize=prof.serialize_nodes)
    edge_plan = FaultPlan(seed=seed)
    if edges:
        _sample_outages(edge_plan, rng, "edge-cache-outage", list(edges),
                        EDGE_OUTAGES, horizon_s)
    extra = FaultPlan(seed=seed)
    for name in list(channels)[:prof.loss_channels]:
        extra.channel_loss(name, rate=prof.loss_rate,
                           jitter_s=round(rng.uniform(0.0, 0.001), 6))
    if processes and prof.process_crashes:
        victims = list(processes)
        for _ in range(prof.process_crashes):
            target = victims[rng.randrange(len(victims))]
            extra.process_crash(target,
                                round(rng.uniform(0.2, 0.7) * horizon_s, 6))
    return FaultPlan.merge(node_plan, edge_plan, extra, seed=seed)
