"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is a declarative schedule of faults against named
targets — storage devices, the disk scheduler, network channels, and
processes.  Plans are pure data: nothing happens until a
:class:`~repro.faults.injector.FaultInjector` arms the plan against live
components.  Because every time and parameter is fixed (either written
explicitly or drawn from a seeded generator at *plan-build* time, as
:func:`repro.soak.sample_chaos` does),
the same plan replays the identical fault schedule on every run — which
is what lets ``bench_fault_recovery.py`` compare recovery policies under
byte-identical adversity.

Fault kinds
-----------
``device-outage``
    The device serves no transfers during ``[at, at + duration)``.  In
    ``wait`` mode a transfer that hits the window blocks until it ends;
    in ``error`` mode it raises :class:`~repro.errors.DeviceFaultError`.
``device-slowdown``
    Transfers starting inside the window take ``factor``× as long.
``scheduler-outage``
    ``DiskScheduler.stop()`` fires at ``at`` (failing queued requests)
    and, when ``duration`` > 0, ``start()`` fires at ``at + duration``.
``scheduler-slowdown``
    The scheduler's ``service_scale`` is ``factor`` during the window.
``channel-loss``
    Each transmission is dropped with probability ``rate`` (seeded,
    deterministic) and jittered by up to ``jitter_s``; ``retransmit``
    mode recovers at the link layer (costing wire time), ``error`` mode
    surfaces :class:`~repro.errors.ChannelFaultError`.
``process-crash``
    ``Process.interrupt(FaultError(...))`` at ``at``.
``process-hang``
    ``Process.abandon()`` at ``at`` — the process wedges forever.
``node-outage``
    ``StorageNode.kill()`` fires at ``at`` (the node's scheduler stops,
    failing queued requests; its replicas go dead) and, when
    ``duration`` > 0, ``restore()`` fires at ``at + duration``.
``edge-cache-outage``
    ``EdgeCacheNode.kill()`` fires at ``at`` (the edge's RAM cache dies
    with it; readers degrade to pass-through or re-attach to a surviving
    edge) and, when ``duration`` > 0, ``restore()`` brings the edge back
    cold at ``at + duration``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import SimulationError

KINDS = (
    "device-outage", "device-slowdown",
    "scheduler-outage", "scheduler-slowdown",
    "channel-loss",
    "process-crash", "process-hang",
    "node-outage",
    "edge-cache-outage",
)

#: kinds whose [at, at+duration) window takes a target *down*; two such
#: windows on the same target cannot disagree about when it comes back.
OUTAGE_KINDS = frozenset((
    "device-outage", "scheduler-outage", "node-outage", "edge-cache-outage",
))


@dataclass(frozen=True, slots=True)
class Fault:
    """One scheduled fault against one named target."""

    kind: str
    target: str
    at: float = 0.0
    duration: float = 0.0
    factor: float = 1.0      # slowdown multiplier
    rate: float = 0.0        # loss probability (channel-loss)
    jitter_s: float = 0.0    # max injected jitter per transmission
    mode: str = "wait"       # outage/loss handling: "wait"/"retransmit"/"error"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SimulationError(f"unknown fault kind {self.kind!r} (one of {KINDS})")
        if self.at < 0 or self.duration < 0:
            raise SimulationError(f"fault times must be >= 0 ({self})")
        if not 0.0 <= self.rate <= 0.95:
            raise SimulationError(
                f"loss rate must be in [0, 0.95], got {self.rate} "
                "(higher rates make expected retransmission counts explode)"
            )
        if self.factor < 1.0:
            raise SimulationError(f"slowdown factor must be >= 1, got {self.factor}")

    def describe(self) -> str:
        parts = [f"t={self.at:g}s {self.kind} on {self.target!r}"]
        if self.duration:
            parts.append(f"for {self.duration:g}s")
        if self.kind.endswith("slowdown"):
            parts.append(f"x{self.factor:g}")
        if self.kind == "channel-loss":
            parts.append(f"loss={self.rate:.0%} jitter<={self.jitter_s:g}s ({self.mode})")
        elif self.kind.endswith("outage"):
            parts.append(f"({self.mode})")
        return " ".join(parts)


@dataclass
class FaultPlan:
    """An ordered, seeded schedule of faults.

    The ``seed`` seeds the per-channel loss/jitter streams at arm time,
    so a plan is fully determined by ``(seed, faults)``.
    """

    seed: int = 0
    faults: List[Fault] = field(default_factory=list)

    # -- builders ----------------------------------------------------------
    def add(self, fault: Fault) -> "FaultPlan":
        self.faults.append(fault)
        return self

    def device_outage(self, target: str, at: float, duration: float,
                      mode: str = "wait") -> "FaultPlan":
        return self.add(Fault("device-outage", target, at, duration, mode=mode))

    def device_slowdown(self, target: str, at: float, duration: float,
                        factor: float) -> "FaultPlan":
        return self.add(Fault("device-slowdown", target, at, duration, factor=factor))

    def scheduler_outage(self, target: str, at: float,
                         duration: float = 0.0) -> "FaultPlan":
        """Stop the scheduler at ``at``; restart after ``duration`` (0 = never)."""
        return self.add(Fault("scheduler-outage", target, at, duration))

    def scheduler_slowdown(self, target: str, at: float, duration: float,
                           factor: float) -> "FaultPlan":
        return self.add(Fault("scheduler-slowdown", target, at, duration, factor=factor))

    def channel_loss(self, target: str, rate: float, jitter_s: float = 0.0,
                     mode: str = "retransmit") -> "FaultPlan":
        if mode not in ("retransmit", "error"):
            raise SimulationError(f"channel loss mode must be 'retransmit' or 'error', got {mode!r}")
        return self.add(Fault("channel-loss", target, rate=rate,
                              jitter_s=jitter_s, mode=mode))

    def node_outage(self, target: str, at: float,
                    duration: float = 0.0) -> "FaultPlan":
        """Kill a storage node at ``at``; restore after ``duration`` (0 = never)."""
        return self.add(Fault("node-outage", target, at, duration))

    def edge_cache_outage(self, target: str, at: float,
                          duration: float = 0.0) -> "FaultPlan":
        """Kill an edge cache at ``at``; restore after ``duration`` (0 = never)."""
        return self.add(Fault("edge-cache-outage", target, at, duration))

    def process_crash(self, target: str, at: float) -> "FaultPlan":
        return self.add(Fault("process-crash", target, at))

    def process_hang(self, target: str, at: float) -> "FaultPlan":
        return self.add(Fault("process-hang", target, at))

    # -- composition -------------------------------------------------------
    @classmethod
    def merge(cls, *plans: "FaultPlan", seed: int | None = None) -> "FaultPlan":
        """Combine plans into one deterministic, validated schedule.

        The merged plan's faults are the concatenation of every input's,
        sorted by ``(at, kind, target)``; exact duplicates collapse to
        one entry (two plans agreeing on the same fault is agreement,
        not contradiction).  ``seed`` defaults to the first plan's seed
        — per-channel loss/jitter streams are keyed by ``(seed,
        target)``, so merging never reshuffles an armed loss model.
        The result is :meth:`validate`-d; contradictory inputs raise
        :class:`~repro.errors.SimulationError` instead of producing a
        schedule whose arm-time behaviour depends on heap tie-breaks.
        """
        if not plans:
            raise SimulationError("FaultPlan.merge() needs at least one plan")
        merged_seed = plans[0].seed if seed is None else seed
        seen = set()
        faults: List[Fault] = []
        for plan in plans:
            for fault in plan.faults:
                if fault not in seen:
                    seen.add(fault)
                    faults.append(fault)
        return cls(seed=merged_seed, faults=faults).sort().validate()

    def validate(self) -> "FaultPlan":
        """Reject contradictory schedules; return self when coherent.

        Two outage windows on the same target must not overlap unless
        they are the *same* window: interleaved kill/restore pairs with
        conflicting restore times would leave the component's end state
        dependent on event-queue tie-breaks (e.g. outage A restores at
        t=2 while overlapping outage B says the target is down until
        t=3).  A ``duration`` of 0 means "never restored", which
        conflicts with any later outage of the same target.  A channel
        may carry at most one loss model (the injector enforces this at
        arm time; validating the plan surfaces it before a run is
        half-built).
        """
        windows: Dict[tuple, List[Fault]] = {}
        for fault in self.faults:
            if fault.kind in OUTAGE_KINDS:
                windows.setdefault((fault.kind, fault.target), []).append(fault)
        for (kind, target), group in sorted(windows.items()):
            group.sort(key=lambda f: f.at)
            for prev, cur in zip(group, group[1:]):
                prev_end = float("inf") if prev.duration == 0 \
                    else prev.at + prev.duration
                if cur.at < prev_end and (cur.at, cur.duration) != \
                        (prev.at, prev.duration):
                    raise SimulationError(
                        f"contradictory fault plan: overlapping {kind} "
                        f"windows on {target!r} with conflicting restore "
                        f"times ({prev.describe()} vs {cur.describe()})"
                    )
        loss_targets: Dict[str, Fault] = {}
        for fault in self.faults:
            if fault.kind != "channel-loss":
                continue
            prior = loss_targets.get(fault.target)
            if prior is not None and prior != fault:
                raise SimulationError(
                    f"contradictory fault plan: channel {fault.target!r} "
                    f"has two different loss models"
                )
            loss_targets[fault.target] = fault
        return self

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain data, stable field order — the chaos-search artifact."""
        return {
            "seed": self.seed,
            "faults": [
                {"kind": f.kind, "target": f.target, "at": f.at,
                 "duration": f.duration, "factor": f.factor,
                 "rate": f.rate, "jitter_s": f.jitter_s, "mode": f.mode}
                for f in self.faults
            ],
        }

    # -- inspection --------------------------------------------------------
    def sort(self) -> "FaultPlan":
        self.faults.sort(key=lambda f: (f.at, f.kind, f.target))
        return self

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)
