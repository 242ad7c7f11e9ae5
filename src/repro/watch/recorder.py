"""Flight recorder: deterministic postmortem bundles.

When an invariant breaches or a hard SLO fails, the interesting state is
*what just happened*, not the whole run.  The :class:`FlightRecorder`
assembles a **postmortem bundle** — a plain-data dict holding the breach
evidence, the SLO report, the tail of the decision log, the tail of the
trace (canonical: wall-clock stamps stripped), the full metrics
snapshot, and a state dump of every armed component — and serializes it
with sorted keys so two runs of the same seeded scenario produce
**byte-identical** bundles (the determinism CI job diffs exactly that).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs import Obs

PathLike = Union[str, Path]

#: bundle tail sizes — enough context to reconstruct the causal
#: neighbourhood of a failure without shipping the whole run.
TRACE_TAIL = 256
DECISION_TAIL = 128


def _canonical_trace_event(event) -> Dict[str, object]:
    """A trace event without its wall-clock stamps (determinism)."""
    out: Dict[str, object] = {
        "phase": event.phase, "name": event.name,
        "category": event.category, "track": event.track, "ts": event.ts,
    }
    if event.dur is not None:
        out["dur"] = event.dur
    if event.args:
        out["args"] = dict(event.args)
    return out


def component_state(obj) -> Dict[str, object]:
    """A plain-data dump of one armed component's observable state: a
    channel, admission controller, extent allocator, cache tier or
    cluster, what ``Watchdog.arm`` tracks (anything else: its type)."""
    state: Dict[str, object] = {"type": type(obj).__name__}
    # Channels
    if hasattr(obj, "capacity_bps") and hasattr(obj, "_reservations"):
        state.update({
            "name": obj.name,
            "capacity_bps": obj.capacity_bps,
            "reserved_bps": obj.reserved_bps,
            "total_bits": obj.total_bits,
            "reservations": [
                {"label": r.label, "bps": r.bps,
                 "released": r.released, "preempted": r.preempted}
                for r in sorted(obj._reservations.values(),
                                key=lambda r: r.id)
            ],
        })
    # Admission controllers
    elif hasattr(obj, "queue_depth") and hasattr(obj, "_held"):
        state.update({
            "name": obj.name,
            "channel": obj.channel.name,
            "utilization": round(obj.utilization, 6),
            "queue_depth": obj.queue_depth,
            "held": sorted(r.label for r, _ in obj._held.values()),
        })
    # Extent allocators
    elif hasattr(obj, "capacity_bytes") and hasattr(obj, "_free"):
        state.update({
            "name": obj.device_name,
            "capacity_bytes": obj.capacity_bytes,
            "free_bytes": obj.free_bytes,
            "used_bytes": obj.used_bytes,
            "free_ranges": len(obj._free),
            "allocated_extents": len(obj._allocated),
        })
    # Cache tiers
    elif hasattr(obj, "all_caches") and hasattr(obj, "edges"):
        state.update({
            "policy": obj.policy_name,
            "edges": [
                {"name": e.name, "live": e.live,
                 "resident_blocks": e.cache.resident_blocks,
                 "bits_served": e.bits_served,
                 "bits_filled": e.bits_filled}
                for e in obj.edges
            ],
            "node_caches": [
                {"name": c.name, "resident_blocks": c.resident_blocks,
                 "bytes_used": c.bytes_used}
                for c in obj.node_caches
            ],
            "hot_keys": sorted(obj.detector.hot_keys),
        })
    # Cluster placement managers
    elif hasattr(obj, "live_nodes") and hasattr(obj, "placements"):
        state.update({
            "nodes": [n.name for n in obj.nodes],
            "live_nodes": [n.name for n in obj.live_nodes],
            "placements": len(obj.placements),
            "under_replicated": sorted(
                s.key for _, s in obj.under_replicated()),
            "failovers": obj.failovers,
        })
    return state


class FlightRecorder:
    """Bounded-tail recorder over one observability scope."""

    def __init__(self, obs: Obs) -> None:
        self.obs = obs
        self._components: List = []
        self.bundles: List[Dict[str, object]] = []

    def track(self, *components) -> "FlightRecorder":
        """Add components whose state lands in every bundle."""
        self._components.extend(components)
        return self

    # -- bundle assembly ---------------------------------------------------
    def bundle(self, reason: str, at_s: float,
               breaches: List = (),
               slo_report: Optional[Dict[str, object]] = None,
               failure: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Assemble one postmortem bundle (plain data, deterministic).

        ``failure`` carries crash evidence (process name, exception type
        and message) when the bundle documents an unhandled scenario
        exception rather than an invariant/SLO breach.
        """
        decisions = self.obs.decisions
        tracer = self.obs.tracer
        doc: Dict[str, object] = {
            "bundle": "repro.watch postmortem",
            "reason": reason,
            "at_s": round(at_s, 9),
            "failure": failure if failure is not None else {},
            "breaches": [b.to_dict() for b in breaches],
            "slo": slo_report if slo_report is not None else {},
            "decisions": [
                e.to_dict()
                for e in (decisions.events[-DECISION_TAIL:]
                          if decisions.enabled else [])
            ],
            "trace_tail": [
                _canonical_trace_event(e)
                for e in (tracer.events[-TRACE_TAIL:]
                          if tracer.enabled else [])
            ],
            "metrics": self.obs.metrics.snapshot(),
            "components": [component_state(c) for c in self._components],
        }
        self.bundles.append(doc)
        return doc

    # -- serialization -----------------------------------------------------
    @staticmethod
    def to_bytes(doc: Dict[str, object]) -> bytes:
        """Deterministic serialization: sorted keys, no wall-clock data."""
        return json.dumps(doc, sort_keys=True, indent=1).encode()

    @staticmethod
    def sha256(doc: Dict[str, object]) -> str:
        return hashlib.sha256(FlightRecorder.to_bytes(doc)).hexdigest()

    def dump(self, doc: Dict[str, object], path: PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.to_bytes(doc) + b"\n")
        return path
