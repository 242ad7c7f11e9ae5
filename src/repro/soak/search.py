"""Chaos search: sweep perturbation seeds, minimize what breaks.

``chaos_search`` runs the broadcast day under a sequence of chaos
seeds (each a full :func:`~repro.soak.chaos.sample_chaos` draw) and
watches for a **failure signature**: an invariant breach, an
unhandled scenario exception, or any QoS violation among admitted
interactive sessions.  On the first failing seed it delta-debugs the
fault schedule (:func:`~repro.soak.ddmin.ddmin` over the plan's
:class:`~repro.faults.plan.Fault` entries, one deterministic re-run
per probe), then **replays** the minimized plan with postmortem
bundles armed and writes the artifacts:

* ``minimized-plan.json`` — the minimal failing
  :meth:`~repro.faults.plan.FaultPlan.to_dict`;
* ``search-report.json`` — seeds tried, ddmin probe economy, and the
  replay's breach facts;
* ``postmortem-*.json`` — the watchdog's bundle from the replay.

Every run gets a fresh observability scope, so probe N's counters
never leak into probe N+1 — which is also what makes the sweep's
facts byte-identical across re-runs of the same arguments.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.obs import scoped
from repro.soak.ddmin import ddmin
from repro.soak.phases import PhaseSpec
from repro.soak.scenarios import day, day_chaos_plan, plan_sha256

#: a chaos seed whose gentle draw overlaps a ``node-1`` outage with an
#: ``edge-0`` outage — with ``plant_leak`` that is the 2-fault core the
#: CI search probe must recover.  Found by sweep, pinned for CI.
SEARCH_DEMO_SEED = 4


def _failing(facts: Dict[str, object]) -> bool:
    """The search's failure signature over one run's facts."""
    return (int(facts["invariant_breaches"]) > 0
            or facts["unhandled_failure"] != "none"
            or int(facts["interactive_violations"]) > 0)


def chaos_search(chaos_seeds: Iterable[int] = range(32), seed: int = 0,
                 phases: Optional[Sequence[PhaseSpec]] = None,
                 scale: float = 1.0, profile: str = "gentle",
                 plant_leak: bool = False,
                 out_dir: Optional[str] = None) -> Dict[str, object]:
    """Sweep chaos seeds; minimize and replay the first failure found."""

    def run(plan: FaultPlan, bundle_dir: Optional[str] = None):
        with scoped(tracing=False):
            return day(seed=seed, phases=phases, scale=scale,
                       fault_plan=plan, plant_leak=plant_leak,
                       bundle_dir=bundle_dir)

    tried: List[int] = []
    failing_seed: Optional[int] = None
    plan: Optional[FaultPlan] = None
    for chaos_seed in chaos_seeds:
        tried.append(chaos_seed)
        plan = day_chaos_plan(seed, chaos_seed, phases=phases, scale=scale,
                              profile=profile)
        facts = run(plan)
        if _failing(facts):
            failing_seed = chaos_seed
            break
    if failing_seed is None:
        return {
            "failing_seed": "none",
            "seeds_tried": len(tried),
            "schedule_len": 0,
            "minimized_len": 0,
            "ddmin_probes": 0,
            "replay_failing": False,
        }

    minimal, stats = ddmin(
        list(plan.faults),
        lambda faults: _failing(
            run(FaultPlan(seed=plan.seed, faults=list(faults)).sort())))
    minimized = FaultPlan(seed=plan.seed, faults=list(minimal)).sort()
    replay = run(minimized, bundle_dir=out_dir)

    report: Dict[str, object] = {
        "failing_seed": failing_seed,
        "seeds_tried": len(tried),
        "schedule_len": len(plan),
        "schedule_sha256": plan_sha256(plan),
        "minimized_len": len(minimized),
        "minimized_sha256": plan_sha256(minimized),
        "minimized_schedule": "; ".join(f.describe()
                                        for f in minimized.faults),
        "ddmin_probes": stats["probes"],
        "ddmin_passes": stats["passes"],
        "ddmin_cache_hits": stats["cache_hits"],
        "max_pass_probes": stats["max_pass_probes"],
        "probe_bound": 2 * len(plan),
        "replay_failing": _failing(replay),
        "replay_breach_invariant": replay["breach_invariant"],
        "replay_breach_component": replay["breach_component"],
        "replay_bundles": replay["bundles_written"],
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        plan_path = out / "minimized-plan.json"
        plan_path.write_text(
            json.dumps(minimized.to_dict(), sort_keys=True, indent=1) + "\n")
        report_path = out / "search-report.json"
        report_path.write_text(
            json.dumps(report, sort_keys=True, indent=1) + "\n")
        report["plan_path"] = str(plan_path)
        report["report_path"] = str(report_path)
    return report
