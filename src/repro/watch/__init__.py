"""``repro.watch`` — the always-on supervision layer.

Sits on top of :mod:`repro.obs` and closes the loop from *observing* the
simulated AV database to *supervising* it:

* :mod:`repro.watch.slo` — declarative SLOs (latency quantiles, miss
  budgets, replication floors) evaluated in virtual time, normalized to
  error-budget **burn** per SLO class;
* :mod:`repro.watch.invariants` — conservation laws re-derived from
  component internals (reservation conservation, extent wholeness, bit
  conservation, replication, process accounting) on a cadence and at
  teardown;
* :mod:`repro.watch.recorder` — deterministic postmortem bundles
  (breaches + SLO report + decision/trace tails + metrics + component
  state), byte-identical across reruns of a seeded scenario;
* :mod:`repro.watch.watchdog` — the composition: a cadence process that
  checks invariants, evaluates SLOs, and fails the run fast on breach;
* :mod:`repro.watch.explain` — causal chains over the
  :class:`~repro.obs.DecisionLog` (``python -m repro explain``);
* :mod:`repro.watch.scenarios` — the ``python -m repro watch`` registry.

The decision log itself lives in :mod:`repro.obs.decisions` (the
emitters are below the watch layer); it is re-exported here because the
watch layer is its primary consumer.
"""

from repro.errors import InvariantBreachError, SLOViolationError, WatchError
from repro.obs.decisions import DecisionEvent, DecisionLog
from repro.watch.explain import (
    describe,
    explain_report,
    render_event,
    subjects_summary,
)
from repro.watch.invariants import Breach, InvariantMonitor
from repro.watch.recorder import FlightRecorder, component_state
from repro.watch.scenarios import SCENARIOS, summary_line
from repro.watch.slo import SLOEngine, SLOResult, SLOSpec, default_slos
from repro.watch.watchdog import Watchdog

__all__ = [
    "Breach",
    "DecisionEvent",
    "DecisionLog",
    "FlightRecorder",
    "InvariantBreachError",
    "InvariantMonitor",
    "SCENARIOS",
    "SLOEngine",
    "SLOResult",
    "SLOSpec",
    "SLOViolationError",
    "Watchdog",
    "WatchError",
    "component_state",
    "default_slos",
    "describe",
    "explain_report",
    "render_event",
    "subjects_summary",
    "summary_line",
]
