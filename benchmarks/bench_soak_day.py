"""Exp. R5 — broadcast-day soak: survive seeded chaos, minimize what breaks.

The ``day`` scenario composes every prior subsystem into one long-horizon
broadcast day — live newscast viewers, a Zipf VOD crowd through the cache
tier, BACKGROUND editing batches, overnight maintenance — supervised end
to end by ``repro.watch`` while a seeded gentle chaos plan kills storage
nodes and edge caches under it.  The chaos-*search* harness then proves
the debugging loop closes: with the planted failover leak armed, the
sweep finds the failing chaos seed and ddmin reduces its fault schedule
to the known two-fault core, whose replay deterministically reproduces
the breach and writes the postmortem artifacts.

Gates:

* the gentle-chaos day survives clean: zero invariant breaches, zero QoS
  violations among admitted *interactive* sessions, no unhandled
  exception, nothing stranded after drain — with every planned fault
  actually injected (a quiet chaos plan proves nothing);
* determinism: a second run with the same seed reproduces every fact and
  summary line byte-for-byte (timeline and fault-schedule digests
  included);
* the search minimizes the planted breach to exactly the two overlapping
  outages (``node-outage`` on node-1 + ``edge-cache-outage`` on edge-0),
  the minimized schedule *replays* the breach, and ddmin's probe economy
  stays within the per-pass bound (< 2x the schedule length);
* a second search run returns the identical minimized schedule and probe
  counts — the reduction itself is deterministic.

Run the gates with ``python -m pytest benchmarks/bench_soak_day.py -q``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.obs import scoped
from repro.soak import SEARCH_DEMO_SEED, chaos_search, day, summary_line

SEED = 0
#: the minimal failing schedule the search must recover with the leak
#: planted: the two outages whose overlap arms the failover bug.
EXPECTED_CORE = {("node-outage", "node-1"), ("edge-cache-outage", "edge-0")}


def run_all(seed: int) -> Tuple[Dict[str, Dict[str, object]],
                                Dict[str, str]]:
    """One full pass: the supervised day, then the planted-leak search."""
    results: Dict[str, Dict[str, object]] = {}
    summaries: Dict[str, str] = {}
    # Fresh observability scope per run: soak counters must not bleed
    # between the day and the search's probe runs.
    with scoped(tracing=False):
        results["day"] = day(seed=seed)
    summaries["day"] = summary_line("day", results["day"])
    results["search"] = chaos_search(chaos_seeds=[SEARCH_DEMO_SEED],
                                     seed=seed, plant_leak=True)
    return results, summaries


def check(results: Dict[str, Dict[str, object]]) -> list:
    """Evaluate the gates; return the list of failures."""
    failures = []
    facts = results["day"]
    if int(facts["invariant_breaches"]) != 0:
        failures.append(
            f"day: {facts['invariant_breaches']} invariant breach(es) "
            f"({facts['breach_invariant']} on {facts['breach_component']}; "
            f"gate: 0)")
    if int(facts["interactive_violations"]) != 0:
        failures.append(
            f"day: {facts['interactive_violations']} QoS violations among "
            f"admitted interactive sessions (gate: 0)")
    if facts["unhandled_failure"] != "none":
        failures.append(f"day: unhandled {facts['unhandled_failure']}")
    if int(facts["stranded_processes"]) != 0:
        failures.append(f"day: {facts['stranded_processes']} stranded "
                        f"processes after drain")
    if not int(facts["faults_planned"]) or \
            int(facts["faults_injected"]) != int(facts["faults_planned"]):
        failures.append(
            f"day: {facts['faults_injected']} of {facts['faults_planned']} "
            f"planned faults injected — the chaos plan must actually bite")
    report = results["search"]
    if report["failing_seed"] != SEARCH_DEMO_SEED:
        failures.append(f"search: planted leak not found at chaos seed "
                        f"{SEARCH_DEMO_SEED} (got {report['failing_seed']})")
        return failures
    core = {(f["kind"], f["target"])
            for f in report["minimized_plan"]["faults"]} \
        if "minimized_plan" in report else None
    if int(report["minimized_len"]) != len(EXPECTED_CORE):
        failures.append(
            f"search: minimized to {report['minimized_len']} fault(s), "
            f"expected {len(EXPECTED_CORE)}: {report['minimized_schedule']}")
    elif core is not None and core != EXPECTED_CORE:
        failures.append(f"search: minimized core {sorted(core)} != "
                        f"expected {sorted(EXPECTED_CORE)}")
    if report["replay_failing"] is not True:
        failures.append("search: the minimized schedule does not replay "
                        "the breach")
    if int(report["max_pass_probes"]) >= int(report["probe_bound"]):
        failures.append(
            f"search: {report['max_pass_probes']} probes in one ddmin pass "
            f"(bound: < {report['probe_bound']})")
    return failures


def exhibit_text(results: Dict[str, Dict[str, object]]) -> str:
    facts = results["day"]
    report = results["search"]
    lines = [
        "Exp. R5 — broadcast-day soak with seeded chaos search",
        f"(workload seed {SEED}; {facts['phases']} phases / "
        f"{facts['horizon_s']}s horizon: {facts['phase_names']})",
        "",
        f"  workload: {facts['timeline_events']} timeline events — "
        f"{facts['vod_sessions']} VOD sessions "
        f"({facts['vod_admitted']} admitted), "
        f"{facts['live_viewers']} live viewers "
        f"({facts['live_elements']} elements), "
        f"{facts['edit_jobs']} edit batches ({facts['edit_done']} done), "
        f"{facts['version_bumps']} maintenance bumps",
        f"  chaos:    {facts['faults_planned']} faults planned / "
        f"{facts['faults_injected']} injected "
        f"({facts['node_deaths']} node deaths, "
        f"{facts['edge_deaths']} edge deaths); "
        f"{facts['failovers']} failovers, {facts['repairs']} repairs",
        f"  health:   {facts['invariant_breaches']} invariant breaches "
        f"(gate: 0), {facts['interactive_violations']} interactive QoS "
        f"violations (gate: 0), hit ratio {facts['hit_ratio']}, "
        f"{facts['invariant_checks']} invariant checks",
        "",
        f"  search (planted failover leak, chaos seed {SEARCH_DEMO_SEED}):",
        f"    schedule {report['schedule_len']} faults -> minimized "
        f"{report['minimized_len']} in {report['ddmin_probes']} probes "
        f"across {report['ddmin_passes']} passes "
        f"(max {report['max_pass_probes']}/pass, bound < "
        f"{report['probe_bound']}; {report['ddmin_cache_hits']} cache hits)",
        f"    minimal core: {report['minimized_schedule']}",
        f"    replay: failing={report['replay_failing']}, breach="
        f"{report['replay_breach_invariant']} on "
        f"{report['replay_breach_component']}, "
        f"{report['replay_bundles']} postmortem bundle(s)",
        "",
        "gates: clean supervised day under gentle chaos, byte-identical "
        "rerun, two-fault minimized core, breach replays, ddmin probe "
        "bound",
    ]
    return "\n".join(lines)


def test_soak_day_survives_and_search_minimizes(exhibit):
    first, first_lines = run_all(SEED)
    second, second_lines = run_all(SEED)
    failures = check(first)
    exhibit("soak_day", exhibit_text(first))
    assert first["day"] == second["day"], "soak day is not deterministic"
    assert first_lines == second_lines, (
        "soak summary lines are not deterministic across runs")
    for key in ("minimized_sha256", "minimized_schedule", "ddmin_probes",
                "ddmin_passes", "max_pass_probes"):
        assert first["search"][key] == second["search"][key], (
            f"chaos search is not deterministic: {key}")
    assert not failures, "; ".join(failures)
