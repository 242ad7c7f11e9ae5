"""``python -m repro`` — a one-minute tour, plus observability commands.

With no arguments, prints the version, the Table 1 activity catalog from
the live classes, the Fig. 1 timeline, and runs the quickstart stream,
so a fresh checkout can be sanity-checked with a single command.

``python -m repro trace <scenario>`` runs a named scenario with tracing
enabled and writes a Chrome ``trace_event`` file (load it in Perfetto or
``chrome://tracing``), a JSONL event log, and a plain-text metrics
summary.

``python -m repro faults <scenario>`` runs a named fault-injection
scenario (seeded, deterministic) and prints delivered-vs-negotiated QoS
plus the ``faults.*`` counters; ``--compare`` runs it both with and
without recovery under the identical fault schedule.

``python -m repro overload <scenario>`` runs a named multi-client
overload scenario through the admission controller and prints goodput,
shedding, preemption and breaker facts plus a deterministic summary
line; ``--no-admission`` runs the uncontrolled baseline and
``--compare`` runs both regimes under the identical offered load.

``python -m repro cluster <scenario>`` runs a named scale-out storage
scenario (read storm, node-kill failover, rebalance-after-join) against
a simulated N-node cluster and prints throughput/failover/repair facts
plus a deterministic summary line.

``python -m repro cache <scenario>`` runs a named cache-tier scenario
(Zipf flash crowd, version churn) through the two-level block cache
hierarchy in front of the cluster and prints goodput/hit-ratio facts
plus a deterministic summary line; ``--no-cache`` runs the cache-less
baseline and ``--compare`` runs both under the identical workload.

``python -m repro watch <scenario>`` runs a named supervision scenario
under the ``repro.watch`` layer (SLO engine + invariant monitor +
flight recorder) and prints error-budget burn, breach facts and a
deterministic summary line; ``--bundle-dir`` writes postmortem bundles.

``python -m repro herd <scenario>`` runs a hybrid herd scenario:
foreground interactive sessions as full discrete processes, plus a
vectorized client herd (seeded Zipf popularity + Poisson arrivals)
advanced per epoch through the same admission controller and edge-cache
model; ``--clients N`` scales the crowd and ``--compare-discrete`` runs
the scaled-down herd-vs-discrete equivalence probe alongside.

``python -m repro soak day`` runs the composed broadcast-day soak
scenario (live newscast + VOD Zipf crowd + editing batches + overnight
maintenance) under seeded chaos with the full watch stack supervising;
``python -m repro soak search`` sweeps chaos seeds for a failure and
delta-debugs the fault schedule to a minimal, replayable core.

``python -m repro query <scenario>`` runs a named annotation-query
scenario: loads a seeded corpus into the typed annotation store, runs
its temporal-query battery through the cost-based planner, cross-checks
index-backed vs scan execution row-for-row, and prints the facts plus a
deterministic summary line; ``--mode index|scan`` forces one path.

``python -m repro explain <scenario> --session <id>`` reruns a scenario
with the decision log armed and reconstructs the causal decision chain
for one session (admitted -> degraded -> preempted -> failed over ...);
without ``--session`` it lists every subject and its verdict history.

``python -m repro profile <scenario>`` runs any named scenario (bare,
or qualified ``<family>-<name>``: the :mod:`repro.scenarios` table)
under cProfile and prints the top-N hotspot report — the entry point
for finding the next optimization target (see DESIGN.md "Performance").
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import repro
from repro.activities.library import ActivityCatalog
from repro.scenarios import (
    FAMILIES, lookup_scenario, positive, print_facts, run_family, table,
)
from repro.synth import fig1_timeline


def tour() -> None:
    """Print the tour: version, Table 1, Fig. 1, a quickstart stream."""
    from repro.obs.scenarios import quickstart

    print(f"repro {repro.__version__} — an AV database system")
    print("(Gibbs, Breiteneder & Tsichritzis, ICDE 1993)\n")

    print("Table 1 — the activity catalog:\n")
    print(ActivityCatalog.table(include_audio=True))

    print("\nFig. 1 — a Newscast.clip timeline:\n")
    print(fig1_timeline().render_ascii(width=50))

    print("\nquickstart stream:")
    facts = quickstart()
    print(f"  presented {facts['frames_presented']} frames in "
          f"{facts['virtual_seconds']:.2f}s of virtual time; "
          f"{facts['bytes_on_channel']:,} bytes over the channel")
    print("\nsee README.md, examples/ and `pytest benchmarks/ --benchmark-only`")


def trace(args) -> int:
    """Run a scenario under a tracing scope and export trace + summary."""
    from repro.obs import canonical_trace_bytes, current, scoped
    from repro.obs.export import write_chrome_trace, write_jsonl, write_summary

    scenario_name, out_dir = args.scenario, args.out
    if lookup_scenario("trace", scenario_name, table()) is None:
        return 2

    out_dir.mkdir(parents=True, exist_ok=True)
    with scoped(tracing=True):
        facts = table()[scenario_name].run()
        obs = current()
        trace_path = out_dir / f"{scenario_name}.trace.json"
        jsonl_path = out_dir / f"{scenario_name}.events.jsonl"
        summary_path = out_dir / f"{scenario_name}.summary.txt"
        write_chrome_trace(obs.tracer, trace_path, obs.metrics)
        write_jsonl(obs.tracer, jsonl_path)
        write_summary(obs.metrics, summary_path, obs.tracer,
                      title=f"scenario: {scenario_name}")
        canonical_path = None
        if args.canonical:
            # Wall-clock stamps stripped, keys sorted: two runs of the
            # same scenario produce byte-identical files, which is what
            # tests/test_determinism.py hashes.
            canonical_path = out_dir / f"{scenario_name}.canonical.json"
            canonical_path.write_bytes(
                canonical_trace_bytes(obs.tracer, obs.metrics))
        events = len(obs.tracer.events)

    print_facts(f"scenario {scenario_name!r}:", facts)
    print(f"{events} trace events")
    print(f"wrote {trace_path}  (open in Perfetto / chrome://tracing)")
    print(f"wrote {jsonl_path}")
    print(f"wrote {summary_path}")
    if canonical_path is not None:
        print(f"wrote {canonical_path}")
    return 0


def soak(args) -> int:
    """Run the broadcast-day soak, or the chaos search over it."""
    from repro.obs import scoped
    from repro.soak import chaos_search, day, default_day, summary_line
    from repro.soak.search import _failing

    specs = None
    if args.phases:
        by_name = {spec.name: spec for spec in default_day()}
        wanted = [n.strip() for n in args.phases.split(",") if n.strip()]
        unknown = [n for n in wanted if n not in by_name]
        if unknown:
            print(f"unknown phase(s) {', '.join(unknown)}; "
                  f"pick from: {', '.join(by_name)}", file=sys.stderr)
            return 2
        specs = tuple(by_name[n] for n in wanted)

    if args.action == "day":
        # A fresh observability scope per run keeps soak.* counters
        # from bleeding between runs in one process.
        with scoped(tracing=FAMILIES["soak"].tracing):
            facts = day(seed=args.seed, phases=specs, scale=args.scale,
                        chaos=not args.no_chaos, chaos_seed=args.chaos_seed,
                        profile=args.profile, plant_leak=args.plant_leak,
                        bundle_dir=args.bundle_dir)
        print_facts(f"soak day (seed {args.seed}, "
                    f"{'no chaos' if args.no_chaos else args.profile}):",
                    facts)
        print(summary_line("day", facts))
        # Non-zero exit on the failure signature so CI can gate on the
        # clean-day acceptance criterion directly.
        return 1 if _failing(facts) else 0

    seeds = ([args.chaos_seed] if args.chaos_seed is not None
             else range(args.chaos_seeds))
    report = chaos_search(chaos_seeds=seeds, seed=args.seed, phases=specs,
                          scale=args.scale, profile=args.profile,
                          plant_leak=args.plant_leak, out_dir=args.out)
    print_facts(f"soak search (workload seed {args.seed}, "
                f"profile {args.profile}, "
                f"{report['seeds_tried']} chaos seed(s) tried):", report)
    if report["failing_seed"] == "none":
        print("no failing chaos seed found")
        return 0
    # A failure that the minimized schedule does not reproduce means
    # the reduction went wrong — surface that as a non-zero exit.
    return 0 if report["replay_failing"] else 1


def explain(args) -> int:
    """Rerun a scenario and reconstruct one session's decision chain."""
    from repro.obs import current, scoped
    from repro.watch.explain import explain_report, subjects_summary

    scenario_name, session, seed = args.scenario, args.session, args.seed
    if lookup_scenario("explain", scenario_name, table()) is None:
        return 2

    with scoped():
        table()[scenario_name].run(seed)
        decisions = current().decisions

    print(f"scenario {scenario_name!r} (seed {seed}): "
          f"{len(decisions)} decision events")
    if session is not None:
        print(explain_report(decisions, session))
    else:
        print("subjects (pass --session <id> for the full chain):")
        for line in subjects_summary(decisions):
            print(f"  {line}")
    return 0


def profile(args) -> int:
    """Profile a scenario and print (or write) the hotspot report."""
    from repro.perf import profile_scenario

    scenario_name, out = args.scenario, args.out
    if lookup_scenario("profile", scenario_name, table()) is None:
        return 2
    report, facts = profile_scenario(scenario_name, top=args.top,
                                     sort=args.sort)
    print(report, end="")
    print_facts("scenario facts:", facts)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report)
        print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AV database reproduction: tour and trace runner.",
    )
    sub = parser.add_subparsers(dest="command")
    trace_parser = sub.add_parser(
        "trace", help="run a scenario with tracing and export the results"
    )
    trace_parser.add_argument("scenario", nargs="?", default="quickstart",
                              help="scenario name (default: quickstart)")
    trace_parser.add_argument("--out", type=Path, default=Path("traces"),
                              help="output directory (default: ./traces)")
    trace_parser.add_argument("--canonical", action="store_true",
                              help="also write the canonical (wall-clock-"
                                   "stripped, rerun-diffable) trace export")
    trace_parser.set_defaults(handler=trace)
    for family in FAMILIES.values():
        if not family.help:
            continue  # trace and soak: written out by hand here
        family_parser = sub.add_parser(family.name, help=family.help)
        family_parser.add_argument(
            "scenario", nargs="?", default=family.default,
            help=f"{family.name} scenario name, or 'all' "
                 f"(default: {family.default})")
        family_parser.add_argument("--seed", type=int, default=0,
                                   help="scenario seed (default: 0)")
        toggle_flags = family.toggle.flags() if family.toggle else ()
        for option, keywords in toggle_flags + family.flags:
            family_parser.add_argument(option, **keywords)
        family_parser.set_defaults(handler=partial(run_family, family))
    soak_parser = sub.add_parser(
        "soak", help="run the broadcast-day soak or the chaos search"
    )
    soak_parser.add_argument("action", nargs="?", default="day",
                             choices=("day", "search"),
                             help="'day' runs one soak; 'search' sweeps "
                                  "chaos seeds and minimizes the first "
                                  "failure (default: day)")
    soak_parser.add_argument("--seed", type=int, default=0,
                             help="workload seed (default: 0)")
    soak_parser.add_argument("--scale", type=positive(float), default=1.0,
                             help="scale session/job counts by this factor "
                                  "(default: 1.0)")
    soak_parser.add_argument("--phases", default=None,
                             help="comma-separated phase names to run "
                                  "(default: the full broadcast day)")
    soak_parser.add_argument("--profile", default="gentle",
                             choices=("gentle", "aggressive"),
                             help="chaos profile (default: gentle)")
    soak_parser.add_argument("--no-chaos", action="store_true",
                             help="run the fault-free baseline day")
    soak_parser.add_argument("--chaos-seed", type=int, default=None,
                             help="pin one chaos seed (day: defaults to the "
                                  "workload seed; search: sweep just this)")
    soak_parser.add_argument("--chaos-seeds", type=positive(int), default=32,
                             help="search: sweep chaos seeds 0..N-1 "
                                  "(default: 32)")
    soak_parser.add_argument("--plant-leak", action="store_true",
                             help="arm the planted leak latent bug "
                                  "(for exercising the search)")
    soak_parser.add_argument("--bundle-dir", default=None,
                             help="day: write postmortem bundles here")
    soak_parser.add_argument("--out", default=None,
                             help="search: write minimized plan, report "
                                  "and replay bundles here")
    soak_parser.set_defaults(handler=soak)
    explain_parser = sub.add_parser(
        "explain", help="reconstruct a session's causal decision chain"
    )
    explain_parser.add_argument("scenario", nargs="?", default="node-kill",
                                help="any scenario that emits decisions "
                                     "(default: node-kill)")
    explain_parser.add_argument("--session", default=None,
                                help="session/stream label to explain "
                                     "(omit to list subjects)")
    explain_parser.add_argument("--seed", type=int, default=0,
                                help="scenario seed (default: 0)")
    explain_parser.set_defaults(handler=explain)
    profile_parser = sub.add_parser(
        "profile", help="run a scenario under cProfile and report hotspots"
    )
    profile_parser.add_argument("scenario", nargs="?", default="quickstart",
                                help="any scenario name, bare or qualified "
                                     "<family>-<name> (default: quickstart)")
    profile_parser.add_argument("--top", type=int, default=15,
                                help="number of hotspots to show (default: 15)")
    profile_parser.add_argument("--sort", default="cumulative",
                                choices=("cumulative", "tottime", "ncalls"),
                                help="pstats sort key (default: cumulative)")
    profile_parser.add_argument("--out", type=Path, default=None,
                                help="also write the report to this file")
    profile_parser.set_defaults(handler=profile)
    args = parser.parse_args(argv)
    if args.command is None:
        tour()
        return 0
    return args.handler(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| grep -q``) closed the pipe
        # early; that's its prerogative, not a scenario failure.  Drop
        # stdout so the interpreter's shutdown flush doesn't raise too.
        import os
        import sys
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(0)
