"""Byte-identity guards for the hot-path optimization work.

``tests/golden/trace_hashes.json`` holds SHA-256 hashes of the
*canonical* Chrome-trace export (wall-clock stamps stripped, keys
sorted), the bytes ``python -m repro trace <name> --canonical`` writes,
for the nine trace presets and two supervised runs: quickstart,
faults, and overload captured on the pre-optimization kernel, query
before the B-tree range walk was rewritten, the other five before
the scenario registry replaced the per-family CLI handlers, and ``day``
and ``watch-cache-crowd`` (the watch stack armed over the cache tier)
before the edge hit path and the supervision tick stopped redoing
per-element and per-tick bookkeeping (Exp. P10); quickstart,
newscast and contention were re-pinned when hops with latency stopped
costing a process per element (the only events gone are the
``deliver:*`` and ``*:prefetch`` process spans, the only metrics moved
four ``sim.*`` counts: EXPERIMENTS.md Exp. P7 keeps the
``tools/trace_diff.py`` output) and again when the decoder and sink
behind a clocked-out hop began to run as one (no event added or removed,
only ``sim.events_dispatched`` moved, there and in the metric pins of
``faults-degraded-session`` and the three ``trace-*`` runs: Exp. P14),
and query's trace and metric snapshot
when the lazy track scan went with its counter
``annotations.track_scans``, which no scenario incremented (EXPERIMENTS.md
Exp. S5: that key is all that moved).  Its
``cli_stdout`` entry pins the bytes a CLI command prints (every family's
``all --seed 0``, the ``--compare`` regimes, the forced query paths, the
soak day and the ``explain`` chains), so facts, plans, digests and
summary lines are held across revisions and not only across reruns;
CI's rerun-and-diff loops were retired in favour of these.  Its
``decision_log`` entry pins, from the same run as each trace, the
decision log as sorted-key JSON, so a changed verdict is named as one
even where the trace would only say that something moved, and its
``metrics`` entry the metric snapshot as sorted-key JSON, so a moved
or vanished instrument is named as one.  ``scenario_decision_log`` and
``scenario_metrics`` pin the same two hashes, untraced, for every
``<family>-<name>`` of the scenario table at seeds 0 and 1 (an unseeded
``trace`` preset once), so a change that must move nothing is checked
on every scenario and not only on the eleven pinned traces;
``crowd_decision_log`` and ``crowd_metrics`` pin the same two for the
herd ``day`` at the ledger's million clients, seeds 0 and 1, taken
before the coupler compiled its cache verdicts and class splits ahead
of the first tick (Exp. P11).  If any
kernel/dataplane change perturbs the schedule — event order, virtual
timestamps, or metric totals — the exported bytes change and these
tests fail.  That is what "preserving epoch semantics and (time, seq)
determinism exactly" means, made executable.

The hashes cover the metrics snapshot too, so an *intentional* snapshot
format change (e.g. the histogram ``sum``/percentile fields) requires
regenerating ``trace_hashes.json`` from the new format — a deliberate,
reviewed step, unlike a schedule perturbation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.scenarios import capture, table
from repro.sim import Delay, Simulator, Timeout

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "trace_hashes.json").read_text()
)
CLI_STDOUT = GOLDEN.pop("cli_stdout")
DECISION_LOG = GOLDEN.pop("decision_log")
METRICS = GOLDEN.pop("metrics")
SCENARIO_DECISION_LOG = GOLDEN.pop("scenario_decision_log")
SCENARIO_METRICS = GOLDEN.pop("scenario_metrics")
CROWD_DECISION_LOG = GOLDEN.pop("crowd_decision_log")
CROWD_METRICS = GOLDEN.pop("crowd_metrics")

#: the crowd the ledger's ``herd_day`` runs; every ``herd-*`` scenario
#: above runs its own 20k-30k.
CROWD = 1_000_000


def scenario_runs() -> Dict[str, Tuple[str, int]]:
    """Run id -> (qualified name, seed): every ``<family>-<name>`` of the
    table at seeds 0 and 1, an unseeded ``trace`` preset once."""
    runs = {}
    for name, scenario in table().items():
        if name != f"{scenario.family.name}-{scenario.name}":
            continue
        seeds = (0, 1) if scenario.family.seeded else (0,)
        for seed in seeds:
            runs[f"{name} --seed {seed}" if scenario.family.seeded
                 else name] = (name, seed)
    return runs


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class TestGoldenTraces:
    """Scenario traces must match the pre-optimization bytes exactly."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_trace_matches_pre_optimization_hash(self, name):
        _, decisions, metrics, trace = capture(name)
        assert sha256(trace) == GOLDEN[name], (
            f"canonical trace for {name!r} diverged from the "
            f"pre-optimization kernel — the schedule or metric totals "
            f"changed"
        )
        assert sha256(decisions) == DECISION_LOG[name], (
            f"decision log for {name!r} diverged: a verdict, its subject, "
            f"time or arguments changed")
        assert sha256(metrics) == METRICS[name], (
            f"metric snapshot for {name!r} diverged: a counter, gauge or "
            f"histogram was added, dropped or moved")

    def test_rerun_is_byte_identical(self):
        assert capture("quickstart") == capture("quickstart")

    @pytest.mark.parametrize("command", sorted(CLI_STDOUT))
    def test_cli_stdout_matches_pinned_hash(self, command, capsys):
        from repro.__main__ import main

        assert main(command.split()) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == CLI_STDOUT[command], (
            f"`python -m repro {command}` printed different bytes")

    def test_every_scenario_run_is_pinned(self):
        assert sorted(scenario_runs()) == sorted(SCENARIO_METRICS) == sorted(
            SCENARIO_DECISION_LOG)

    @pytest.mark.parametrize("run_id", sorted(SCENARIO_METRICS))
    def test_scenario_decisions_and_metrics_match_pinned_hash(self, run_id):
        _, decisions, metrics, _ = capture(*scenario_runs()[run_id],
                                           traced=False)
        assert sha256(decisions) == SCENARIO_DECISION_LOG[run_id], (
            f"decision log of {run_id!r} diverged: a verdict, its subject, "
            f"time or arguments changed")
        assert sha256(metrics) == SCENARIO_METRICS[run_id], (
            f"metric snapshot of {run_id!r} diverged: a counter, gauge or "
            f"histogram was added, dropped or moved")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_herd_day_at_the_ledger_crowd_matches_pinned_hash(self, seed):
        run_id = f"herd-day --seed {seed} --clients {CROWD}"
        _, decisions, metrics, _ = capture("herd-day", seed, traced=False,
                                           clients=CROWD)
        assert sha256(decisions) == CROWD_DECISION_LOG[run_id], (
            f"decision log of {run_id!r} diverged")
        assert sha256(metrics) == CROWD_METRICS[run_id], (
            f"metric snapshot of {run_id!r} diverged")


class TestStaleTimers:
    """A stale wake-up stays queued until its time, then is popped,
    moves the clock and counts as a dispatched event."""

    def test_timeout_storm_pops_every_stale_timer(self):
        # 2,000 waiters each leave a 1,000 s throw-timer behind when
        # their event fires first; the run drains every one of them.
        sim = Simulator()

        def waiter(ev):
            try:
                yield Timeout(ev, 1000.0)
            except Exception:
                pass

        def firer(evs):
            for ev in evs:
                yield Delay(0.001)
                ev.trigger("x")

        events = [sim.event(f"e{i}") for i in range(2000)]
        for i, ev in enumerate(events):
            sim.spawn(waiter(ev), f"w{i}")
        sim.spawn(firer(events), "firer")
        assert sim.run().seconds == 1000.0
        assert sim._m_dispatched.value == 8001
        assert not sim._queue

    def test_stale_count_settles_to_zero(self):
        # The event wins the race, so each Timeout leaves one stale
        # throw-timer in the heap; draining the run must pop every one
        # of them.
        sim = Simulator()
        ev = sim.event("go")

        def waiter():
            got = yield Timeout(ev, 0.5)
            return got

        def firer():
            yield Delay(0.1)
            ev.trigger("won")

        procs = [sim.spawn(waiter(), f"w{i}") for i in range(10)]
        sim.spawn(firer(), "firer")
        sim.run()
        assert all(p.result == "won" for p in procs)
        assert not sim._queue
        assert sim.now.seconds == 0.5  # stale timers still advanced the clock
