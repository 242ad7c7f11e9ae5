"""Byte-identity pins on every scenario run and every CLI command.

``tests/golden/trace_hashes.json`` holds SHA-256 hashes.  Under ``runs``,
each run id of ``tools/behaviour_diff.py``'s ``runs()`` (every
``<family>-<name>`` of the scenario table at seeds 0 and 1, an unseeded
``trace`` preset once, and the herd day at the ledger's million
clients) maps to the hashes of its capture: ``decisions``, the decision
log as sorted-key JSON, so a changed verdict is named as one;
``metrics``, the metric snapshot, so a moved or vanished instrument is;
and for eleven runs ``trace``, the canonical Chrome-trace export
(wall-clock stamps stripped, keys sorted), so event order and virtual
timestamps are held too.  ``cli_stdout`` pins the bytes a CLI command
prints (every family's ``all --seed 0``, the ``--compare`` regimes, the
forced query paths, the soak day and the ``explain`` chains).  Each run
is captured once, traced, and its hashes are shared by the pins that
check it (tracing moves no decision and no metric): the decisions and
metrics of each scenario run, the trace of each of the eleven, and the
decisions and metrics of the two crowd days.

A failing pin says only *that* something moved.  ``python
tools/behaviour_diff.py HEAD`` says what: per run, the facts, metric
keys, decision kinds and trace events that differ from the last commit.
A deliberate change re-pins and records that output in EXPERIMENTS.md,
which keeps every re-pin so far.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from typing import Dict

import pytest

from repro.sim import Delay, Simulator, Timeout

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "trace_hashes.json").read_text()
)
CLI_STDOUT = GOLDEN["cli_stdout"]
RUNS = GOLDEN["runs"]

_spec = spec_from_file_location(
    "behaviour_diff",
    Path(__file__).parents[1] / "tools" / "behaviour_diff.py")
behaviour_diff = module_from_spec(_spec)
_spec.loader.exec_module(behaviour_diff)
RUN_LIST = behaviour_diff.runs()

#: the eleven runs whose canonical trace is pinned too, by the table
#: names their trace pins were first taken under.
TRACED = {
    **{name: f"trace-{name}" for name in (
        "cache", "cluster", "contention", "faults", "herd", "newscast",
        "overload", "query", "quickstart")},
    "day": "soak-day --seed 0",
    "watch-cache-crowd": "watch-cache-crowd --seed 0",
}
#: the herd day at the ledger's crowd, by seed; every ``herd-*``
#: scenario runs its own 20k-30k.
CROWD = {seed: f"herd-day --seed {seed} --clients {behaviour_diff.CROWD}"
         for seed in (0, 1)}


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@functools.lru_cache(maxsize=None)
def captured(run_id: str) -> Dict[str, object]:
    """The hash of each artifact of one run, and under ``emitted`` what
    it emitted, captured once per session however many tests check it."""
    name, seed, params = RUN_LIST[run_id]
    got = behaviour_diff.capture(name, seed, **params)
    out: Dict[str, object] = {artifact: sha256(got[artifact])
                              for artifact in behaviour_diff.ARTIFACTS}
    out["emitted"] = emitted(got)
    return out


def emitted(got: Dict[str, object]) -> set:
    """(catalog table, name, metric kind or None) per metric key,
    decision kind and trace category in one capture."""
    seen = {("METRICS", key, "counter" if isinstance(value, int)
             else "gauge" if "high_watermark" in value else "histogram")
            for key, value in json.loads(got["metrics"]).items()}
    seen.update(("DECISIONS", event["kind"], None)
                for event in json.loads(got["decisions"]))
    seen.update(("CATEGORIES", event["cat"], None)
                for event in json.loads(got["trace"])["traceEvents"]
                if event["ph"] != "M")
    return seen


def assert_pinned(run_id: str, *artifacts: str) -> None:
    moved = [artifact for artifact in artifacts
             if captured(run_id)[artifact] != RUNS[run_id][artifact]]
    assert not moved, (
        f"{' and '.join(moved)} of {run_id!r} moved from the pinned "
        f"hash; `python tools/behaviour_diff.py HEAD` says how")


class TestGoldenTraces:
    """Every run and command must reproduce its pinned bytes exactly."""

    def test_every_scenario_run_is_pinned(self):
        assert sorted(RUN_LIST) == sorted(RUNS)
        assert sorted(TRACED.values()) == sorted(
            run_id for run_id, pins in RUNS.items() if "trace" in pins)

    @pytest.mark.parametrize(
        "run_id", sorted(set(RUNS) - set(CROWD.values())))
    def test_scenario_decisions_and_metrics_match_pinned_hash(self, run_id):
        assert_pinned(run_id, "decisions", "metrics")

    @pytest.mark.parametrize("name", sorted(TRACED))
    def test_trace_matches_pre_optimization_hash(self, name):
        """Event order, virtual timestamps and metric totals of a run."""
        assert_pinned(TRACED[name], "trace")

    @pytest.mark.parametrize("seed", sorted(CROWD))
    def test_herd_day_at_the_ledger_crowd_matches_pinned_hash(self, seed):
        assert_pinned(CROWD[seed], "decisions", "metrics")

    def test_every_emitted_name_is_in_the_catalog(self):
        """What the pinned runs emit, matched against ``repro.obs.catalog``:
        ``<name>`` stands for one or more dotted segments."""
        from repro.obs import catalog

        entries = [
            (table, re.compile(re.escape(name).replace("<name>", ".+")),
             entry[0] if table == "METRICS" else None)
            for table in ("METRICS", "DECISIONS", "CATEGORIES")
            for name, entry in getattr(catalog, table).items()]
        first_in = {}
        for run_id in RUN_LIST:
            for item in captured(run_id)["emitted"]:
                first_in.setdefault(item, run_id)
        undeclared = sorted(
            f"{table} {name!r} ({kind or 'any kind'}), first in {run_id}"
            for (table, name, kind), run_id in first_in.items()
            if not any(table == t and kind == k and pattern.fullmatch(name)
                       for t, pattern, k in entries))
        assert not undeclared, "\n".join(undeclared)

    def test_rerun_is_byte_identical(self):
        capture = behaviour_diff.capture
        assert capture("quickstart") == capture("quickstart")

    @pytest.mark.parametrize("command", sorted(CLI_STDOUT))
    def test_cli_stdout_matches_pinned_hash(self, command, capsys):
        from repro.__main__ import main

        assert main(command.split()) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == CLI_STDOUT[command], (
            f"`python -m repro {command}` printed different bytes")


def run(facts=None, decisions=(), metrics=None, events=()):
    """A synthetic capture, shaped like ``behaviour_diff.capture``'s."""
    def blob(doc):
        return json.dumps(doc, sort_keys=True).encode()

    metrics = metrics or {"sim.events_dispatched": 100}
    return {"facts": facts or {"frames": 30},
            "decisions": blob([{"ts": ts, "kind": kind, "subject": subject}
                               for ts, kind, subject in decisions]),
            "metrics": blob(metrics),
            "trace": blob({"traceEvents": list(events),
                           "otherData": {"metrics": metrics}})}


class TestBehaviourDiffReport:
    """``behaviour_diff.report`` over synthetic captures: no git, no run."""

    DECISIONS = [(0.5, "admit", "s1"), (1.0, "admit", "s2")]

    def report(self, a, b):
        lines = []
        return behaviour_diff.report(a, b, lines.append), lines

    def test_equal_captures_report_nothing_and_exit_0(self):
        captures = {"faults-x --seed 0": run(decisions=self.DECISIONS)}
        assert self.report(captures, captures) == (0, [])

    def test_a_moved_decision_names_run_kind_and_first_event(self):
        moved = self.DECISIONS[:1] + [(1.0, "shed", "s2")]
        status, lines = self.report(
            {"herd-day --seed 0": run(decisions=self.DECISIONS)},
            {"herd-day --seed 0": run(decisions=moved)})
        assert status == 1
        assert lines[0] == "herd-day --seed 0:"
        assert "  decisions admit: 2 -> 1" in lines
        assert "  decisions shed: 0 -> 1" in lines
        at = lines.index("  decisions first difference, event 1 (admit -> shed):")
        assert lines[at + 1].startswith('    - {"kind": "admit"')
        assert lines[at + 2].startswith('    + {"kind": "shed"')

    def test_a_moved_metric_and_fact_are_named(self):
        status, lines = self.report(
            {"trace-quickstart": run()},
            {"trace-quickstart": run(facts={"frames": 29},
                                     metrics={"sim.events_dispatched": 97})})
        assert status == 1
        assert "  facts frames: 30 -> 29" in lines
        assert "  metrics sim.events_dispatched: 100 -> 97" in lines
        assert "  trace otherData.metrics differs" in lines

    def test_lost_trace_events_are_grouped_by_stem(self):
        event = {"ph": "X", "cat": "sim", "ts": 0, "dur": 1, "tid": 1}
        events = [dict(event, name=f"deliver:conn-{i}") for i in range(3)]
        status, lines = self.report({"trace-newscast": run(events=events)},
                                    {"trace-newscast": run(events=events[:1])})
        assert status == 1
        assert lines[1:] == ["  trace events: 3 -> 1",
                             "  trace only in A: 2 x sim deliver:*"]

    def test_a_run_on_one_side_only_is_reported(self):
        status, lines = self.report({"watch-leak --seed 0": run()}, {})
        assert (status, lines) == (1, ["watch-leak --seed 0:", "  only in A"])


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
