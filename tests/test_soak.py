"""Broadcast-day soak harness: phases, timeline, chaos, ddmin, search."""

import json

import pytest

from repro.errors import SimulationError
from repro.faults import Fault, FaultPlan
from repro.obs import scoped
from repro.soak import (
    PROFILES,
    SEARCH_DEMO_SEED,
    PhaseSpec,
    build_timeline,
    chaos_search,
    day,
    day_chaos_plan,
    ddmin,
    default_day,
    sample_chaos,
    summary_line,
    timeline_sha256,
)
from repro.soak.phases import MAX_LIVE_ELEMENTS, VOD_ELEMENTS
from repro.soak.scenarios import plan_sha256


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

class TestPhaseSpec:
    def test_default_day_shape(self):
        specs = default_day()
        assert [s.name for s in specs] == [
            "morning-ramp", "midday-edit", "prime-time", "overnight"]
        assert sum(s.duration_s for s in specs) == pytest.approx(10.0)
        assert specs[2].viral_share == 0.6  # prime time is the flash crowd

    def test_validation(self):
        with pytest.raises(SimulationError, match="duration must be positive"):
            PhaseSpec("bad", 0.0)
        with pytest.raises(SimulationError, match="vod_sessions must be >= 0"):
            PhaseSpec("bad", 1.0, vod_sessions=-1)
        with pytest.raises(SimulationError, match=r"viral_share must be in"):
            PhaseSpec("bad", 1.0, viral_share=1.5)

    def test_scaled_scales_counts_not_durations(self):
        spec = PhaseSpec("p", 2.0, vod_sessions=100, live_viewers=4,
                         edit_jobs=2, maintenance_bumps=0)
        half = spec.scaled(0.5)
        assert half.duration_s == 2.0
        assert half.vod_sessions == 50
        assert half.live_viewers == 2
        # Non-zero counts floor at 1; zero counts stay zero.
        tiny = spec.scaled(0.01)
        assert tiny.vod_sessions == 1
        assert tiny.edit_jobs == 1
        assert tiny.maintenance_bumps == 0
        with pytest.raises(SimulationError, match="scale factor"):
            spec.scaled(0.0)


# ---------------------------------------------------------------------------
# timeline
# ---------------------------------------------------------------------------

class TestTimeline:
    def test_same_seed_same_timeline(self):
        first = build_timeline(default_day(), seed=7)
        second = build_timeline(default_day(), seed=7)
        assert first == second
        assert timeline_sha256(first) == timeline_sha256(second)
        assert timeline_sha256(first) != timeline_sha256(
            build_timeline(default_day(), seed=8))

    def test_events_match_specs(self):
        specs = default_day()
        events = build_timeline(specs, seed=0)
        by_kind = {}
        for event in events:
            by_kind.setdefault(event.kind, []).append(event)
        assert len(by_kind["vod"]) == sum(s.vod_sessions for s in specs)
        assert len(by_kind["live"]) == sum(s.live_viewers for s in specs)
        assert len(by_kind["edit"]) == sum(s.edit_jobs for s in specs)
        assert len(by_kind["bump"]) == sum(s.maintenance_bumps for s in specs)
        assert all(e.elements == VOD_ELEMENTS for e in by_kind["vod"])
        assert all(0 < e.elements <= MAX_LIVE_ELEMENTS
                   for e in by_kind["live"])
        # Maintenance never bumps asset 0 — that's the viral asset.
        assert all(e.asset >= 1 for e in by_kind["bump"])
        assert events == sorted(events, key=lambda e: (e.at, e.kind,
                                                       e.ordinal))
        horizon = sum(s.duration_s for s in specs)
        assert all(0.0 <= e.at <= horizon for e in events)

    def test_tiny_catalog_rejected(self):
        with pytest.raises(SimulationError, match="catalog"):
            build_timeline(default_day(), seed=0, catalog_size=1)


# ---------------------------------------------------------------------------
# chaos sampling
# ---------------------------------------------------------------------------

NODES = [f"node-{i}" for i in range(4)]
EDGES = ["edge-0", "edge-1"]


class TestChaosSampling:
    def test_same_seed_same_plan(self):
        first = sample_chaos(3, 10.0, NODES, EDGES)
        second = sample_chaos(3, 10.0, NODES, EDGES)
        assert plan_sha256(first) == plan_sha256(second)
        assert plan_sha256(first) != plan_sha256(
            sample_chaos(4, 10.0, NODES, EDGES))

    @pytest.mark.parametrize("seed", range(8))
    def test_gentle_draws_are_survivable_by_construction(self, seed):
        plan = sample_chaos(seed, 10.0, NODES, EDGES)
        plan.validate()
        node_windows = sorted(
            ((f.at, f.at + f.duration) for f in plan
             if f.kind == "node-outage"))
        # Gentle serializes node outages: at R=2, one node down at a time.
        for (_, prev_end), (cur_start, _) in zip(node_windows,
                                                 node_windows[1:]):
            assert cur_start > prev_end
        for fault in plan:
            assert fault.duration > 0  # every outage is restored...
            assert fault.at + fault.duration <= 0.8 * 10.0  # ...with margin

    def test_aggressive_profile_adds_loss_and_crashes(self):
        plan = sample_chaos(0, 10.0, NODES, EDGES,
                            channels=["edge-0.nic"], processes=["edit-0"],
                            profile="aggressive")
        kinds = {f.kind for f in plan}
        assert "channel-loss" in kinds
        assert "process-crash" in kinds
        assert PROFILES["aggressive"].serialize_nodes is False

    def test_bad_arguments_rejected(self):
        with pytest.raises(SimulationError, match="unknown chaos profile"):
            sample_chaos(0, 10.0, NODES, EDGES, profile="cataclysmic")
        with pytest.raises(SimulationError, match="horizon"):
            sample_chaos(0, 0.0, NODES, EDGES)


# ---------------------------------------------------------------------------
# ddmin
# ---------------------------------------------------------------------------

class TestDdmin:
    def test_minimizes_to_the_failing_pair(self):
        items = list(range(1, 9))
        probes = []

        def failing(candidate):
            probes.append(tuple(candidate))
            return 3 in candidate and 6 in candidate

        minimal, stats = ddmin(items, failing)
        assert minimal == [3, 6]
        assert stats["probes"] == len(probes)  # cache hits never re-run
        assert stats["max_pass_probes"] < 2 * len(items)

    def test_result_and_probe_count_are_stable(self):
        items = list(range(1, 9))
        failing = lambda c: 3 in c and 6 in c  # noqa: E731
        first = ddmin(items, failing)
        second = ddmin(items, failing)
        assert first == second

    def test_single_culprit_and_order_preserved(self):
        minimal, _ = ddmin(["a", "b", "c", "d"], lambda c: "c" in c)
        assert minimal == ["c"]
        minimal, _ = ddmin(["a", "b", "c", "d"],
                           lambda c: "b" in c and "d" in c)
        assert minimal == ["b", "d"]  # input order, not discovery order

    def test_rejects_empty_and_passing_inputs(self):
        with pytest.raises(SimulationError, match="empty"):
            ddmin([], lambda c: True)
        with pytest.raises(SimulationError, match="does not fail"):
            ddmin([1, 2, 3], lambda c: False)


# ---------------------------------------------------------------------------
# the composed day
# ---------------------------------------------------------------------------

def _facts_json(facts):
    return json.dumps(facts, sort_keys=True)


class TestDaySoak:
    def test_full_day_is_clean_and_deterministic(self):
        with scoped(tracing=False):
            first = day(seed=0)
        with scoped(tracing=False):
            second = day(seed=0)
        # The acceptance gate: a gentle-chaos day survives supervised.
        assert first["invariant_breaches"] == 0
        assert first["interactive_violations"] == 0
        assert first["unhandled_failure"] == "none"
        assert first["stranded_processes"] == 0
        assert first["vod_admitted"] == first["vod_sessions"]
        assert first["faults_injected"] == first["faults_planned"] > 0
        assert first["hit_ratio"] > 0.5
        # Byte-identical facts across reruns — the determinism gate.
        assert _facts_json(first) == _facts_json(second)
        assert summary_line("day", first) == summary_line("day", second)

    def test_sliced_day_without_chaos(self):
        specs = [s for s in default_day() if s.name == "overnight"]
        with scoped(tracing=False):
            facts = day(seed=1, phases=specs, scale=0.5, chaos=False)
        assert facts["phases"] == 1
        assert facts["faults_planned"] == 0
        assert facts["invariant_breaches"] == 0
        assert facts["version_bumps"] == 1

    def test_day_chaos_plan_matches_what_day_runs(self):
        plan = day_chaos_plan(seed=0)
        with scoped(tracing=False):
            facts = day(seed=0)
        assert facts["fault_schedule_sha256"] == plan_sha256(plan)


# ---------------------------------------------------------------------------
# chaos search + minimization
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo_search(tmp_path_factory):
    out = tmp_path_factory.mktemp("soak-search")
    report = chaos_search(chaos_seeds=[SEARCH_DEMO_SEED], plant_leak=True,
                          out_dir=str(out))
    return report, out


class TestChaosSearch:
    def test_planted_leak_minimizes_to_two_fault_core(self, demo_search):
        report, _ = demo_search
        assert report["failing_seed"] == SEARCH_DEMO_SEED
        assert report["minimized_len"] == 2
        minimized = json.loads(
            (demo_search[1] / "minimized-plan.json").read_text())["faults"]
        assert {(f["kind"], f["target"]) for f in minimized} == {
            ("node-outage", "node-1"), ("edge-cache-outage", "edge-0")}

    def test_minimized_schedule_replays_the_breach(self, demo_search):
        report, out = demo_search
        assert report["replay_failing"] is True
        assert report["replay_breach_invariant"] == "reservation-conservation"
        assert report["replay_bundles"] >= 1
        assert list(out.glob("postmortem-*.json"))

    def test_probe_economy_is_bounded(self, demo_search):
        report, _ = demo_search
        assert report["max_pass_probes"] < report["probe_bound"]
        assert report["ddmin_probes"] <= \
            report["ddmin_passes"] * report["probe_bound"]

    def test_artifacts_roundtrip(self, demo_search):
        report, out = demo_search
        doc = json.loads((out / "minimized-plan.json").read_text())
        plan = FaultPlan(seed=doc["seed"],
                         faults=[Fault(**fields) for fields in doc["faults"]])
        assert plan_sha256(plan) == report["minimized_sha256"]
        on_disk = json.loads((out / "search-report.json").read_text())
        assert on_disk["minimized_sha256"] == report["minimized_sha256"]

    def test_search_is_deterministic(self, demo_search):
        report, _ = demo_search
        again = chaos_search(chaos_seeds=[SEARCH_DEMO_SEED], plant_leak=True)
        for key in ("minimized_sha256", "minimized_schedule", "ddmin_probes",
                    "ddmin_passes", "max_pass_probes", "schedule_sha256"):
            assert again[key] == report[key]

    def test_clean_seed_reports_none(self):
        report = chaos_search(chaos_seeds=[0])
        assert report["failing_seed"] == "none"
        assert report["minimized_len"] == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestSoakCLI:
    def test_day_command_runs_a_slice(self, capsys):
        from repro.__main__ import main

        assert main(["soak", "day", "--no-chaos", "--scale", "0.25",
                     "--phases", "overnight"]) == 0
        out = capsys.readouterr().out
        assert "soak day:" in out
        assert "invariant_breaches = 0" in out

    def test_unknown_phase_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["soak", "day", "--phases", "rush-hour"]) == 2
        assert "pick from" in capsys.readouterr().err

    def test_soak_scenarios_are_profilable(self):
        from repro.scenarios import table

        assert table()["day"].family.name == "soak"
