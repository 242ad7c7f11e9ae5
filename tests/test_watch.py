"""The supervision layer: SLOs, invariants, flight recorder, explain."""

import json

import pytest

from repro.admission.controller import AdmissionController, QoSContract
from repro.errors import InvariantBreachError, WatchError
from repro.net.channel import Channel
from repro.obs import scoped
from repro.obs.metrics import MetricsRegistry
from repro.avtime import WorldTime
from repro.sim import Delay, Simulator
from repro.watch import (
    SCENARIOS,
    DecisionEvent,
    FlightRecorder,
    InvariantMonitor,
    SLOEngine,
    SLOSpec,
    Watchdog,
    default_slos,
    describe,
    explain_report,
    render_event,
    subjects_summary,
    summary_line,
)


# ---------------------------------------------------------------------------
# SLO engine
# ---------------------------------------------------------------------------

class TestSLOEngine:
    def test_histogram_quantile_burn(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("admission.queue_wait_s")  # TIME_BUCKETS_S
        for _ in range(99):
            hist.observe(0.05)
        hist.observe(1.0)
        engine = SLOEngine(metrics, [
            SLOSpec("startup", "histogram-quantile",
                    "admission.queue_wait_s", 0.2, quantile=95.0),
        ])
        result = engine.evaluate()[0]
        assert result.value == 0.05       # p95 bucket edge
        assert result.burn == pytest.approx(0.25)
        assert result.ok

    def test_ratio_burn_over_budget(self):
        metrics = MetricsRegistry()
        metrics.counter("storage.deadline_misses").inc(10)
        metrics.counter("storage.disk_requests").inc(100)
        engine = SLOEngine(metrics, [
            SLOSpec("misses", "ratio", "storage.deadline_misses", 0.05,
                    denominator="storage.disk_requests"),
        ])
        result = engine.evaluate()[0]
        assert result.value == pytest.approx(0.1)
        assert result.burn == pytest.approx(2.0)
        assert not result.ok

    def test_gauge_floor_burn(self):
        metrics = MetricsRegistry()
        metrics.gauge("cluster.nodes_live").set(3)
        engine = SLOEngine(metrics, [
            SLOSpec("floor", "gauge-min", "cluster.nodes_live", 2.0),
        ])
        assert engine.evaluate()[0].burn == pytest.approx(2 / 3)
        metrics.gauge("cluster.nodes_live").set(1)
        assert engine.evaluate()[0].burn == pytest.approx(2.0)

    def test_missing_metric_reads_zero(self):
        engine = SLOEngine(MetricsRegistry(), [
            SLOSpec("quiet", "counter-max", "admission.shed", 5),
        ])
        result = engine.evaluate()[0]
        assert result.value == 0.0 and result.ok

    def test_burn_by_class_takes_worst(self):
        metrics = MetricsRegistry()
        metrics.counter("a").inc(4)
        metrics.counter("b").inc(1)
        engine = SLOEngine(metrics, [
            SLOSpec("a-max", "counter-max", "a", 2, klass="capacity"),
            SLOSpec("b-max", "counter-max", "b", 2, klass="capacity"),
        ])
        burns = engine.burn_by_class(engine.evaluate())
        assert burns == {"capacity": 2.0}

    def test_report_is_plain_sorted_data(self):
        engine = SLOEngine(MetricsRegistry(), default_slos(nodes_floor=2.0))
        report = engine.report()
        json.dumps(report)
        assert report["hard_failed"] == ["replication-floor"]  # gauge reads 0

    def test_spec_validation(self):
        with pytest.raises(WatchError, match="kind"):
            SLOSpec("bad", "nope", "m", 1.0)
        with pytest.raises(WatchError, match="denominator"):
            SLOSpec("bad", "ratio", "m", 1.0)
        with pytest.raises(WatchError, match="positive"):
            SLOSpec("bad", "gauge-min", "m", 0.0)
        with pytest.raises(WatchError, match="duplicate"):
            SLOEngine(MetricsRegistry(),
                      [SLOSpec("dup", "counter-max", "m", 1.0),
                       SLOSpec("dup", "counter-max", "m", 2.0)])


# ---------------------------------------------------------------------------
# invariant monitor
# ---------------------------------------------------------------------------

class TestInvariantMonitor:
    def _stack(self):
        sim = Simulator()
        trunk = Channel(sim, capacity_bps=1_000_000.0, name="trunk")
        controller = AdmissionController(sim, trunk)
        monitor = InvariantMonitor(sim).arm(
            channels=[trunk], controllers=[controller],
            channels_complete=True)
        return sim, trunk, controller, monitor

    def test_healthy_system_has_no_breaches(self):
        sim, trunk, controller, monitor = self._stack()
        reservation = controller.try_admit(
            QoSContract(500_000.0), label="s-1")
        assert monitor.check_now() == []
        reservation.release()
        assert monitor.check_teardown() == []
        assert monitor.checks == 2

    def test_leaked_release_is_caught(self):
        sim, trunk, controller, monitor = self._stack()
        reservation = controller.try_admit(
            QoSContract(500_000.0), label="leaky")
        trunk.debug_leak_releases = True
        reservation.release()
        breaches = monitor.check_now()
        assert len(breaches) >= 1
        assert breaches[0].invariant == "reservation-conservation"
        assert breaches[0].component == "trunk"
        assert "leaky" in breaches[0].evidence["leaked"]
        json.dumps(breaches[0].to_dict())

    def test_queue_depth_mirror_corruption_is_caught(self):
        sim, trunk, controller, monitor = self._stack()
        controller._live_queued = 3  # corrupt the O(1) mirror
        breaches = monitor.check_now()
        assert any(b.invariant == "controller-consistency" for b in breaches)

    def test_extent_wholeness(self):
        from repro.storage.extents import ExtentAllocator

        allocator = ExtentAllocator("disk0", 1000)
        extent = allocator.allocate(100)
        sim = Simulator()
        monitor = InvariantMonitor(sim).arm(allocators=[allocator])
        assert monitor.check_now() == []
        # Corrupt the books: drop an allocated extent without freeing.
        del allocator._allocated[extent.id]
        breaches = monitor.check_now()
        assert breaches[0].invariant == "extent-wholeness"

    def test_bit_conservation_requires_complete_arming(self):
        sim = Simulator()
        armed = Channel(sim, 1_000_000.0, name="armed")
        unarmed = Channel(sim, 1_000_000.0, name="unarmed")
        unarmed._account(4096)  # traffic the monitor cannot see
        partial = InvariantMonitor(sim).arm(channels=[armed])
        assert partial.check_now() == []  # gated: no false positive
        complete = InvariantMonitor(sim).arm(
            channels=[armed], channels_complete=True)
        breaches = complete.check_now()
        assert any(b.invariant == "bit-conservation" for b in breaches)

    def test_leaked_process_caught_at_teardown(self):
        sim = Simulator()
        monitor = InvariantMonitor(sim)

        def lingerer():
            yield Delay(1000.0)

        sim.spawn(lingerer(), "lingerer")
        sim.run(until=WorldTime(1.0))
        assert monitor.check_now() == []  # live processes are fine mid-run
        breaches = monitor.check_teardown()
        assert any(b.invariant == "process-accounting" for b in breaches)


class TestPlantedBreaches:
    """Each probe's breach branch, fired by planting its condition on a
    small live world; no scenario ever makes one of these happen."""

    @pytest.fixture
    def world(self):
        sim = Simulator()
        trunk = Channel(sim, capacity_bps=1_000_000.0, name="trunk")
        controller = AdmissionController(sim, trunk, name="gate")
        reservation = controller.try_admit(QoSContract(500_000.0),
                                           label="s-1")
        return sim, trunk, controller, reservation

    @staticmethod
    def fired(breaches):
        return [(b.invariant, b.component) for b in breaches]

    def test_released_reservation_still_registered(self, world):
        sim, trunk, _, reservation = world
        trunk.debug_leak_releases = True
        reservation.release()
        monitor = InvariantMonitor(sim).arm(channels=[trunk])
        assert self.fired(monitor.check_now()) == [
            ("reservation-conservation", "trunk")]

    def test_reserved_over_capacity(self, world):
        sim, trunk, _, _ = world
        trunk.capacity_bps = 400_000.0
        monitor = InvariantMonitor(sim).arm(channels=[trunk])
        [breach] = monitor.check_now()
        assert (breach.invariant, breach.component) == (
            "reservation-conservation", "trunk")
        assert "exceeds capacity" in breach.detail

    def test_strict_teardown_fails_on_a_breach(self, world):
        sim, trunk, _, _ = world
        dog = Watchdog(sim).arm(channels=[trunk])
        trunk.capacity_bps = 400_000.0
        with pytest.raises(InvariantBreachError,
                           match="reservation-conservation"):
            dog.teardown()
        [breach] = dog.teardown(strict=False)["teardown_breaches"]
        assert breach["invariant"] == "reservation-conservation"

    def test_stale_held_grant(self, world):
        sim, trunk, controller, reservation = world
        trunk._release(reservation)  # the channel forgets, the gate does not
        monitor = InvariantMonitor(sim).arm(controllers=[controller])
        [breach] = monitor.check_now()
        assert (breach.invariant, breach.component) == (
            "controller-consistency", "gate")
        assert breach.evidence == {"stale": ["s-1"]}

    def test_queue_depth_mirror_off(self, world):
        sim, _, controller, _ = world
        controller._live_queued = 2
        monitor = InvariantMonitor(sim).arm(controllers=[controller])
        [breach] = monitor.check_now()
        assert (breach.invariant, breach.component) == (
            "controller-consistency", "gate")
        assert breach.evidence == {"mirror": 2, "actual": 0}

    @pytest.fixture
    def allocator(self):
        from repro.storage.extents import ExtentAllocator

        allocator = ExtentAllocator("disk0", 1000)
        kept = [allocator.allocate(100) for _ in range(4)]
        allocator.free(kept[0])
        allocator.free(kept[2])  # two free ranges
        return allocator, kept

    def test_extent_gap(self, allocator):
        allocator, kept = allocator
        del allocator._allocated[kept[1].id]
        monitor = InvariantMonitor(Simulator()).arm(allocators=[allocator])
        assert self.fired(monitor.check_now()) == [
            ("extent-wholeness", "disk0")]

    def test_extent_overlap(self, allocator):
        allocator, _ = allocator
        allocator._free.append((150, 10))  # inside an allocated extent
        allocator._free.sort()
        monitor = InvariantMonitor(Simulator()).arm(allocators=[allocator])
        assert self.fired(monitor.check_now()) == [
            ("extent-wholeness", "disk0")]

    def test_unsorted_free_list(self, allocator):
        allocator, _ = allocator
        allocator._free.reverse()
        monitor = InvariantMonitor(Simulator()).arm(allocators=[allocator])
        [breach] = monitor.check_now()
        assert (breach.invariant, breach.component) == (
            "extent-wholeness", "disk0")
        assert breach.detail == "free list is not sorted"

    @pytest.fixture
    def cluster(self):
        from repro.cluster import ClusterPlacementManager, StorageNode
        from repro.cluster.scenarios import Blob

        sim = Simulator()
        cluster = ClusterPlacementManager(sim, replication=2)
        for i in range(2):
            cluster.add_node(StorageNode(sim, f"node-{i}"))
        value = Blob(1000)
        placement = cluster.place(value, key="v")
        monitor = InvariantMonitor(sim).arm(cluster=cluster)
        assert monitor.check_now() == []
        assert self.replication(monitor.check_teardown()) == []
        return cluster, placement, monitor, value   # placed by id(value)

    @staticmethod
    def replication(breaches):
        """The replication breaches' details; the node servers, never
        stopped here, also leave live processes at teardown."""
        found = [b for b in breaches if b.invariant == "replication"]
        assert {b.component for b in found} <= {"cluster"}
        return sorted(b.detail for b in found)

    def test_replication_mid_run(self, cluster):
        cluster, _, monitor, _ = cluster
        for node in cluster.nodes:
            node.live = False
        assert self.replication(monitor.check_now()) == [
            "1 shard(s) with zero live replicas"]

    def test_replication_at_teardown(self, cluster):
        cluster, placement, monitor, _ = cluster
        cluster.node("node-0").live = False
        placement.replication = 3  # a boost that outlived its crowd
        assert self.replication(monitor.check_teardown()) == [
            "1 placement(s) end with replication above declared R "
            "(leaked boost)",
            "1 shard(s) still under-replicated at teardown"]
        cluster.node("node-1").live = False
        assert "1 shard(s) with zero surviving replicas at teardown" in \
            self.replication(monitor.check_teardown())

    def test_over_replicated_at_teardown(self, cluster):
        cluster, placement, monitor, _ = cluster
        placement.replication = placement.declared_replication = 1
        assert self.replication(monitor.check_teardown()) == [
            "1 shard(s) still over-replicated at teardown (leaked extents)"]

    def test_negative_process_count(self):
        sim = Simulator()
        sim.live_processes = -1
        monitor = InvariantMonitor(sim)
        assert self.fired(monitor.check_now()) == [
            ("process-accounting", "sim")]

    def test_hard_slo_failures_bundle_once(self, tmp_path):
        with scoped():
            sim = Simulator()
            slos = [SLOSpec("errors", "counter-max", "test.errors", 0.0,
                            hard=True),
                    SLOSpec("faults", "counter-max", "test.faults", 0.0,
                            klass="capacity", hard=True),
                    SLOSpec("soft", "counter-max", "test.errors", 0.0)]
            dog = Watchdog(sim, slos=slos, bundle_dir=tmp_path)
            sim.obs.metrics.counter("test.errors").inc(2)
            sim.obs.metrics.counter("test.faults").inc()
            dog.check()
            dog.check()  # the same SLOs fail again: no second bundle
            decisions = sim.obs.decisions.by_kind("slo-breach")
        assert [(e.subject, e.args["klass"], e.args["value"])
                for e in decisions] == [("errors", "qos", 2.0),
                                        ("faults", "capacity", 1.0)]
        [path] = dog.bundle_paths
        assert json.loads(path.read_text())["reason"] == "slo-hard-fail"


# ---------------------------------------------------------------------------
# flight recorder + watchdog
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_bundle_is_plain_deterministic_data(self):
        with scoped():
            sim = Simulator()
            trunk = Channel(sim, 1_000_000.0, name="trunk")
            recorder = FlightRecorder(sim.obs).track(trunk)
            doc = recorder.bundle("unit-test", 1.5)
        assert doc["reason"] == "unit-test"
        assert doc["components"][0]["name"] == "trunk"
        assert FlightRecorder.to_bytes(doc) == FlightRecorder.to_bytes(doc)
        json.loads(FlightRecorder.to_bytes(doc))

    def test_bundle_records_an_allocator(self):
        from repro.storage.extents import ExtentAllocator

        allocator = ExtentAllocator("disk0", 1000)
        allocator.allocate(100)
        with scoped():
            recorder = FlightRecorder(Simulator().obs).track(allocator)
            [state] = recorder.bundle("unit-test", 0.0)["components"]
        assert (state["name"], state["used_bytes"], state["free_bytes"]) == (
            "disk0", 100, 900)

    def test_dump_writes_bundle(self, tmp_path):
        with scoped():
            sim = Simulator()
            recorder = FlightRecorder(sim.obs)
            doc = recorder.bundle("unit-test", 0.0)
            path = recorder.dump(doc, tmp_path / "bundle.json")
        data = json.loads(path.read_text())
        assert data["bundle"] == "repro.watch postmortem"


class TestWatchdog:
    def test_breach_aborts_the_run(self, tmp_path):
        with scoped():
            sim = Simulator()
            trunk = Channel(sim, 1_000_000.0, name="trunk")
            controller = AdmissionController(sim, trunk)
            dog = Watchdog(sim, slos=default_slos(),
                           bundle_dir=tmp_path)
            dog.arm(channels=[trunk], controllers=[controller],
                    channels_complete=True)
            dog.start(cadence_s=0.1, horizon_s=1.0)

            def leaker():
                reservation = controller.try_admit(
                    QoSContract(250_000.0), label="leaky")
                yield Delay(0.25)
                trunk.debug_leak_releases = True
                reservation.release()

            sim.spawn(leaker(), "leaker")
            with pytest.raises(InvariantBreachError,
                               match="reservation-conservation"):
                sim.run()
            assert len(dog.bundle_paths) == 1
            bundle = json.loads(dog.bundle_paths[0].read_text())
            assert bundle["reason"] == "invariant-breach"
            assert bundle["breaches"][0]["component"] == "trunk"

    def test_ticker_is_horizon_bounded(self):
        with scoped():
            sim = Simulator()
            dog = Watchdog(sim)
            dog.start(cadence_s=0.05, horizon_s=0.5)
            end = sim.run()  # must drain: the ticker stops at the horizon
            assert end.seconds == pytest.approx(0.5)
            assert dog.ticks == 10
            assert sim.live_processes == 0


# ---------------------------------------------------------------------------
# decision chains (overload scenario completeness)
# ---------------------------------------------------------------------------

#: verdicts that legitimately open a subject's decision chain.
_OPENERS = {"admit", "degrade", "shed", "queue", "reject", "node-down"}


def _assert_coherent_chain(chain):
    """A session's decision chain must be ordered and causally closed."""
    assert chain, "empty decision chain"
    times = [e.ts for e in chain]
    assert times == sorted(times), "decision chain out of causal order"
    kinds = [e.kind for e in chain]
    assert kinds[0] in _OPENERS, f"chain opens with {kinds[0]!r}"
    for i, event in enumerate(chain):
        if event.kind == "preempt":
            assert "admit" in kinds[:i] or "degrade" in kinds[:i], (
                "preempted a session that was never granted")
        if event.kind == "admit" and (event.args or {}).get("from_queue"):
            assert "queue" in kinds[:i], "left a queue it never entered"


class TestDecisionChains:
    def test_priority_mix_preemption_chains(self):
        from repro.admission import SCENARIOS as OVERLOAD

        with scoped():
            facts = OVERLOAD["priority-mix"](seed=0, admission=True)
            decisions = Simulator().obs.decisions  # same ambient scope
        assert facts["background_preempted"] == 2
        preempted = {e.subject for e in decisions.by_kind("preempt")}
        assert len(preempted) == 2
        for subject in {e.subject for e in decisions.events}:
            _assert_coherent_chain(decisions.chain(subject))
        for subject in preempted:
            kinds = [e.kind for e in decisions.chain(subject)]
            assert kinds.index("admit") < kinds.index("preempt")

    def test_surge_chains_cover_all_outcomes(self):
        from repro.admission import SCENARIOS as OVERLOAD

        with scoped():
            OVERLOAD["surge"](seed=0, admission=True)
            decisions = Simulator().obs.decisions
        assert len(decisions) > 0
        outcomes = {e.kind for e in decisions.events}
        assert {"admit", "shed"} <= outcomes
        for subject in {e.subject for e in decisions.events}:
            _assert_coherent_chain(decisions.chain(subject))


# ---------------------------------------------------------------------------
# scenarios + explain
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def node_kill_run():
    """One supervised node-kill run shared by the explain tests."""
    with scoped():
        facts = SCENARIOS["node-kill"](seed=0)
        decisions = Simulator().obs.decisions
    return facts, decisions


class TestWatchScenarios:
    def test_leak_scenario_catches_seeded_bug(self):
        with scoped():
            facts = SCENARIOS["leak"](seed=0)
        assert facts["caught"] is True
        assert facts["breach_invariant"] == "reservation-conservation"
        assert facts["breach_component"] == "trunk"
        assert facts["leaked_reservations"] >= 1

    def test_leak_bundle_is_byte_identical_across_reruns(self):
        def run():
            with scoped():
                return SCENARIOS["leak"](seed=0)

        first, second = run(), run()
        assert first["bundle_sha256"] == second["bundle_sha256"]
        assert summary_line("leak", first) == summary_line("leak", second)

    def test_slo_burn_reports_per_class_budgets(self):
        with scoped():
            facts = SCENARIOS["slo-burn"](seed=0)
        assert set(facts["burn_by_class"]) >= {"latency", "deadline"}
        assert facts["worst_burn"] > 1.0     # the overload burns a budget
        assert facts["hard_failed"] == "none"
        assert facts["stranded_processes"] == 0

    def test_node_kill_supervised_run_is_clean(self, node_kill_run):
        facts, _ = node_kill_run
        assert facts["invariant_breaches"] == 0
        assert facts["failovers"] >= 1
        assert facts["degraded_sessions"] >= 1
        assert facts["stranded_processes"] == 0
        assert "failover" in facts["explained_chain"]


class TestExplain:
    def test_explained_session_chain_is_causal(self, node_kill_run):
        facts, decisions = node_kill_run
        subject = facts["explained_session"]
        chain = decisions.chain(subject)
        _assert_coherent_chain(chain)
        kinds = [e.kind for e in chain]
        assert "failover" in kinds
        # the failover happened after the node went down
        node_down_ts = min(e.ts for e in decisions.by_kind("node-down"))
        failover_ts = min(e.ts for e in chain if e.kind == "failover")
        assert failover_ts >= node_down_ts

    def test_report_rendering(self, node_kill_run):
        facts, decisions = node_kill_run
        subject = facts["explained_session"]
        report = explain_report(decisions, subject)
        assert f"decision chain for {subject!r}" in report
        assert "failover" in report
        # deterministic: rendering twice gives identical text
        assert report == explain_report(decisions, subject)

    def test_unknown_subject_lists_alternatives(self, node_kill_run):
        _, decisions = node_kill_run
        report = explain_report(decisions, "no-such-session")
        assert "no decisions recorded" in report
        assert "known subjects" in report

    def test_render_event_covers_every_emitted_kind(self, node_kill_run):
        _, decisions = node_kill_run
        for event in decisions.events:
            line = render_event(event)
            assert line.startswith("t=")
            # every kind has a dedicated rendering (no raw fallback
            # "kind (k=v)" form for the vocabulary the repo emits)
            assert "=" not in line.split("  ", 1)[1].split(" (")[0]

    @pytest.mark.parametrize("kind, args, clause", [
        ("admit", {"bps": 6e6, "from_queue": True, "waited_s": 0.25},
         "admitted at 6e+06 b/s from queue after 0.25s"),
        ("admit", {"bps": 6e6, "via": "preemption"},
         "admitted at 6e+06 b/s (after preempting background work)"),
        ("degrade", {"bps": 3e6, "requested_bps": 6e6, "fraction": 0.5},
         "degraded to 3e+06 b/s of 6e+06 b/s requested (50%)"),
        ("shed", {"reason": "watermark", "utilization": 0.9},
         "shed (watermark) at 90% utilization"),
        ("queue", {"depth": 2, "priority": "background"},
         "queued at depth 2 (background priority)"),
        ("queue-timeout", {"waited_s": 1.5},
         "timed out after 1.5s in the queue"),
        ("preempt", {"bps": 1e6},
         "preempted — 1e+06 b/s revoked for higher-priority work"),
        ("reject", {"bps": 6e6, "available_bps": 1e6},
         "rejected (6e+06 b/s requested, 1e+06 b/s available)"),
        ("breaker", {"prev": "closed", "state": "open"},
         "breaker closed -> open"),
        ("failover", {"src": "node-1", "dst": "node-0"},
         "failover node-1 -> node-0"),
        ("node-down", {"under_replicated": 3},
         "node down (3 shard(s) under-replicated)"),
        ("node-up", None, "node restored"),
        ("retry", {"attempt": 2, "error": "FaultError", "backoff_s": 0.01},
         "retry #2 after FaultError (backoff 0.01s)"),
        ("retries-exhausted", {"attempts": 3, "error": "FaultError"},
         "retries exhausted after 3 attempts (FaultError)"),
        ("session-degraded", {"fraction": 0.5},
         "session degraded to 50% of negotiated QoS"),
        ("invariant-breach", {"invariant": "replication", "detail": "gone"},
         "INVARIANT BREACH [replication] gone"),
        ("slo-breach", {"value": 2.0, "target": 0.0, "burn": 1000.0},
         "hard SLO failed (value 2.0 vs target 0.0, burn 1000.0)"),
        # a kind with no clause of its own: its fields, sorted
        ("replica-boost", {"replication": 3, "declared": 2},
         "replica-boost (declared=2, replication=3)"),
    ])
    def test_describe_every_kind_it_names(self, kind, args, clause):
        assert describe(DecisionEvent(0.0, kind, "a", "s", args)) == clause

    def test_subjects_summary_lines(self, node_kill_run):
        _, decisions = node_kill_run
        lines = subjects_summary(decisions)
        assert any(line.startswith("viewer-") for line in lines)
        subjects = [line.split(":", 1)[0] for line in lines]
        assert subjects == sorted(subjects)


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

class TestCLI:
    def test_lookup_scenario_helper(self, capsys):
        from repro.scenarios import lookup_scenario

        registry = {"a": None, "b": None}
        assert lookup_scenario("unit", "a", registry) == ["a"]
        assert lookup_scenario("unit", "all", registry,
                               allow_all=True) == ["a", "b"]
        assert lookup_scenario("unit", "nope", registry) is None
        err = capsys.readouterr().err
        assert "unknown unit scenario 'nope'" in err
        assert "pick one of: a, b" in err

    def test_watch_command_unknown_scenario_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["watch", "nope"]) == 2
        assert "pick one of" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["trace", "explain", "profile"])
    def test_unknown_scenario_exits_2(self, capsys, command):
        from repro.__main__ import main

        assert main([command, "nope"]) == 2
        assert "pick one of" in capsys.readouterr().err

    def test_watch_command_runs_leak(self, capsys, tmp_path):
        from repro.__main__ import main

        assert main(["watch", "leak",
                     "--bundle-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "breach_invariant = reservation-conservation" in out
        assert "watch leak:" in out
        assert list(tmp_path.glob("postmortem-*.json"))

    def test_explain_command_renders_chain(self, capsys):
        from repro.__main__ import main

        assert main(["explain", "priority-mix", "--session", "bg-1"]) == 0
        out = capsys.readouterr().out
        assert "decision chain for 'bg-1'" in out
        assert "preempted" in out


class TestCrashPostmortems:
    """An unhandled scenario exception leaves a postmortem behind."""

    def test_crash_writes_unhandled_failure_bundle(self, tmp_path):
        with scoped():
            sim = Simulator()
            dog = Watchdog(sim, slos=default_slos(), bundle_dir=tmp_path)
            dog.start(cadence_s=0.1, horizon_s=1.0)

            def encoder():
                yield Delay(0.2)
                raise RuntimeError("codec wedged")

            sim.spawn(encoder(), "encoder")
            # The crash still propagates — the bundle is a side effect,
            # not a swallow.
            with pytest.raises(RuntimeError, match="codec wedged"):
                sim.run()
            assert len(dog.bundle_paths) == 1
            bundle = json.loads(dog.bundle_paths[0].read_text())
            assert bundle["reason"] == "unhandled-failure"
            assert bundle["failure"] == {
                "process": "encoder",
                "error_type": "RuntimeError",
                "error": "codec wedged",
            }

    def test_only_the_first_crash_is_bundled(self, tmp_path):
        with scoped():
            sim = Simulator()
            dog = Watchdog(sim, slos=default_slos(), bundle_dir=tmp_path)
            dog.start(cadence_s=0.1, horizon_s=1.0)

            def crasher(name, at):
                def gen():
                    yield Delay(at)
                    raise RuntimeError(name)
                return gen()

            sim.spawn(crasher("first", 0.2), "first")
            sim.spawn(crasher("second", 0.3), "second")
            with pytest.raises(RuntimeError):
                sim.run()
            assert len(dog.bundle_paths) == 1
            bundle = json.loads(dog.bundle_paths[0].read_text())
            assert bundle["failure"]["process"] == "first"

    def test_breach_does_not_double_bundle(self, tmp_path):
        # The kernel failure hook must skip InvariantBreachError — the
        # monitor already wrote the richer invariant-breach bundle.
        with scoped():
            sim = Simulator()
            trunk = Channel(sim, 1_000_000.0, name="trunk")
            controller = AdmissionController(sim, trunk)
            dog = Watchdog(sim, slos=default_slos(), bundle_dir=tmp_path)
            dog.arm(channels=[trunk], controllers=[controller],
                    channels_complete=True)
            dog.start(cadence_s=0.1, horizon_s=1.0)

            def leaker():
                reservation = controller.try_admit(
                    QoSContract(250_000.0), label="leaky")
                yield Delay(0.25)
                trunk.debug_leak_releases = True
                reservation.release()

            sim.spawn(leaker(), "leaker")
            with pytest.raises(InvariantBreachError):
                sim.run()
            assert [json.loads(p.read_text())["reason"]
                    for p in dog.bundle_paths] == ["invariant-breach"]
