"""Fault injection and failure recovery: seeded plans, injectors,
retry/backoff, deadline guards, supervision, and graceful degradation."""

import pytest

from repro.avtime import WorldTime
from repro.errors import (
    AdmissionError,
    ChannelFaultError,
    DeadlineExceeded,
    DeviceFaultError,
    FaultError,
    Interrupted,
    SchedulerStoppedError,
    SimulationError,
)
from repro.faults import (
    ChannelFaults,
    Fault,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    supervised,
    with_retries,
)
from repro.net.channel import Channel
from repro.sim import Delay, Simulator, Timeout, WaitProcess
from repro.storage.scheduler import DiskScheduler, Policy


class TestFaultPlan:
    def test_builders_and_iteration(self):
        plan = (FaultPlan(seed=3)
                .device_outage("disk0", at=1.0, duration=0.5)
                .scheduler_outage("disk", at=2.0, duration=0.1)
                .channel_loss("net", rate=0.1, jitter_s=0.001)
                .process_crash("worker", at=0.5)
                .process_hang("worker", at=0.7))
        assert len(plan) == 5
        assert {f.kind for f in plan} == {
            "device-outage", "scheduler-outage", "channel-loss",
            "process-crash", "process-hang",
        }
        assert [f.target for f in plan].count("worker") == 2

    def test_describe(self):
        plan = (FaultPlan(seed=3)
                .device_slowdown("disk0", at=1.0, duration=0.5, factor=3.0)
                .channel_loss("net", rate=0.1, jitter_s=0.001))
        assert [f.describe() for f in plan] == [
            "t=1s device-slowdown on 'disk0' for 0.5s x3",
            "t=0s channel-loss on 'net' loss=10% jitter<=0.001s "
            "(retransmit)"]

    def test_validation(self):
        with pytest.raises(SimulationError, match="unknown fault kind"):
            Fault("meteor-strike", "disk0")
        with pytest.raises(SimulationError, match="must be >= 0"):
            Fault("device-outage", "disk0", at=-1.0)
        with pytest.raises(SimulationError, match="loss rate"):
            Fault("channel-loss", "net", rate=0.99)
        with pytest.raises(SimulationError, match="slowdown factor"):
            Fault("device-slowdown", "disk0", factor=0.5)
        with pytest.raises(SimulationError, match="retransmit"):
            FaultPlan().channel_loss("net", rate=0.1, mode="explode")


class TestInjectorArming:
    def test_unmatched_target_raises(self, sim):
        plan = FaultPlan().device_outage("ghost", at=1.0, duration=0.1)
        with pytest.raises(SimulationError, match="ghost"):
            FaultInjector(sim, plan).arm(devices={})

    def test_double_arm_raises(self, sim):
        injector = FaultInjector(sim, FaultPlan())
        injector.arm()
        with pytest.raises(SimulationError, match="already armed"):
            injector.arm()

    def test_channel_cannot_carry_two_loss_models(self, sim):
        channel = Channel(sim, capacity_bps=1e6, name="net")
        plan = (FaultPlan()
                .channel_loss("net", rate=0.1)
                .channel_loss("net", rate=0.2))
        with pytest.raises(SimulationError, match="already has a loss model"):
            FaultInjector(sim, plan).arm(channels=[channel])


class TestDeviceFaults:
    def _timed_read(self, plan):
        """One 48 Mb/s device read of 480 kbit under ``plan``; returns the
        (start, end) virtual times of the transfer."""
        from repro.storage import MagneticDisk

        sim = Simulator()
        disk = MagneticDisk(sim, "disk0")
        FaultInjector(sim, plan).arm(devices=[disk])
        reservation = disk.reserve(48_000_000.0)
        window = {}

        def reader():
            yield Delay(0.5)  # transfer starts inside any [0.4, ...) window
            window["start"] = sim.now.seconds
            yield from reservation.read(480_000)
            window["end"] = sim.now.seconds

        sim.spawn(reader())
        sim.run()
        return window["start"], window["end"]

    # Timing: the read starts at 0.5, pays the 15 ms positioning seek,
    # then transfers 480 kbit at 48 Mb/s (10 ms).  Nominal end: 0.525.

    def test_outage_wait_mode_blocks_until_window_ends(self):
        start, end = self._timed_read(FaultPlan())
        assert (start, end) == (pytest.approx(0.5), pytest.approx(0.525))
        start, end = self._timed_read(
            FaultPlan().device_outage("disk0", at=0.4, duration=0.3))
        # The transfer (post-seek, t=0.515) blocks until the window ends
        # at 0.7, then takes its nominal 10 ms.
        assert end == pytest.approx(0.71)

    def test_slowdown_multiplies_transfer_time(self):
        start, end = self._timed_read(
            FaultPlan().device_slowdown("disk0", at=0.4, duration=1.0, factor=3.0))
        # seek (unchanged) + 3 x the 10 ms transfer.
        assert (end - start) == pytest.approx(0.015 + 0.030)

    def test_outage_error_mode_raises(self):
        from repro.storage import MagneticDisk

        sim = Simulator()
        disk = MagneticDisk(sim, "disk0")
        FaultInjector(sim, FaultPlan().device_outage(
            "disk0", at=0.4, duration=0.3, mode="error")).arm(devices=[disk])
        reservation = disk.reserve(48_000_000.0)

        def reader():
            yield Delay(0.5)
            yield from reservation.read(480_000)

        proc = sim.spawn(reader())
        sim.run()  # a DeviceFaultError death is a fault, not a run() abort
        assert isinstance(proc.error, DeviceFaultError)
        assert "disk0" in str(proc.error)


class TestChannelFaults:
    def _send(self, seed, mode, elements=40):
        sim = Simulator()
        channel = Channel(sim, capacity_bps=1e6, latency_s=0.001, name="net")
        reservation = channel.reserve(1e6)
        plan = FaultPlan(seed=seed).channel_loss("net", rate=0.3,
                                                 jitter_s=0.002, mode=mode)
        injector = FaultInjector(sim, plan).arm(channels=[channel])
        delivered = []

        def sender():
            for i in range(elements):
                try:
                    yield from reservation.transmit(1000)
                except ChannelFaultError:
                    continue
                delivered.append((i, sim.now.seconds))

        sim.spawn(sender())
        sim.run()
        return channel, delivered, injector.log

    def test_retransmit_mode_delivers_everything_late(self):
        channel, delivered, log = self._send(seed=5, mode="retransmit")
        assert len(delivered) == 40            # nothing lost end-to-end
        assert channel.retransmits > 0
        # Retransmitted bits are charged to the channel's accounting.
        assert channel.total_bits == (40 + channel.retransmits) * 1000
        assert len(log) == channel.retransmits

    def test_error_mode_surfaces_drops(self):
        channel, delivered, log = self._send(seed=5, mode="error")
        assert 0 < len(delivered) < 40
        assert channel.retransmits == 0
        assert len(log) == 40 - len(delivered)

    def test_same_seed_same_drop_schedule(self):
        _, delivered_a, log_a = self._send(seed=9, mode="error")
        _, delivered_b, log_b = self._send(seed=9, mode="error")
        assert delivered_a == delivered_b
        assert log_a == log_b
        _, delivered_c, _ = self._send(seed=10, mode="error")
        assert delivered_a != delivered_c

    def test_jitter_rng_untouched_when_disabled(self, sim):
        fault = Fault("channel-loss", "net", rate=0.5)
        model = ChannelFaults(fault, seed=1, record=lambda *a: None)
        drops = [model.sample_drop("net") for _ in range(20)]
        model2 = ChannelFaults(fault, seed=1, record=lambda *a: None)
        interleaved = []
        for _ in range(20):
            assert model2.sample_jitter() == 0.0  # must not consume the rng
            interleaved.append(model2.sample_drop("net"))
        assert drops == interleaved


class TestSchedulerFaults:
    def test_outage_fails_pending_and_restarts(self, sim):
        disk = DiskScheduler(sim, policy=Policy.FCFS)
        disk.start()
        plan = FaultPlan().scheduler_outage("disk", at=0.005, duration=0.05)
        FaultInjector(sim, plan).arm(schedulers={"disk": disk})
        outcomes = []

        # Four concurrent clients: the queue is non-empty when the outage
        # hits, so stop() really fails pending requests.
        def client(position):
            def attempt():
                return disk.read(position, 2_000_000)
            try:
                yield from with_retries(
                    sim, attempt,
                    RetryPolicy(max_attempts=6, base_delay_s=0.02))
            except FaultError:
                outcomes.append("lost")
            else:
                outcomes.append("ok")

        for i in range(4):
            sim.spawn(client((i * 100) % disk.cylinders))
        sim.run()
        assert outcomes == ["ok"] * 4           # retries rode out the outage
        assert disk.requests_failed >= 1        # the outage really bit
        assert disk.running                     # and the restart really fired

    def test_slowdown_scales_service_time(self, sim):
        disk = DiskScheduler(sim, policy=Policy.FCFS)
        disk.start()
        plan = FaultPlan().scheduler_slowdown("disk", at=0.0, duration=10.0,
                                              factor=2.0)
        FaultInjector(sim, plan).arm(schedulers={"disk": disk})

        def client():
            return (yield disk.read(200, 480_000))

        request = sim.run_until_complete(sim.spawn(client()))
        # 2 x (200 cylinders * 20 us + 480000/48e6) = 2 x 0.014
        assert request.completed_at == pytest.approx(0.028)


class TestProcessFaults:
    def test_crash_counts_as_fault_not_failure(self, sim):
        def worker():
            yield Delay(10.0)

        proc = sim.spawn(worker(), name="worker")
        plan = FaultPlan().process_crash("worker", at=1.0)
        FaultInjector(sim, plan).arm(processes={"worker": proc})
        sim.run()                                # must NOT raise
        assert proc.done
        assert isinstance(proc.error, FaultError)
        metrics = sim.obs.metrics
        assert metrics.counter("sim.process_faults").value == 1
        assert metrics.counter("sim.process_failures").value == 0

    def test_hang_wedges_until_timeout(self, sim):
        def worker():
            yield Delay(10.0)
            return "never"

        proc = sim.spawn(worker(), name="worker")
        plan = FaultPlan().process_hang("worker", at=1.0)
        FaultInjector(sim, plan).arm(processes={"worker": proc})
        seen = []

        def watcher():
            try:
                yield Timeout(proc, 5.0)
            except DeadlineExceeded:
                seen.append(sim.now.seconds)

        sim.spawn(watcher())
        sim.run()
        assert seen == [pytest.approx(5.0)]     # bounded, not deadlocked
        assert proc._abandoned and not proc.done

    def test_injection_log_is_deterministic(self, sim):
        def run_once():
            simulator = Simulator()
            disk = DiskScheduler(simulator, policy=Policy.CSCAN)
            disk.start()
            plan = (FaultPlan(seed=2)
                    .scheduler_outage("disk", at=0.01, duration=0.02)
                    .scheduler_outage("disk", at=0.08, duration=0.01))
            injector = FaultInjector(simulator, plan).arm(
                schedulers={"disk": disk})

            def client():
                for i in range(10):
                    try:
                        yield from with_retries(
                            simulator,
                            lambda p=i * 37: disk.read(p, 1_000_000),
                            RetryPolicy(max_attempts=4, base_delay_s=0.01))
                    except FaultError:
                        pass

            simulator.spawn(client())
            simulator.run()
            return injector.log

        log_a, log_b = run_once(), run_once()
        assert log_a == log_b
        assert log_a  # the plan actually fired


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(base_delay_s=0.1, factor=3.0, max_delay_s=0.5)
        assert [policy.delay_for(i) for i in range(4)] == \
            pytest.approx([0.1, 0.3, 0.5, 0.5])

    def test_retry_timing_in_virtual_time(self, sim):
        calls = []

        def attempt():
            calls.append(sim.now.seconds)
            yield Delay(0.1)
            if len(calls) < 3:
                raise FaultError("transient")
            return "ok"

        def client():
            result = yield from with_retries(
                sim, attempt,
                RetryPolicy(max_attempts=4, base_delay_s=0.25, factor=2.0))
            return result

        result = sim.run_until_complete(sim.spawn(client()))
        assert result == "ok"
        # fail@0.1 + 0.25 backoff -> 0.35; fail@0.45 + 0.5 -> 0.95
        assert calls == pytest.approx([0.0, 0.35, 0.95])
        assert sim.obs.metrics.counter("faults.retries").value == 2

    def test_exhaustion_reraises(self, sim):
        def attempt():
            yield Delay(0.01)
            raise FaultError("always")

        def client():
            yield from with_retries(sim, attempt,
                                    RetryPolicy(max_attempts=2,
                                                base_delay_s=0.01))

        proc = sim.spawn(client())
        sim.run()  # FaultError deaths do not abort the run
        assert isinstance(proc.error, FaultError)
        assert sim.obs.metrics.counter("faults.retries").value == 1

    def test_non_transient_errors_pass_through(self, sim):
        def attempt():
            yield Delay(0.01)
            raise ValueError("logic bug")

        def client():
            yield from with_retries(sim, attempt)

        sim.spawn(client())
        with pytest.raises(ValueError, match="logic bug"):
            sim.run()
        assert sim.obs.metrics.counter("faults.retries").value == 0


class TestDeadlinesAndSupervision:
    def test_timeout_loses_tie_at_exact_deadline(self, sim):
        event = sim.event("exact")
        sim.schedule_at(WorldTime(1.0), event.trigger)
        outcome = []

        def client():
            try:
                yield Timeout(event, 1.0)
            except DeadlineExceeded:
                outcome.append("timeout")
            else:
                outcome.append("payload")

        sim.spawn(client())
        sim.run()
        assert outcome == ["timeout"]           # timer scheduled first wins

    def test_supervised_restarts_crashed_worker(self, sim):
        attempts = []

        def make_worker():
            def worker():
                attempts.append(sim.now.seconds)
                yield Delay(0.1)
                if len(attempts) < 3:
                    raise FaultError("crash")
                return "done"
            return worker()

        def guardian():
            return (yield from supervised(sim, make_worker, max_restarts=3,
                                          backoff=RetryPolicy(base_delay_s=0.05,
                                                              factor=1.0)))

        assert sim.run_until_complete(sim.spawn(guardian())) == "done"
        assert len(attempts) == 3
        assert sim.obs.metrics.counter("faults.restarts").value == 2

    def test_supervised_gives_up_after_max_restarts(self, sim):
        def make_worker():
            def worker():
                yield Delay(0.1)
                raise FaultError("crash")
            return worker()

        def guardian():
            yield from supervised(sim, make_worker, max_restarts=1)

        proc = sim.spawn(guardian())
        sim.run()
        assert isinstance(proc.error, FaultError)
        assert sim.obs.metrics.counter("faults.restarts").value == 1

    def test_supervised_adopts_prespawned_process(self, sim):
        def worker():
            yield Delay(0.1)
            return "first"

        first = sim.spawn(worker(), name="adopted")

        def guardian():
            return (yield from supervised(
                sim, lambda: worker(), first_process=first))

        assert sim.run_until_complete(sim.spawn(guardian())) == "first"
        assert sim.obs.metrics.counter("faults.restarts").value == 0


class TestSessionDegradation:
    def _system_with_video(self, channel_factor):
        from repro.avdb import AVDatabaseSystem
        from repro.storage import MagneticDisk
        from repro.synth import moving_scene

        system = AVDatabaseSystem()
        system.add_storage(MagneticDisk(system.simulator, "disk0"))
        video_a = moving_scene(6, 32, 24, seed=1)
        video_b = moving_scene(6, 32, 24, seed=2)
        for video in (video_a, video_b):
            system.store_value(video, "disk0")
        rate = video_a.data_rate_bps()
        session = system.open_session("s", channel_bps=rate * channel_factor)
        return system, session, video_a, video_b

    def test_second_stream_degrades_instead_of_failing(self):
        system, session, video_a, video_b = self._system_with_video(1.5)
        with session:
            session.connect(session.new_db_source(video_a),
                            session.new_video_window(name="a")).start()
            window_b = session.new_video_window(name="b")
            stream = session.connect(session.new_db_source(video_b), window_b,
                                     degrade=True)
            stream.start()
            session.run()
            assert len(window_b.presented) == 6  # delivered, just slower
        assert session.degraded_streams == 1
        assert system.metrics.counter("faults.degraded_sessions").value == 1

    def test_without_degrade_admission_still_fails(self):
        _, session, video_a, video_b = self._system_with_video(1.5)
        with session:
            session.connect(session.new_db_source(video_a),
                            session.new_video_window(name="a")).start()
            with pytest.raises(AdmissionError):
                session.connect(session.new_db_source(video_b),
                                session.new_video_window(name="b"))
        assert session.degraded_streams == 0

    def test_degradation_respects_minimum_floor(self):
        _, session, video_a, video_b = self._system_with_video(1.1)
        with session:
            session.connect(session.new_db_source(video_a),
                            session.new_video_window(name="a")).start()
            # Only 10% of the rate is left — below the 25% floor.
            with pytest.raises(AdmissionError, match="degraded floor"):
                session.connect(session.new_db_source(video_b),
                                session.new_video_window(name="b"),
                                degrade=True)
        assert session.degraded_streams == 0


class TestScenarios:
    """The CLI scenarios: deterministic, and recovery must help."""

    @pytest.mark.parametrize("name", ["disk-outage", "crash-recovery"])
    def test_scenarios_are_deterministic(self, name):
        from repro.faults import SCENARIOS
        from repro.obs import scoped

        def run():
            with scoped():
                return SCENARIOS[name](seed=11, recover=True)

        assert run() == run()

    def test_recovery_beats_no_recovery(self):
        from repro.faults import SCENARIOS
        from repro.obs import scoped

        for name, scenario in SCENARIOS.items():
            with scoped():
                with_rec = scenario(seed=4, recover=True)["delivered_qos"]
            with scoped():
                without = scenario(seed=4, recover=False)["delivered_qos"]
            assert with_rec > without, name


class TestFaultPlanComposition:
    """merge()/validate(): deterministic combination, loud contradiction."""

    def test_merge_dedupes_sorts_and_keeps_first_seed(self):
        a = (FaultPlan(seed=5)
             .node_outage("node-0", at=2.0, duration=0.5)
             .channel_loss("net", rate=0.1))
        b = (FaultPlan(seed=9)
             .node_outage("node-0", at=2.0, duration=0.5)   # exact duplicate
             .edge_cache_outage("edge-0", at=1.0, duration=0.3))
        merged = FaultPlan.merge(a, b)
        assert merged.seed == 5
        assert len(merged) == 3                              # duplicate collapsed
        assert [f.at for f in merged] == sorted(f.at for f in merged)
        assert FaultPlan.merge(a, b, seed=42).seed == 42
        with pytest.raises(SimulationError, match="at least one plan"):
            FaultPlan.merge()

    def test_merge_rejects_conflicting_outage_windows(self):
        a = FaultPlan(seed=0).node_outage("node-0", at=1.0, duration=1.0)
        b = FaultPlan(seed=0).node_outage("node-0", at=1.5, duration=2.0)
        with pytest.raises(SimulationError, match="conflicting restore"):
            FaultPlan.merge(a, b)
        # duration=0 means "never restored": conflicts with any later window.
        c = FaultPlan(seed=0).edge_cache_outage("edge-0", at=1.0)
        d = FaultPlan(seed=0).edge_cache_outage("edge-0", at=5.0, duration=0.1)
        with pytest.raises(SimulationError, match="conflicting restore"):
            FaultPlan.merge(c, d)

    def test_merge_rejects_two_loss_models_on_one_channel(self):
        a = FaultPlan(seed=0).channel_loss("net", rate=0.1)
        b = FaultPlan(seed=0).channel_loss("net", rate=0.2)
        with pytest.raises(SimulationError, match="two different loss models"):
            FaultPlan.merge(a, b)

    def test_disjoint_windows_on_one_target_are_coherent(self):
        plan = (FaultPlan(seed=0)
                .node_outage("node-0", at=1.0, duration=0.5)
                .node_outage("node-0", at=2.0, duration=0.5))
        assert plan.validate() is plan

    def test_to_dict_roundtrip(self):
        plan = (FaultPlan(seed=3)
                .edge_cache_outage("edge-1", at=0.5, duration=0.25)
                .channel_loss("edge-1.nic", rate=0.05, jitter_s=0.001))
        doc = plan.to_dict()
        assert doc["seed"] == plan.seed
        assert [Fault(**fields) for fields in doc["faults"]] == plan.faults


class TestEdgeCacheFaults:
    """The edge-cache-outage kind against a live cache tier."""

    def _tier(self, sim, edges=2):
        from repro.cache import CacheTier
        from repro.cluster import ClusterPlacementManager, StorageNode

        cluster = ClusterPlacementManager(sim, replication=2)
        for i in range(3):
            cluster.add_node(StorageNode(sim, f"node-{i}"))
        tier = CacheTier(sim, cluster, edges=edges, hot_threshold=10_000)
        return cluster, tier

    def _read_all(self, sim, tier, blob, done):
        stream = tier.open_read(blob, 6_000_000.0, label="viewer",
                                queue_timeout_s=1.0)
        total = blob.data_size_bits()
        with stream:
            while stream.bits_read < total:
                yield from stream.read(min(240_000, total - stream.bits_read))
        done.append(stream.digest)

    def test_outage_kills_and_restores_the_edge(self):
        from repro.cluster.scenarios import Blob
        from repro.obs import scoped

        with scoped():
            sim = Simulator()
            cluster, tier = self._tier(sim)
            blob = Blob(90_000)
            cluster.place(blob)
            plan = FaultPlan(seed=0).edge_cache_outage("edge-0", at=0.01,
                                                       duration=0.3)
            injector = FaultInjector(sim, plan).arm(edges=tier.edges)
            done = []

            def client():
                yield Delay(0.05)            # arrive mid-outage
                yield from self._read_all(sim, tier, blob, done)

            sim.spawn(client(), "client")
            sim.run()
            edge = tier.edge("edge-0")
            assert edge.deaths == 1
            assert edge.live                 # restored at t=0.31
            assert injector.injected == 1
            assert injector.log[0][1:] == ("edge-cache-outage", "edge-0")
            assert done                      # the read survived the outage

    def test_single_edge_outage_degrades_to_passthrough(self):
        from repro.cluster.scenarios import Blob
        from repro.obs import scoped

        with scoped():
            sim = Simulator()
            cluster, tier = self._tier(sim, edges=1)
            blob = Blob(90_000)
            cluster.place(blob)
            plan = FaultPlan(seed=0).edge_cache_outage("edge-0", at=0.01,
                                                       duration=5.0)
            FaultInjector(sim, plan).arm(edges=tier.edges)
            done = []

            def client():
                yield Delay(0.05)            # no live edge left
                yield from self._read_all(sim, tier, blob, done)

            sim.spawn(client(), "client")
            sim.run()
            metrics = sim.obs.metrics
            metrics.flush()
            assert done
            assert metrics.get("cache.passthrough").value > 0
            assert tier.edge("edge-0").deaths == 1

    def test_unknown_edge_target_raises_at_arm_time(self, sim):
        from repro.obs import scoped

        with scoped():
            _, tier = self._tier(sim)
            plan = FaultPlan(seed=0).edge_cache_outage("edge-9", at=0.1,
                                                       duration=0.1)
            with pytest.raises(SimulationError, match="names edge 'edge-9'"):
                FaultInjector(sim, plan).arm(edges=tier.edges)

    def test_edge_and_node_namespaces_stay_separate(self, sim):
        from repro.obs import scoped

        with scoped():
            _, tier = self._tier(sim)
            # A plan naming a *node* cannot quietly hit an edge.
            plan = FaultPlan(seed=0).node_outage("node-0", at=0.1,
                                                 duration=0.1)
            with pytest.raises(SimulationError, match="names node"):
                FaultInjector(sim, plan).arm(edges=tier.edges)
