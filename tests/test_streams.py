"""Stream machinery: buffers with backpressure, presentation logs,
skew computation, jitter models and resynchronization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.avtime import WorldTime
from repro.errors import SimulationError, TemporalError
from repro.sim import Delay
from repro.streams import (
    NoJitter,
    PresentationLog,
    RandomWalkJitter,
    Resynchronizer,
    StreamBuffer,
    SyncGroup,
    skew_between,
)


class TestStreamBuffer:
    def test_fifo_order(self, sim):
        buffer = StreamBuffer(sim, capacity=4)
        received = []

        def producer():
            for i in range(6):
                yield from buffer.put(i)

        def consumer():
            for _ in range(6):
                item = yield from buffer.get()
                received.append(item)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert received == list(range(6))

    def test_producer_blocks_when_full(self, sim):
        buffer = StreamBuffer(sim, capacity=2)
        produced_at = []

        def producer():
            for i in range(4):
                yield from buffer.put(i)
                produced_at.append(sim.now.seconds)

        def slow_consumer():
            for _ in range(4):
                yield Delay(1.0)
                yield from buffer.get()

        sim.spawn(producer())
        sim.spawn(slow_consumer())
        sim.run()
        # First two go immediately; the rest wait for consumption slots.
        assert produced_at[0] == 0.0 and produced_at[1] == 0.0
        assert produced_at[2] >= 1.0 and produced_at[3] >= 2.0
        assert buffer.producer_stalls >= 2

    def test_consumer_blocks_when_empty(self, sim):
        buffer = StreamBuffer(sim, capacity=2)
        got_at = []

        def consumer():
            item = yield from buffer.get()
            got_at.append((item, sim.now.seconds))

        def late_producer():
            yield Delay(3.0)
            yield from buffer.put("x")

        sim.spawn(consumer())
        sim.spawn(late_producer())
        sim.run()
        assert got_at == [("x", 3.0)]
        assert buffer.consumer_stalls == 1

    def test_high_watermark(self, sim):
        buffer = StreamBuffer(sim, capacity=8)

        def producer():
            for i in range(5):
                yield from buffer.put(i)

        sim.spawn(producer())
        sim.run()
        assert buffer.high_watermark == 5

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimulationError):
            StreamBuffer(sim, capacity=0)

    def test_one_stall_per_blocking_episode(self, sim):
        # A blocked producer that is woken, barged past by another
        # producer, and re-waits is still in the *same* stall — the
        # counter used to tick once per wakeup-recheck iteration.
        buffer = StreamBuffer(sim, capacity=1)

        def producer():
            yield from buffer.put("b0")
            yield from buffer.put("b1")     # blocks; barged past twice

        def consumer():
            got = []
            for _ in range(4):
                yield Delay(1.0)
                item = yield from buffer.get()
                got.append(item)
            return got

        def thief():
            # Runs after the consumer each tick: steals the freed slot
            # before the blocked producer's wakeup fires.
            for i in range(2):
                yield Delay(1.0)
                yield from buffer.put(f"t{i}")

        sim.spawn(producer())
        consumer_proc = sim.spawn(consumer())
        sim.spawn(thief())
        got = sim.run_until_complete(consumer_proc)
        assert got == ["b0", "t0", "t1", "b1"]
        assert buffer.producer_stalls == 1
        assert sim.obs.metrics.counter("stream.producer_stalls").value == 1


class TestTimedHandOff:
    """``deposit``: nothing downstream sees an element before its time
    (the model test against the delivery processes this replaced is in
    ``tests/test_stream_runs.py``)."""

    def test_nothing_is_seen_before_its_arrival_time(self, sim):
        buffer = StreamBuffer(sim, capacity=2)
        for item, at in enumerate([1.0, 1.0, 2.5, 2.5]):
            buffer.deposit(item, at)
        got = []

        def consumer():
            for _ in range(4):
                item = yield from buffer.get()
                got.append((sim.now.seconds, item, len(buffer)))

        sim.spawn(consumer())
        sim.run(until=WorldTime(0.5))
        assert (len(buffer), buffer.total_put, got) == (0, 0, [])
        sim.run()
        assert got == [(1.0, 0, 1), (1.0, 1, 0), (2.5, 2, 1), (2.5, 3, 0)]
        assert buffer.consumer_stalls == 2 and buffer.producer_stalls == 0

    def test_statistics_settle_when_read_without_a_consumer(self, sim):
        buffer = StreamBuffer(sim, capacity=2)
        for item in range(4):
            buffer.deposit(item, 1.0 + item)
        snapshot = sim.obs.metrics.snapshot
        assert snapshot()["stream.elements_buffered"] == 0
        sim.run(until=WorldTime(3.5))
        # Three are due; the third found the buffer full, as its
        # delivery process would have.
        assert snapshot()["stream.elements_buffered"] == 2
        assert (buffer.total_put, buffer.high_watermark, len(buffer),
                buffer.producer_stalls) == (2, 2, buffer.capacity, 1)
        assert sim.now.seconds == 3.5 and sim.live_processes == 0

    def test_a_withdrawn_arrival_never_arrives(self, sim):
        buffer = StreamBuffer(sim, capacity=4)
        buffer.deposit("kept", 1.0)
        buffer.deposit("withdrawn", 2.0)
        buffer.deposit("withdrawn too", 3.0)
        got = []

        def consumer():
            while True:
                got.append((yield from buffer.get()))

        sim.spawn(consumer())
        sim.run(until=WorldTime(1.5))
        buffer.withdraw(2)
        buffer.deposit("sent again", 5.0)
        # The cancelled wake-up at 2.0 neither fires nor moves the clock.
        assert sim.run().seconds == 5.0
        assert got == ["kept", "sent again"]

    def test_close_releases_a_blocked_producer(self, sim):
        buffer = StreamBuffer(sim, capacity=1)

        def producer():
            for item in range(3):
                yield from buffer.put(item)
            return "done"

        process = sim.spawn(producer())
        sim.run()
        assert not process.done and buffer.producer_stalls == 1
        buffer.close()
        sim.run()
        assert process.result == "done" and len(buffer) == 1


class TestPresentationLog:
    def make_log(self, latencies):
        log = PresentationLog("test")
        for i, latency in enumerate(latencies):
            ideal = WorldTime(i * 0.1)
            log.record(i, ideal, ideal + WorldTime(latency))
        return log

    def test_latency_statistics(self):
        log = self.make_log([0.01, 0.03, 0.02])
        assert log.mean_latency() == pytest.approx(0.02)
        assert log.max_latency() == pytest.approx(0.03)
        assert log.jitter() == pytest.approx(0.02)

    def test_empty_log_raises(self):
        log = PresentationLog("empty")
        with pytest.raises(TemporalError):
            log.mean_latency()

    def test_skew_between_identical_logs_is_zero(self):
        a = self.make_log([0.05] * 10)
        b = self.make_log([0.05] * 10)
        assert max(abs(s) for s in skew_between(a, b)) == pytest.approx(0.0)

    def test_skew_detects_drift(self):
        a = self.make_log([0.001 * i for i in range(20)])  # drifting
        b = self.make_log([0.0] * 20)  # on time
        series = skew_between(a, b)
        assert series[-1] > series[0]
        assert max(series) > 0.01

    def test_skew_requires_overlap(self):
        a = self.make_log([0.0] * 5)
        b = PresentationLog("later")
        b.record(0, WorldTime(100.0), WorldTime(100.0))
        with pytest.raises(TemporalError, match="overlap"):
            skew_between(a, b)

    def test_shared_latency_cancels_in_skew(self):
        """Skew measures relative drift, not absolute delay."""
        a = self.make_log([0.5] * 10)
        b = self.make_log([0.5] * 10)
        assert max(abs(s) for s in skew_between(a, b)) == pytest.approx(0.0)


class TestJitterModels:
    def test_no_jitter_is_zero(self):
        model = NoJitter()
        assert all(model.offset(i) == 0.0 for i in range(10))

    def test_random_walk_is_deterministic_per_seed(self):
        def walk(seed):
            model = RandomWalkJitter(seed=seed)
            return [model.offset(i) for i in range(50)]

        assert walk(7) == walk(7)
        assert walk(7) != walk(8)

    def test_random_walk_accumulates_with_bias(self):
        model = RandomWalkJitter(step=0.01, bias=2.0, seed=1)
        early = [model.offset(i) for i in range(10)]
        late = [model.offset(i) for i in range(200, 210)]
        assert sum(late) > sum(early)  # upward drift

    def test_drift_bounded_by_ceiling(self):
        model = RandomWalkJitter(step=0.1, bias=5.0, ceiling=0.3, seed=2)
        offsets = [model.offset(i) for i in range(500)]
        assert max(offsets) <= 0.3
        assert min(offsets) >= 0.0

    def test_reset_drift(self):
        model = RandomWalkJitter(step=0.05, bias=3.0, seed=3)
        for i in range(50):
            model.offset(i)
        assert model.drift > 0
        model.reset_drift()
        assert model.drift == 0.0


class TestResynchronizer:
    def test_resync_every_interval(self):
        resync = Resynchronizer(interval=10)
        model = RandomWalkJitter(step=0.05, bias=3.0, seed=4)
        max_with_resync = 0.0
        for i in range(100):
            resync.maybe_resync(i, model)
            max_with_resync = max(max_with_resync, model.offset(i))
        assert resync.resync_count == 9
        # Without resync the same walk drifts much further.
        unsynced = RandomWalkJitter(step=0.05, bias=3.0, seed=4)
        max_unsynced = max(unsynced.offset(i) for i in range(100))
        assert max_with_resync < max_unsynced

    def test_invalid_interval(self):
        with pytest.raises(TemporalError):
            Resynchronizer(interval=0)


class TestSyncGroup:
    def test_skew_is_spread_of_drifts(self):
        group = SyncGroup()
        group.register("video")
        group.register("audio")
        group.report("video", 0.08)
        group.report("audio", 0.02)
        assert group.current_skew() == pytest.approx(0.06)
        # History includes the instant after the first report, when audio
        # still sat at drift 0 (spread 0.08).
        assert group.max_skew() == pytest.approx(0.08)

    def test_duplicate_member_rejected(self):
        group = SyncGroup()
        group.register("a")
        with pytest.raises(TemporalError):
            group.register("a")

    def test_unknown_member_report_rejected(self):
        group = SyncGroup()
        with pytest.raises(TemporalError):
            group.report("ghost", 0.1)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=20))
    @settings(max_examples=30)
    def test_max_skew_monotone_nondecreasing(self, drifts):
        group = SyncGroup()
        group.register("a")
        group.register("b")
        previous = 0.0
        for drift in drifts:
            group.report("a", drift)
            current = group.max_skew()
            assert current >= previous - 1e-12
            previous = current


class TestStreamMetrics:
    """Streams publish buffer and presentation metrics by default."""

    def test_buffer_occupancy_and_stalls(self, sim):
        buffer = StreamBuffer(sim, capacity=2)

        def producer():
            for i in range(5):
                yield from buffer.put(i)

        def consumer():
            for _ in range(5):
                yield Delay(0.1)     # slower than the producer: it stalls
                yield from buffer.get()

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        metrics = sim.obs.metrics
        assert metrics.counter("stream.elements_buffered").value == 5
        assert metrics.counter("stream.producer_stalls").value > 0
        occupancy = metrics.histogram("stream.buffer_occupancy")
        assert occupancy.count == 5
        assert occupancy.max <= 2

    def test_sink_latency_and_jitter_metrics(self, sim):
        from repro.activities import ActivityGraph
        from repro.activities.library import VideoReader, VideoWindow
        from repro.synth import moving_scene

        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim, name="read",
                                       jitter=RandomWalkJitter(0.002, seed=3)))
        reader.bind(moving_scene(12, 32, 24))
        window = graph.add(VideoWindow(sim, name="display"))
        graph.connect(reader.port("video_out"), window.port("video_in"))
        graph.run_to_completion()
        metrics = sim.obs.metrics
        assert metrics.counter("stream.elements_presented").value == 12
        latency = metrics.histogram("stream.latency_ms")
        assert latency.count == 12
        assert latency.max > 0
        jitter = metrics.histogram("stream.jitter_ms")
        assert jitter.count == 11        # successive-presentation deltas
        assert jitter.max > 0            # the jitter model really perturbed
