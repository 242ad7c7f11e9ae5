"""Directed tests for paths the feature suites don't hit head-on:
disconnect/teardown, EOS ordering over latency, event un-subscription,
composite cue propagation, negotiation edge cases."""

import pytest

from repro.activities import ActivityGraph, Location, MultiSink, MultiSource
from repro.activities.library import Speaker, SubtitleWindow, VideoReader, VideoWindow
from repro.activities.ports import Connection
from repro.avtime import Interval, WorldTime
from repro.errors import ConnectionError_, PlacementError
from repro.net import Channel
from repro.streams.element import END_OF_STREAM, EndOfStream
from repro.synth import moving_scene, newscast_clip


class TestConnectionTeardown:
    def test_disconnect_frees_ports_and_reservation(self, sim, small_video):
        channel = Channel(sim, capacity_bps=10_000_000)
        reservation = channel.reserve(1_000_000)
        reader = VideoReader(sim)
        reader.bind(small_video)
        window = VideoWindow(sim)
        connection = Connection(sim, reader.port("video_out"),
                                window.port("video_in"),
                                reservation=reservation)
        connection.disconnect()
        assert not reader.port("video_out").connected
        assert not window.port("video_in").connected
        assert reservation.released
        assert channel.available_bps == channel.capacity_bps
        # Ports are reusable after disconnect.
        Connection(sim, reader.port("video_out"), window.port("video_in"))

    def test_eos_ordering_over_latency_path(self, sim, small_video):
        """EOS rides the delayed-delivery path: it must arrive after the
        last element even with propagation latency."""
        channel = Channel(sim, capacity_bps=1e9, latency_s=0.02)
        reservation = channel.reserve(1e8)
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim))
        reader.bind(small_video)
        window = graph.add(VideoWindow(sim))
        graph.connect(reader.port("video_out"), window.port("video_in"),
                      reservation=reservation)
        graph.run_to_completion()
        assert len(window.presented) == small_video.num_frames


class TestCompositeCue:
    def test_cue_propagates_to_components(self, sim):
        clip = newscast_clip(video_frames=12, audio_seconds=0.4)
        source = MultiSource(sim, name="s")
        video_reader = VideoReader(sim, name="vr")
        video_reader.bind(clip.value("videoTrack"))
        source.install(video_reader, track="videoTrack")
        source.cue(WorldTime(0.2))
        assert video_reader._cue_position == WorldTime(0.2)


class TestEndOfStreamSentinel:
    def test_singleton(self):
        assert EndOfStream() is END_OF_STREAM
        assert repr(END_OF_STREAM) == "END_OF_STREAM"


class TestConnectCompositesFailure:
    def test_no_matching_in_port(self, sim, small_video):
        source = MultiSource(sim, name="src")
        reader = VideoReader(sim, name="r")
        reader.bind(small_video)
        source.install(reader, track="videoTrack")
        sink = MultiSink(sim, name="snk")
        speaker = Speaker(sim, name="sp")  # audio-only sink
        sink.install(speaker, track="audioTrack")
        graph = ActivityGraph(sim)
        graph.add(source)
        graph.add(sink)
        with pytest.raises(ConnectionError_, match="no in-port"):
            graph.connect_composites(source, sink)

    def test_empty_source_rejected(self, sim):
        from repro.errors import GraphError
        source = MultiSource(sim)
        sink = MultiSink(sim)
        graph = ActivityGraph(sim)
        graph.add(source)
        graph.add(sink)
        with pytest.raises(GraphError, match="exports no out ports"):
            graph.connect_composites(source, sink)


class TestPlacementEdges:
    def test_copy_with_no_bandwidth_fails_cleanly(self, sim):
        from repro.storage import MagneticDisk, PlacementManager
        manager = PlacementManager(sim)
        video = moving_scene(5)
        src = MagneticDisk(sim, "src")
        dst = MagneticDisk(sim, "dst")
        manager.add_device(src)
        manager.add_device(dst)
        manager.place(video, "src")
        dst.reserve(dst.bandwidth_bps)  # saturate the destination
        used_before = dst.allocator.used_bytes

        def copier():
            yield from manager.copy(video, "dst")

        proc = sim.spawn(copier())
        with pytest.raises(PlacementError, match="no streaming bandwidth"):
            sim.run_until_complete(proc)
        # The pre-allocated destination extent was rolled back.
        assert dst.allocator.used_bytes == used_before
        assert manager.device_of(video).name == "src"

    def test_duplicate_device_rejected(self, sim):
        from repro.storage import MagneticDisk, PlacementManager
        manager = PlacementManager(sim)
        manager.add_device(MagneticDisk(sim, "d"))
        with pytest.raises(PlacementError, match="already registered"):
            manager.add_device(MagneticDisk(sim, "d"))


class TestIntervalEdges:
    def test_is_empty_and_union(self):
        empty = Interval(WorldTime(1.0), WorldTime(0.0))
        assert empty.is_empty()
        other = Interval(WorldTime(3.0), WorldTime(1.0))
        assert empty.union_span(other) == Interval.between(WorldTime(1.0),
                                                           WorldTime(4.0))


class TestQualityEdges:
    def test_scale_reduces_depth_when_requested(self):
        from repro.quality import VideoQuality, scale_video_quality
        stored = VideoQuality(64, 48, 24, 30.0)
        plan = scale_video_quality(stored, VideoQuality(64, 48, 8, 30.0))
        assert plan.delivered.depth == 8


class TestSessionMisc:
    def test_subtitle_window_and_jittered_source(self):
        from repro.avdb import AVDatabaseSystem
        from repro.streams.sync import RandomWalkJitter
        from repro.synth import subtitle_track
        system = AVDatabaseSystem()
        session = system.open_session()
        source = session.new_db_source(
            subtitle_track(["a", "b"], rate=2.0),
            jitter=RandomWalkJitter(step=0.001, seed=1),
        )
        window = session.new_activity(SubtitleWindow(
            system.simulator, location=Location.APPLICATION))
        session.connect(source, window).start()
        session.run()
        assert window.texts() == ["a", "b"]

    def test_connect_rejects_multi_port_activity_without_port(self, sim):
        from repro.avdb import AVDatabaseSystem
        from repro.activities.library import VideoMixer
        from repro.errors import SessionError
        system = AVDatabaseSystem()
        session = system.open_session()
        mixer = session.new_activity(VideoMixer(system.simulator))
        window = session.new_video_window()
        with pytest.raises(SessionError, match="pass the port explicitly"):
            session.connect(window, mixer)  # mixer has 2 in ports


class TestEmptyStatistics:
    """What a statistic answers before it has seen anything."""

    def test_histogram(self):
        from repro.obs.metrics import Histogram

        histogram = Histogram("h", (1.0, 2.0))
        assert histogram.percentile(95) == 0.0
        histogram.observe(5.0)
        assert histogram.percentile(100) == 5.0

    def test_presentation_log(self):
        from repro.streams.clock import PresentationLog

        log = PresentationLog()
        assert log.jitter() == 0.0
        assert log.latency_at_ideal(WorldTime(1.0)) is None

    def test_sync_group(self):
        from repro.streams.sync import SyncGroup

        assert SyncGroup().current_skew() == 0.0
