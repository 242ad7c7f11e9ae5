"""Composite activities: export rules, Fig. 2 equivalence, MultiSource /
MultiSink pairing, synchronization maintenance."""

import numpy as np
import pytest

from repro.activities import (
    ActivityGraph,
    ActivityState,
    CompositeActivity,
    MultiSink,
    MultiSource,
)
from repro.activities.library import (
    Speaker,
    SubtitleWindow,
    VideoDecoder,
    VideoReader,
    VideoWindow,
)
from repro.activities.ports import Connection
from repro.codecs import JPEGCodec
from repro.errors import ActivityError, PortError
from repro.sim import Simulator
from repro.streams.sync import RandomWalkJitter


def fig2_simple_chain(sim, encoded, codec):
    """Fig. 2 top: read -> decode -> display as three graph activities."""
    graph = ActivityGraph(sim)
    reader = graph.add(VideoReader(sim, name="read"))
    reader.bind(encoded)
    decoder = graph.add(VideoDecoder(sim, codec, encoded.width, encoded.height,
                                     encoded.depth, name="decode"))
    window = graph.add(VideoWindow(sim, name="display"))
    graph.connect(reader.port("video_out"), decoder.port("video_in"))
    graph.connect(decoder.port("video_out"), window.port("video_in"))
    return graph, window


def fig2_composite(sim, encoded, codec):
    """Fig. 2 bottom: source = {read, decode}; source -> display."""
    graph = ActivityGraph(sim)
    source = CompositeActivity(sim, name="source")
    reader = VideoReader(sim, name="read2")
    reader.bind(encoded)
    decoder = VideoDecoder(sim, codec, encoded.width, encoded.height,
                           encoded.depth, name="decode2")
    source.install(reader)
    source.install(decoder)
    Connection(sim, reader.port("video_out"), decoder.port("video_in"))
    out = source.export(decoder.port("video_out"), "out")
    graph.add(source)
    window = graph.add(VideoWindow(sim, name="display2"))
    graph.connect(out, window.port("video_in"))
    return graph, window


class TestFig2:
    def test_composite_equivalent_to_chain(self, small_video):
        codec = JPEGCodec(85)
        encoded = codec.encode_value(small_video)
        sim1, sim2 = Simulator(), Simulator()
        g1, w1 = fig2_simple_chain(sim1, encoded, codec)
        g2, w2 = fig2_composite(sim2, JPEGCodec(85).encode_value(small_video),
                                JPEGCodec(85))
        g1.run_to_completion()
        g2.run_to_completion()
        assert len(w1.presented) == len(w2.presented)
        assert all(np.array_equal(a, b)
                   for a, b in zip(w1.presented, w2.presented))
        assert sim1.now.seconds == pytest.approx(sim2.now.seconds)


class TestExportRules:
    def test_export_requires_installed_component(self, sim):
        composite = CompositeActivity(sim)
        stranger = VideoReader(sim)
        with pytest.raises(PortError, match="not a port of an installed"):
            composite.export(stranger.port("video_out"))

    def test_export_preserves_direction_and_type(self, sim, small_video):
        composite = CompositeActivity(sim)
        reader = VideoReader(sim)
        reader.bind(small_video)
        composite.install(reader)
        proxy = composite.export(reader.port("video_out"), "out")
        assert proxy.direction is reader.port("video_out").direction
        assert proxy.media_type == reader.port("video_out").media_type
        assert proxy.resolve() is reader.port("video_out")

    def test_self_containment_rejected(self, sim):
        composite = CompositeActivity(sim)
        with pytest.raises(ActivityError, match="cannot contain itself"):
            composite.install(composite)

    def test_duplicate_component_rejected(self, sim):
        composite = CompositeActivity(sim)
        reader = VideoReader(sim, name="r")
        composite.install(reader)
        with pytest.raises(ActivityError, match="already installed"):
            composite.install(reader)

    def test_empty_composite_cannot_start(self, sim):
        with pytest.raises(ActivityError, match="no components"):
            CompositeActivity(sim).start()


class TestMultiSourceSink:
    def build(self, sim, clip, resync_interval=None, jitter_factory=None):
        source = MultiSource(sim, name="dbSource", resync_interval=resync_interval)
        for track in clip.track_names:
            value = clip.value(track)
            jitter = jitter_factory(track) if jitter_factory else None
            if track == "videoTrack":
                component = VideoReader(sim, name=f"src.{track}", jitter=jitter)
            elif track == "subtitleTrack":
                from repro.activities.library import TextReader
                component = TextReader(sim, name=f"src.{track}", jitter=jitter)
            else:
                from repro.activities.library import AudioReader
                component = AudioReader(sim, name=f"src.{track}", jitter=jitter)
            component.bind(value)
            source.install(component, track=track)
        sink = MultiSink(sim, name="appSink")
        window = VideoWindow(sim, name="win")
        english = Speaker(sim, name="en")
        french = Speaker(sim, name="fr")
        subs = SubtitleWindow(sim, name="subs")
        sink.install(window, track="videoTrack")
        sink.install(english, track="englishTrack")
        sink.install(french, track="frenchTrack")
        sink.install(subs, track="subtitleTrack")
        graph = ActivityGraph(sim)
        graph.add(source)
        graph.add(sink)
        graph.connect_composites(source, sink)
        return graph, source, sink, window, english, french, subs

    def test_port_pairing_by_track_name(self, sim, clip):
        graph, source, sink, *_ = self.build(sim, clip)
        pairs = {(c.source.owner.name, c.sink.owner.name)
                 for c in graph.connections}
        assert ("src.videoTrack", "win") in pairs
        assert ("src.englishTrack", "en") in pairs
        assert ("src.frenchTrack", "fr") in pairs
        assert ("src.subtitleTrack", "subs") in pairs

    def test_full_presentation(self, sim, clip):
        graph, source, sink, window, english, french, subs = self.build(sim, clip)
        graph.run_to_completion()
        assert len(window.presented) == clip.value("videoTrack").num_frames
        assert english.elements_consumed > 0
        assert french.elements_consumed > 0
        assert subs.texts()
        assert source.state is ActivityState.FINISHED

    def test_stop_propagates_to_components(self, sim, clip):
        graph, source, sink, window, *_ = self.build(sim, clip)
        graph.start_all()

        def stopper():
            from repro.sim import Delay
            yield Delay(0.1)
            source.stop()

        sim.spawn(stopper())
        graph.run()
        assert source.state is ActivityState.STOPPED
        assert all(c.finished for c in source.components.values())

    def test_sync_group_measures_jitter_spread(self, sim, clip):
        jitters = {
            "videoTrack": RandomWalkJitter(step=0.004, bias=2.0, seed=1),
            "englishTrack": RandomWalkJitter(step=0.0, seed=2),  # on time
        }
        graph, source, *_ = self.build(
            sim, clip,
            jitter_factory=lambda t: jitters.get(t),
        )
        graph.run_to_completion()
        assert source.max_skew() > 0.0

    def test_resync_bounds_skew(self, clip):
        def run(resync):
            sim = Simulator()
            graph, source, *_ = self.build(
                sim, clip, resync_interval=resync,
                jitter_factory=lambda t: RandomWalkJitter(
                    step=0.004, bias=2.5, seed=sum(map(ord, t))
                ),
            )
            graph.run_to_completion()
            return source.max_skew()

        assert run(resync=5) < run(resync=None)

    def test_multisource_requires_out_ports(self, sim):
        source = MultiSource(sim)
        window = VideoWindow(sim)  # a sink: no out ports
        with pytest.raises(ActivityError, match="no out ports"):
            source.install(window, track="videoTrack")

    def test_multisink_requires_in_ports(self, sim, small_video):
        sink = MultiSink(sim)
        reader = VideoReader(sim)
        with pytest.raises(ActivityError, match="no in ports"):
            sink.install(reader, track="videoTrack")


class TestCompositeBinding:
    def test_bind_composite_distributes_tracks(self, sim, clip):
        source = MultiSource(sim)
        readers = {}
        for track in ("videoTrack",):
            reader = VideoReader(sim, name=track)
            readers[track] = reader
            source.install(reader, track=track)
        from repro.activities.library import AudioReader, TextReader
        for track in ("englishTrack", "frenchTrack"):
            reader = AudioReader(sim, name=track)
            readers[track] = reader
            source.install(reader, track=track)
        text_reader = TextReader(sim, name="subtitleTrack")
        readers["subtitleTrack"] = text_reader
        source.install(text_reader, track="subtitleTrack")
        source.bind(clip)
        for track, reader in readers.items():
            assert reader.bound_value is clip.value(track)

    def test_bind_single_value_to_single_component(self, sim, small_video):
        composite = CompositeActivity(sim)
        reader = VideoReader(sim)
        composite.install(reader)
        composite.bind(small_video)
        assert reader.bound_value is small_video

    def test_bind_single_value_to_multi_component_rejected(self, sim, small_video):
        composite = CompositeActivity(sim)
        composite.install(VideoReader(sim, name="a"))
        composite.install(VideoReader(sim, name="b"))
        with pytest.raises(ActivityError, match="cannot bind a single value"):
            composite.bind(small_video)
