"""The activity model: ports, typed connections, events, lifecycle,
graph validation — paper §4.2's contracts."""

import pytest

from repro.activities import (
    ActivityGraph,
    ActivityKind,
    ActivityState,
    Connection,
    Direction,
    EVENT_EACH_FRAME,
    EVENT_FINISHED,
    EVENT_LAST_FRAME,
    EVENT_STARTED,
)
from repro.activities.library import (
    VideoDecoder,
    VideoMixer,
    VideoReader,
    VideoTee,
    VideoWindow,
    VideoWriter,
)
from repro.avtime import WorldTime
from repro.codecs import JPEGCodec
from repro.errors import (
    ActivityError,
    ActivityStateError,
    ConnectionError_,
    GraphError,
    PortError,
)
from repro.values.mediatype import standard_type


class TestPortsAndConnections:
    def test_port_direction_rules(self, sim, small_video):
        reader = VideoReader(sim)
        window = VideoWindow(sim)
        out_port = reader.port("video_out")
        in_port = window.port("video_in")
        assert out_port.direction is Direction.OUT
        assert in_port.direction is Direction.IN
        with pytest.raises(ConnectionError_, match="must be an 'out' port"):
            Connection(sim, in_port, in_port)
        with pytest.raises(ConnectionError_, match="must be an 'in' port"):
            Connection(sim, out_port, out_port)

    def test_same_data_type_rule(self, sim, small_video):
        """'An in port can be connected to an out port provided they are
        of the same data type.'"""
        codec = JPEGCodec(75)
        reader = VideoReader(sim)
        reader.bind(codec.encode_value(small_video))  # port narrows to jpeg
        window = VideoWindow(sim)  # accepts raw only
        with pytest.raises(ConnectionError_, match="type mismatch"):
            Connection(sim, reader.port("video_out"), window.port("video_in"))

    def test_double_connection_rejected(self, sim, small_video):
        reader = VideoReader(sim)
        reader.bind(small_video)
        w1, w2 = VideoWindow(sim), VideoWindow(sim)
        Connection(sim, reader.port("video_out"), w1.port("video_in"))
        with pytest.raises(ConnectionError_, match="use a tee"):
            Connection(sim, reader.port("video_out"), w2.port("video_in"))

    def test_port_narrowing(self, sim, small_video):
        reader = VideoReader(sim)
        assert reader.port("video_out").media_type.is_abstract
        reader.bind(small_video)
        assert reader.port("video_out").media_type.name == "video/raw"

    def test_narrow_incompatible_rejected(self, sim):
        reader = VideoReader(sim, media_type=standard_type("video/jpeg"))
        with pytest.raises(PortError):
            reader.port("video_out").narrow(standard_type("audio/pcm"))

    def test_unknown_port_name(self, sim):
        reader = VideoReader(sim)
        with pytest.raises(PortError, match="no port"):
            reader.port("audio_out")

    def test_duplicate_port_name_rejected(self, sim):
        reader = VideoReader(sim)
        with pytest.raises(PortError, match="already has a port"):
            reader.add_port("video_out", Direction.OUT, standard_type("video/raw"))

    def test_send_on_unconnected_port_fails(self, sim, small_video):
        reader = VideoReader(sim)
        reader.bind(small_video)
        reader.start()
        with pytest.raises(PortError, match="not connected"):
            sim.run()


class TestKindClassification:
    def test_source_sink_transformer(self, sim):
        assert VideoReader(sim).kind is ActivityKind.SOURCE
        assert VideoWindow(sim).kind is ActivityKind.SINK
        codec = JPEGCodec(75)
        assert VideoDecoder(sim, codec, 16, 16, 8).kind is ActivityKind.TRANSFORMER
        assert VideoMixer(sim).kind is ActivityKind.TRANSFORMER
        assert VideoTee(sim).kind is ActivityKind.TRANSFORMER
        assert VideoWriter(sim).kind is ActivityKind.SINK


class TestLifecycle:
    def build_pipeline(self, sim, video):
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim, name="r"))
        reader.bind(video)
        window = graph.add(VideoWindow(sim, name="w"))
        graph.connect(reader.port("video_out"), window.port("video_in"))
        return graph, reader, window

    def test_states_progress(self, sim, small_video):
        graph, reader, window = self.build_pipeline(sim, small_video)
        assert reader.state is ActivityState.CREATED
        graph.start_all()
        assert reader.state is ActivityState.RUNNING
        graph.run()
        assert reader.state is ActivityState.FINISHED
        assert window.state is ActivityState.FINISHED

    def test_double_start_rejected(self, sim, small_video):
        graph, reader, _ = self.build_pipeline(sim, small_video)
        reader.start()
        with pytest.raises(ActivityStateError, match="already running"):
            reader.start()

    def test_unbound_source_fails_at_start(self, sim):
        reader = VideoReader(sim)
        with pytest.raises(ActivityError, match="no bound value"):
            reader.start()

    def test_bind_while_running_rejected(self, sim, small_video):
        graph, reader, _ = self.build_pipeline(sim, small_video)
        reader.start()
        with pytest.raises(ActivityStateError):
            reader.bind(small_video)

    def test_stop_mid_stream(self, sim, small_video):
        graph, reader, window = self.build_pipeline(sim, small_video)
        graph.start_all()

        def stopper():
            from repro.sim import Delay
            yield Delay(0.15)  # ~4 frames at 30 fps
            reader.stop()

        sim.spawn(stopper())
        graph.run()
        assert reader.state is ActivityState.STOPPED
        assert 2 <= len(window.presented) < 10

    def test_stop_when_not_running_rejected(self, sim):
        reader = VideoReader(sim)
        with pytest.raises(ActivityStateError):
            reader.stop()

    def test_cue_positions_source(self, sim, small_video):
        """'Cueing a VideoSource activity to world time 0 would position it
        at the first frame' — and later cues skip frames."""
        graph, reader, window = self.build_pipeline(sim, small_video)
        reader.cue(WorldTime(0.2))  # skip first 6 frames at 30 fps
        graph.run_to_completion()
        assert len(window.presented) == small_video.num_frames - 6


class TestEvents:
    def test_each_and_last_frame(self, sim, small_video):
        """The paper's EACH-FRAME / LAST-FRAME notification example."""
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim))
        reader.bind(small_video)
        window = graph.add(VideoWindow(sim))
        graph.connect(reader.port("video_out"), window.port("video_in"))
        each, last = [], []
        reader.catch(EVENT_EACH_FRAME, lambda a, e, p: each.append(p))
        reader.catch(EVENT_LAST_FRAME, lambda a, e, p: last.append(p))
        graph.run_to_completion()
        assert each == list(range(small_video.num_frames))
        assert last == [small_video.num_frames - 1]

    def test_started_finished_events(self, sim, small_video):
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim))
        reader.bind(small_video)
        window = graph.add(VideoWindow(sim))
        graph.connect(reader.port("video_out"), window.port("video_in"))
        seen = []
        for name in (EVENT_STARTED, EVENT_FINISHED):
            reader.catch(name, lambda a, e, p: seen.append(e))
        graph.run_to_completion()
        assert seen == [EVENT_STARTED, EVENT_FINISHED]

    def test_catch_unknown_event_rejected(self, sim):
        reader = VideoReader(sim)
        with pytest.raises(ActivityError, match="unknown event"):
            reader.catch("EACH_SAMPLE", lambda a, e, p: None)


class TestGraphValidation:
    def test_dangling_port_detected(self, sim, small_video):
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim))
        reader.bind(small_video)
        with pytest.raises(GraphError, match="not connected"):
            graph.validate()

    def test_cycle_detected(self, sim):
        graph = ActivityGraph(sim)
        m1 = graph.add(VideoMixer(sim, name="m1"))
        t1 = graph.add(VideoTee(sim, name="t1"))
        graph.connect(m1.port("video_out"), t1.port("video_in"))
        graph.connect(t1.port("video_out_0"), m1.port("video_in_0"))
        graph.connect(t1.port("video_out_1"), m1.port("video_in_1"))
        with pytest.raises(GraphError, match="cycle"):
            graph.validate()

    def test_duplicate_activity_rejected(self, sim):
        graph = ActivityGraph(sim)
        reader = VideoReader(sim, name="x")
        graph.add(reader)
        with pytest.raises(GraphError, match="already in graph"):
            graph.add(reader)

    def test_foreign_port_rejected(self, sim):
        graph = ActivityGraph(sim)
        reader = VideoReader(sim)  # never added
        window = graph.add(VideoWindow(sim))
        with pytest.raises(GraphError, match="does not belong"):
            graph.connect(reader.port("video_out"), window.port("video_in"))


class TestGraphRendering:
    def test_render_ascii_shows_nodes_and_arcs(self, sim, small_video):
        """The paper's §4.2 graphical notation: nodes + directed arcs."""
        from repro.codecs import JPEGCodec
        codec = JPEGCodec(80)
        encoded = codec.encode_value(small_video)
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim, name="read"))
        reader.bind(encoded)
        decoder = graph.add(VideoDecoder(sim, codec, 32, 24, 8, name="decode"))
        window = graph.add(VideoWindow(sim, name="display"))
        graph.connect(reader.port("video_out"), decoder.port("video_in"))
        graph.connect(decoder.port("video_out"), window.port("video_in"))
        art = graph.render_ascii()
        assert "[read]  (source)" in art
        assert "[decode]  (transformer)" in art
        assert "[display]  (sink)" in art
        assert "[read] --video/jpeg--> [decode]" in art
        assert "[decode] --video/raw--> [display]" in art

    def test_render_ascii_composites_bracketed(self, sim, small_video):
        from repro.activities import CompositeActivity
        from repro.activities.ports import Connection
        from repro.codecs import JPEGCodec
        codec = JPEGCodec(80)
        encoded = codec.encode_value(small_video)
        graph = ActivityGraph(sim)
        source = CompositeActivity(sim, name="source")
        reader = VideoReader(sim, name="read")
        reader.bind(encoded)
        decoder = VideoDecoder(sim, codec, 32, 24, 8, name="decode")
        source.install(reader)
        source.install(decoder)
        Connection(sim, reader.port("video_out"), decoder.port("video_in"))
        source.export(decoder.port("video_out"), "out")
        graph.add(source)
        art = graph.render_ascii()
        assert "[source: [read] [decode]]" in art


class TestReadAheadStageEnds:
    """The source's ``:prefetch`` process used to outlive a stream that
    was stopped or crashed mid-clip, blocked for good on its full 4-slot
    buffer; whatever ends the pacing loop now ends it too."""

    @staticmethod
    def playback(per_element: bool):
        from repro.activities import EVENT_EACH_ELEMENT
        from repro.avdb import AVDatabaseSystem
        from repro.storage import MagneticDisk
        from repro.synth import moving_scene
        system = AVDatabaseSystem()
        system.add_storage(MagneticDisk(system.simulator, "disk0"))
        video = moving_scene(48, 32, 24)
        system.store_value(video, "disk0")
        session = system.open_session("viewer")
        source = session.new_db_source(video)
        if per_element:     # a caught handler keeps the per-element loop
            source.catch(EVENT_EACH_ELEMENT, lambda *_: None)
        window = session.new_video_window()
        session.connect(source, window).start()
        return system, session, source, window

    @pytest.mark.parametrize("per_element", [True, False])
    @pytest.mark.parametrize("stop_at", [0.0, 0.01, 0.1, 0.5, 0.777, 1.55, 5.0])
    def test_nothing_left_running_after_a_stop(self, per_element, stop_at):
        system, session, source, window = self.playback(per_element)
        sim = system.simulator
        sim.run(until=WorldTime(stop_at))
        if source.state is ActivityState.RUNNING:
            source.stop()
        sim.run()
        assert sim.live_processes == 0
        metrics = system.metrics
        assert (metrics.counter("sim.processes_finished").value
                == metrics.counter("sim.processes_spawned").value)
        session.close()
        sim.run()
        assert sim.live_processes == 0

    @pytest.mark.parametrize("per_element", [True, False])
    def test_no_read_ahead_process_left_after_a_crash(self, per_element):
        from repro.errors import FaultError
        from repro.obs import scoped
        with scoped(tracing=True) as obs:
            system, session, source, window = self.playback(per_element)
            sim = system.simulator
            sim.run(until=WorldTime(0.5))
            source.process.interrupt(FaultError("injected crash"))
            sim.run()
            # What is left is the sink, waiting for an end-of-stream that
            # never comes: the hang ``Timeout`` exists for.
            assert sim.live_processes == 1
            assert not window.process.done
            spans = [e for e in obs.tracer.events
                     if e.category == "sim.process"
                     and e.name.endswith(":prefetch")]
            assert len(spans) == 1 and spans[0].dur is not None
