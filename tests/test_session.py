"""The client session: the §4.3 pseudo-code end to end, resource-failure
semantics, asynchronous notification."""

import pytest

from repro.activities import EVENT_EACH_FRAME, EVENT_LAST_FRAME
from repro.avdb import AVDatabaseSystem
from repro.codecs import MPEGCodec
from repro.db import AttributeSpec, ClassDef, Q
from repro.errors import AdmissionError, DeviceBusyError, SessionError
from repro.storage import MagneticDisk
from repro.synth import NEWSCAST_CLIP_SPEC, moving_scene, newscast_clip
from repro.values import VideoValue


def build_system(channel_bps=200_000_000.0):
    system = AVDatabaseSystem()
    system.add_storage(MagneticDisk(system.simulator, "disk0"))
    system.db.define_class(ClassDef("SimpleNewscast", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("broadcastSource", str),
        AttributeSpec("whenBroadcast", str, indexed=True),
        AttributeSpec("videoTrack", VideoValue),
    ]))
    system.db.define_class(ClassDef("Newscast", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("whenBroadcast", str, indexed=True),
    ], tcomps=[NEWSCAST_CLIP_SPEC]))
    return system


def populate_simple(system, title="60 Minutes", when="1992-11-01"):
    video = moving_scene(12, 64, 48)
    system.store_value(video, "disk0")
    return system.db.insert("SimpleNewscast", title=title,
                            whenBroadcast=when, videoTrack=video)


class TestSimpleNewscastExample:
    """The paper's six-statement example, statement for statement."""

    def test_full_pseudo_code_flow(self):
        system = build_system()
        populate_simple(system)
        session = system.open_session("app")

        my_news = session.select_one(                      # statement 4
            "SimpleNewscast",
            Q.eq("title", "60 Minutes") & Q.eq("whenBroadcast", "1992-11-01"),
        )
        db_source = session.new_db_source((my_news, "videoTrack"))  # 1 + 5
        app_sink = session.new_video_window("320x240x8@30")         # 2
        stream = session.connect(db_source, app_sink)                # 3
        stream.start()                                               # 6
        session.run()

        assert len(app_sink.presented) == 12
        assert stream.finished()
        assert stream.bits_transferred > 0

    def test_query_returns_references_not_values(self):
        system = build_system()
        oid = populate_simple(system)
        session = system.open_session()
        result = session.select("SimpleNewscast", Q.eq("title", "60 Minutes"))
        assert result == [oid]  # OIDs, not media data
        obj = session.fetch(oid)
        assert obj.title == "60 Minutes"

    def test_bare_oid_is_not_a_value_reference(self):
        # An OID is a 2-tuple, like an (oid, "attr") reference; only the
        # latter names a media value.
        system = build_system()
        oid = populate_simple(system)
        session = system.open_session()
        with pytest.raises(SessionError, match="cannot resolve"):
            session.new_db_source(oid)
        source = session.new_db_source((oid, "videoTrack"))
        with pytest.raises(SessionError, match="cannot resolve"):
            session.bind(oid, source)
        session.bind((oid, "videoTrack"), source)

    def test_bind_after_connect(self):
        """The paper binds (statement 5) after connecting (statement 3)."""
        system = build_system()
        video = moving_scene(6, 32, 24)
        system.store_value(video, "disk0")
        session = system.open_session()
        # Create an unbound reader at the database...
        from repro.activities.library import VideoReader
        from repro.activities import Location
        source = session.new_activity(
            VideoReader(system.simulator, location=Location.DATABASE)
        )
        sink = session.new_video_window()
        stream = session.connect(source, sink)
        session.bind(video, source)  # late binding
        stream.start()
        session.run()
        assert len(sink.presented) == 6

    def test_stop_mid_transfer(self):
        system = build_system()
        my_news = populate_simple(system)
        session = system.open_session()
        source = session.new_db_source((my_news, "videoTrack"))
        sink = session.new_video_window()
        stream = session.connect(source, sink)
        stream.start()

        def stopper():
            from repro.sim import Delay
            yield Delay(0.15)
            stream.stop()

        system.simulator.spawn(stopper())
        session.run()
        assert 0 < len(sink.presented) < 12


class TestResourceFailures:
    def test_connection_fails_on_insufficient_bandwidth(self):
        """§4.3: 'This statement would fail if insufficient network
        bandwidth were available.'"""
        system = build_system(channel_bps=1_000.0)  # 1 kb/s channel
        my_news = populate_simple(system)
        session = system.open_session("starved", channel_bps=1_000.0)
        source = session.new_db_source((my_news, "videoTrack"))
        sink = session.new_video_window()
        with pytest.raises(AdmissionError, match="cannot reserve"):
            session.connect(source, sink)

    def test_activity_creation_fails_without_device(self):
        """§4.3: 'If insufficient resources were available this statement
        would fail.'"""
        system = build_system()
        system.resources.add_pool("mixer", 1)
        session = system.open_session()
        from repro.activities.library import VideoMixer
        session.new_activity(VideoMixer(system.simulator, name="m1"),
                             device_kind="mixer")
        with pytest.raises(DeviceBusyError):
            session.new_activity(VideoMixer(system.simulator, name="m2"),
                                 device_kind="mixer")

    def test_session_close_releases_leases(self):
        system = build_system()
        pool = system.resources.add_pool("mixer", 1)
        session = system.open_session()
        from repro.activities.library import VideoMixer
        session.new_activity(VideoMixer(system.simulator, name="m1"),
                             device_kind="mixer")
        session.close()
        assert pool.available == 1
        with pytest.raises(SessionError, match="closed"):
            session.select("SimpleNewscast")


class TestCompositeExample:
    def test_newscast_multisource_multisink(self, clip=None):
        """The paper's second example: MultiSource / MultiSink with
        synchronized video + English audio (+ the other tracks)."""
        system = build_system()
        clip = newscast_clip(video_frames=10, audio_seconds=0.4)
        for track in clip.track_names:
            system.store_value(clip.value(track), "disk0")
        oid = system.db.insert("Newscast", title="60 Minutes",
                               whenBroadcast="1992-11-01", clip=clip)
        session = system.open_session()
        my_news = session.select_one("Newscast", Q.eq("title", "60 Minutes"))
        db_source = session.new_db_source((my_news, "clip"))
        app_sink = session.new_multi_sink()
        from repro.activities.library import Speaker, SubtitleWindow, VideoWindow
        app_sink.install(VideoWindow(system.simulator, name="w"),
                         track="videoTrack")
        app_sink.install(Speaker(system.simulator, name="en"),
                         track="englishTrack")
        app_sink.install(Speaker(system.simulator, name="fr"),
                         track="frenchTrack")
        app_sink.install(SubtitleWindow(system.simulator, name="sub"),
                         track="subtitleTrack")
        composite_stream = session.connect(db_source, app_sink)
        composite_stream.start()
        session.run()
        window = app_sink.components["w"]
        assert len(window.presented) == 10
        assert db_source.max_skew() == pytest.approx(0.0)  # no jitter injected


def newscast_session(disk_bps=48_000_000.0, channel_bps=200_000_000.0,
                     admission=False):
    """A system with a 10-frame newscast clip on ``disk0`` and one session
    over a channel of ``channel_bps`` (fronted by an admission controller
    when ``admission``), plus the clip's MultiSink."""
    from repro.activities.library import Speaker, SubtitleWindow, VideoWindow
    from repro.net import Channel
    system = build_system()
    system.placement.device("disk0").bandwidth_bps = disk_bps
    clip = newscast_clip(video_frames=10, audio_seconds=0.4)
    for track in clip.track_names:
        system.store_value(clip.value(track), "disk0")
    channel = Channel(system.simulator, channel_bps, name="trunk")
    if admission:
        system.enable_admission(channel)
    session = system.open_session("app", channel=channel)
    sink = session.new_multi_sink()
    sink.install(VideoWindow(system.simulator, name="w"), track="videoTrack")
    sink.install(Speaker(system.simulator, name="en"), track="englishTrack")
    sink.install(Speaker(system.simulator, name="fr"), track="frenchTrack")
    sink.install(SubtitleWindow(system.simulator, name="sub"),
                 track="subtitleTrack")
    return system, clip, session, sink


class TestCompositeAdmission:
    """A composite connection takes channel bandwidth the way a single
    one does: track by track, through the same admission path."""

    VIDEO_BPS = 737_280.0      # the clip's tracks' data rates
    AUDIO_BPS = 352_800.0
    SUBTITLE_BPS = 720.0

    def test_composite_goes_through_the_admission_controller(self):
        from repro.admission import Priority
        system, clip, session, sink = newscast_session(admission=True)
        session.connect(session.new_db_source(clip), sink,
                        priority=Priority.BACKGROUND)
        assert len(session.channel._reservations) == 4
        assert len(system.admission._held) == 4
        assert system.metrics.counter("admission.admitted").value == 4

    def test_composite_track_degrades_when_asked(self):
        system, clip, session, sink = newscast_session(
            channel_bps=(self.VIDEO_BPS + 2 * self.AUDIO_BPS
                         + self.SUBTITLE_BPS / 2))
        stream = session.connect(session.new_db_source(clip), sink,
                                 degrade=True)
        assert len(stream.connections) == 4
        assert session.degraded_streams == 1
        assert session.channel.available_bps == 0

    def test_refused_track_strands_nothing(self):
        system, clip, session, sink = newscast_session(
            channel_bps=self.VIDEO_BPS * 1.01)
        source = session.new_db_source(clip)
        with pytest.raises(AdmissionError, match="trunk"):
            session.connect(source, sink)
        assert session.channel.reserved_bps == 0
        assert system.graph.connections == []
        assert all(port.resolve().connection is None
                   for port in source.out_ports() + sink.in_ports())
        session.close()


class TestCompositeSourceRefusal:
    def test_refused_track_releases_the_tracks_before_it(self):
        """A device with room for the video track's share alone refuses
        the English track; the video's reservation and the MultiSource
        go back."""
        from repro.activities.composite import MultiSource
        video_share = 2 * TestCompositeAdmission.VIDEO_BPS  # readahead 2x
        system, clip, session, _ = newscast_session(
            disk_bps=video_share + 1_000.0)
        disk = system.placement.device("disk0")
        with pytest.raises(AdmissionError, match="disk0"):
            session.new_db_source(clip)
        assert disk.reserved_bps == 0
        assert not any(isinstance(a, MultiSource)
                       for a in system.graph.activities.values())
        session.close()
        assert disk.reserved_bps == 0


class TestAsyncInterface:
    def test_notifications_delivered_during_transfer(self):
        """'request notification on a frame-by-frame basis ... start the
        activity and then wait to be notified.'"""
        system = build_system()
        my_news = populate_simple(system)
        session = system.open_session()
        source = session.new_db_source((my_news, "videoTrack"))
        sink = session.new_video_window()
        stream = session.connect(source, sink)
        session.notify_on(source, EVENT_EACH_FRAME)
        session.notify_on(source, EVENT_LAST_FRAME)
        stream.start()
        session.run()
        events = session.notifications_for(source)
        frames = [n for n in events if n.event == EVENT_EACH_FRAME]
        lasts = [n for n in events if n.event == EVENT_LAST_FRAME]
        assert len(frames) == 12
        assert len(lasts) == 1
        # Notifications carry virtual timestamps spanning the transfer.
        assert frames[-1].at.seconds > frames[0].at.seconds

    def test_client_proceeds_during_transfer(self):
        """The client does other work while the stream runs (asynchronous,
        stream-based interface — not issue-request/receive-reply)."""
        system = build_system()
        my_news = populate_simple(system)
        session = system.open_session()
        source = session.new_db_source((my_news, "videoTrack"))
        sink = session.new_video_window()
        stream = session.connect(source, sink)
        stream.start()
        work_done = []

        def client_work():
            from repro.sim import Delay
            while not stream.finished():
                yield Delay(0.05)
                work_done.append(system.simulator.now.seconds)

        system.simulator.spawn(client_work())
        session.run()
        # Work items interleaved with the ~0.37 s transfer.
        assert len(work_done) >= 6
        assert stream.finished()

    def test_double_start_rejected(self):
        system = build_system()
        my_news = populate_simple(system)
        session = system.open_session()
        source = session.new_db_source((my_news, "videoTrack"))
        sink = session.new_video_window()
        stream = session.connect(source, sink)
        stream.start()
        with pytest.raises(SessionError, match="already started"):
            stream.start()


class TestDeferredTypeCheck:
    def test_bind_incompatible_value_after_connect_rejected(self):
        """Connecting an abstract source then binding a compressed value to
        a raw-only sink trips the deferred same-data-type check."""
        system = build_system()
        encoded = MPEGCodec(75).encode_value(moving_scene(4, 32, 24))
        system.store_value(encoded, "disk0")
        session = system.open_session()
        from repro.activities import Location
        from repro.activities.library import VideoReader
        from repro.errors import PortError
        source = session.new_activity(
            VideoReader(system.simulator, location=Location.DATABASE)
        )
        sink = session.new_video_window()  # raw only
        session.connect(source, sink)
        with pytest.raises(PortError, match="cannot narrow"):
            session.bind(encoded, source)
