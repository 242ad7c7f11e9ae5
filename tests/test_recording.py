"""The ingest path: recording live capture into the database
(Scenario I: 'video conferences and demos are also recorded')."""

import pytest

from repro.activities import Location
from repro.activities.live import LiveCamera
from repro.avdb import AVDatabaseSystem
from repro.codecs import MPEGCodec
from repro.db import AttributeSpec, ClassDef, Q
from repro.errors import SessionError
from repro.storage import MagneticDisk
from repro.values import MPEGVideoValue, RawVideoValue, VideoValue


def build_system():
    system = AVDatabaseSystem()
    system.add_storage(MagneticDisk(system.simulator, "disk0"))
    system.db.define_class(ClassDef("Recording", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("video", VideoValue),
    ]))
    return system


class TestRecording:
    def test_record_raw_capture_to_database(self):
        system = build_system()
        session = system.open_session("capture-station")
        camera = session.new_activity(LiveCamera(
            system.simulator, width=32, height=24, rate=30.0, max_elements=12,
            location=Location.APPLICATION,
        ))
        recording = session.record(camera, rate=30.0)
        recording.start()
        session.run()
        oid, value = recording.store("Recording", "video",
                                     device="disk0", title="demo capture")
        assert isinstance(value, RawVideoValue)
        assert value.num_frames == 12
        found = session.select_one("Recording", Q.eq("title", "demo capture"))
        assert found == oid
        assert system.placement.is_placed(value)

    def test_record_with_encoder_stores_compressed(self):
        system = build_system()
        session = system.open_session()
        codec = MPEGCodec(80, gop=4)
        camera = session.new_activity(LiveCamera(
            system.simulator, width=32, height=24, max_elements=8,
        ))
        recording = session.record(camera, codec=codec, geometry=(32, 24, 8))
        recording.start()
        session.run()
        oid, value = recording.store("Recording", "video", title="compressed")
        assert isinstance(value, MPEGVideoValue)
        assert value.num_frames == 8
        # Round trip: the stored recording decodes to frames.
        assert value.frame(5).shape == (24, 32)

    def test_store_before_finish_rejected(self):
        system = build_system()
        session = system.open_session()
        camera = session.new_activity(LiveCamera(
            system.simulator, max_elements=8,
        ))
        recording = session.record(camera)
        recording.start()
        with pytest.raises(SessionError, match="in progress"):
            recording.store("Recording", "video", title="too early")

    def test_stop_recording_midway(self):
        system = build_system()
        session = system.open_session()
        camera = session.new_activity(LiveCamera(
            system.simulator, rate=30.0,  # unbounded
        ))
        recording = session.record(camera)
        recording.start()

        def director():
            from repro.sim import Delay
            yield Delay(0.3)
            recording.stream.stop()

        system.simulator.spawn(director())
        session.run()
        oid, value = recording.store("Recording", "video", title="partial")
        assert 5 <= value.num_frames <= 12

    def test_recorded_value_plays_back(self):
        """Full circle: capture -> store -> query -> stream to a window."""
        system = build_system()
        capture = system.open_session("capture")
        camera = capture.new_activity(LiveCamera(
            system.simulator, width=32, height=24, max_elements=10,
        ))
        recording = capture.record(camera)
        recording.start()
        capture.run()
        oid, value = recording.store("Recording", "video",
                                     device="disk0", title="replayable")

        viewer = system.open_session("viewer")
        ref = viewer.select_one("Recording", Q.eq("title", "replayable"))
        source = viewer.new_db_source((ref, "video"))
        window = viewer.new_video_window()
        viewer.connect(source, window).start()
        viewer.run()
        assert len(window.presented) == 10
        # The burned-in frame counters survive the round trip.
        assert int(window.presented[7][0, 0]) == 7
