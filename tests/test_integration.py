"""Cross-subsystem integration: the two §3.2 scenarios end to end, plus
claims that span several layers (compression vs. transfer, jukebox path,
quality-factor service)."""

import numpy as np

from repro.activities import Location
from repro.activities.library import VideoDigitizer
from repro.avdb import AVDatabaseSystem
from repro.avtime import WorldTime
from repro.codecs import MPEGCodec
from repro.db import AttributeSpec, ClassDef, Q
from repro.hypermedia import HypermediaBase
from repro.quality import parse_quality, scale_video_quality, VideoQuality
from repro.storage import JukeboxDevice, MagneticDisk
from repro.synth import (
    NEWSCAST_CLIP_SPEC,
    analog_master,
    jingle,
    moving_scene,
    newscast_clip,
)
from repro.values import VideoValue


class TestCorporateScenario:
    """Scenario I: the corporate AV database with hypermedia access."""

    def build(self):
        system = AVDatabaseSystem()
        system.add_storage(MagneticDisk(system.simulator, "disk0"))
        system.db.define_class(ClassDef("Document", attributes=[
            AttributeSpec("name", str, indexed=True),
            AttributeSpec("body", str),
        ]))
        system.db.define_class(ClassDef("Presentation", attributes=[
            AttributeSpec("title", str, indexed=True),
            AttributeSpec("presenter", str),
            AttributeSpec("keywords", list, keyword_indexed=True),
            AttributeSpec("video", VideoValue),
        ]))
        return system

    def test_document_link_to_video_playback(self):
        system = self.build()
        video = moving_scene(12, 48, 36)
        system.store_value(video, "disk0")
        presentation = system.db.insert(
            "Presentation", title="Project Kickoff", presenter="S. Gibbs",
            keywords=["kickoff", "demo"], video=video,
        )
        document = system.db.insert("Document", name="project plan",
                                    body="See the kickoff presentation.")
        hypermedia = HypermediaBase(system.db)
        hypermedia.link(document, "kickoff presentation", presentation,
                        media_path="video", cue=WorldTime(0.2))

        # A user reads the document, follows the link and plays the video
        # from the linked cue point.
        session = system.open_session("editor-workstation")
        link = hypermedia.follow(document, "kickoff presentation")
        target = session.fetch(link.target)
        source = session.new_db_source((link.target, link.media_path))
        source.cue(link.cue)
        window = session.new_video_window("320x240x8@30")
        stream = session.connect(source, window)
        stream.start()
        session.run()
        assert target.presenter == "S. Gibbs"
        assert len(window.presented) == 6  # cue skipped the first 6 frames

    def test_content_based_retrieval_then_playback(self):
        system = self.build()
        for i, keywords in enumerate((["demo"], ["budget"], ["demo", "q3"])):
            video = moving_scene(4, 32, 24, seed=i)
            system.store_value(video, "disk0")
            system.db.insert("Presentation", title=f"p{i}",
                             presenter="x", keywords=keywords, video=video)
        session = system.open_session()
        hits = session.select("Presentation", Q.contains("keywords", "demo"))
        assert len(hits) == 2

    def test_editing_produces_versioned_derivative(self):
        from repro.editing import EditDecisionList
        system = self.build()
        video = moving_scene(12, 32, 24)
        system.store_value(video, "disk0")
        master_oid = system.db.insert("Presentation", title="master",
                                      presenter="x", keywords=[], video=video)
        edl = EditDecisionList()
        edl.append(video, 2, 8)
        rough_cut = edl.render()
        system.store_value(rough_cut, "disk0")
        cut_oid = system.db.insert("Presentation", title="rough cut",
                                   presenter="x", keywords=[], video=rough_cut)
        assert system.db.get(cut_oid).video.num_frames == 6
        assert system.db.get(master_oid).video.num_frames == 12


class TestJukeboxPath:
    def test_analog_value_digitized_from_jukebox(self):
        """LV value on a jukebox: disc swap + digitizer activity."""
        system = AVDatabaseSystem()
        jukebox = JukeboxDevice(system.simulator, swap_s=2.0, seek_s=0.1)
        system.add_storage(jukebox)
        master = analog_master(6, 32, 24)
        system.store_value(master, "jukebox")
        jukebox.load_disc(5)

        session = system.open_session()
        source = session.new_db_source(master)
        assert isinstance(source, VideoDigitizer)
        window = session.new_video_window()
        stream = session.connect(source, window)
        stream.start()
        session.run()
        assert len(window.presented) == 6
        # The stream start paid the swap + seek before the first frame.
        first_latency = window.log.records[0].latency.seconds
        assert first_latency >= 2.0


class TestCompressionClaim:
    """§4 footnote: 'by exchanging compressed AV data, transfer durations
    can be reduced' — measured across codec + channel layers."""

    def transfer_seconds(self, value, channel_bps=2_000_000.0):
        system = AVDatabaseSystem()
        system.readahead = 100.0  # bulk read: not paced at playback rate
        system.add_storage(MagneticDisk(system.simulator, "disk0"))
        system.store_value(value, "disk0")
        session = system.open_session(channel_bps=channel_bps)
        source = session.new_db_source(value, deliver="stored")
        # Bulk transfer: grab the whole channel, stream as fast as it goes.
        if value.media_type.compressed:
            from repro.activities.library import VideoDecoder
            decoder = session.new_activity(VideoDecoder(
                system.simulator, value.codec, value.width, value.height,
                value.depth, location=Location.APPLICATION))
            window = session.new_video_window()
            s1 = session.connect(source, decoder.port("video_in"),
                                 bandwidth_bps=channel_bps)
            s2 = session.connect(decoder.port("video_out"), window)
            source.paced = False
            window.paced = False
            s1.start()
            s2.start()
        else:
            window = session.new_video_window()
            stream = session.connect(source, window,
                                     bandwidth_bps=channel_bps)
            source.paced = False
            window.paced = False
            stream.start()
        end = session.run()
        assert len(window.presented) == value.num_frames
        return end.seconds

    def test_compressed_transfer_faster_on_slow_channel(self):
        raw = moving_scene(10, 64, 48)
        compressed = MPEGCodec(75).encode_value(raw)
        t_raw = self.transfer_seconds(raw)
        t_compressed = self.transfer_seconds(compressed)
        assert t_compressed < t_raw / 2


class TestQualityFactorService:
    def test_stored_high_quality_served_lower(self):
        """C5 path: scalable service — drop frames and subsample pixels."""
        stored_value = moving_scene(30, 64, 48)  # 30 fps
        stored_quality = VideoQuality(64, 48, 8, 30.0)
        requested = parse_quality("32x24x8@15")
        plan = scale_video_quality(stored_quality, requested)
        served_frames = stored_value.frames_array[::plan.frame_keep_every,
                                                  ::plan.spatial_divisor,
                                                  ::plan.spatial_divisor]
        assert served_frames.shape == (15, 24, 32)
        served_bits = served_frames.size * 8
        full_bits = stored_value.data_size_bits()
        assert served_bits <= full_bits / 7  # 2x rate * 4x pixels

    def test_window_quality_enforced_at_sink(self):
        system = AVDatabaseSystem()
        system.add_storage(MagneticDisk(system.simulator, "disk0"))
        video = moving_scene(5, 64, 48)
        system.store_value(video, "disk0")
        session = system.open_session()
        source = session.new_db_source(video)
        window = session.new_video_window("32x24x8@30")
        stream = session.connect(source, window)
        stream.start()
        session.run()
        assert window.presented[0].shape == (24, 32)


class TestAlternateRepresentation:
    def test_midi_to_speaker_through_session(self):
        """Stored MIDI, synthesized at the database, streamed as PCM."""
        from repro.activities.library import MIDISource, Speaker
        system = AVDatabaseSystem()
        session = system.open_session()
        source = session.new_activity(
            MIDISource(system.simulator, location=Location.DATABASE)
        )
        source.bind(jingle())
        speaker = session.new_activity(Speaker(
            system.simulator, quality=parse_quality("voice"),
            location=Location.APPLICATION))
        stream = session.connect(source, speaker)
        stream.start()
        session.run()
        assert np.abs(speaker.pcm()).max() > 1000
        assert stream.bits_transferred > 0
