"""The track-based container format (the paper's future-work [5])."""

import random
import struct

import numpy as np
import pytest

from repro.avtime import WorldTime
from repro.codecs import ADPCMCodec, JPEGCodec, MPEGCodec, MuLawCodec
from repro.container import read_composite, write_composite
from repro.container.format import _ATOM, _SAMPLE, MAGIC, VERSION, ContainerWriter
from repro.errors import DataModelError
from repro.sim import Simulator
from repro.synth import NEWSCAST_CLIP_SPEC, newscast_clip, moving_scene, tone
from repro.temporal import TemporalComposite
from repro.values import MPEGVideoValue
from repro.values.audio import EncodedAudioValue
from repro.values.text import TextItem


class TestRoundtrip:
    def test_newscast_composite_roundtrips(self, clip):
        data = write_composite(clip)
        restored = read_composite(data)
        assert set(restored.track_names) == set(clip.track_names)
        # Video frames identical.
        original = clip.value("videoTrack")
        rebuilt = restored.value("videoTrack")
        assert rebuilt.num_frames == original.num_frames
        assert np.array_equal(rebuilt.frames_array, original.frames_array)
        # Audio samples identical.
        assert np.array_equal(restored.value("englishTrack").samples(),
                              clip.value("englishTrack").samples())
        # Subtitles identical.
        assert restored.value("subtitleTrack").texts() == \
            clip.value("subtitleTrack").texts()

    def test_encoded_video_track_roundtrips_with_codec(self):
        from repro.synth import subtitle_track
        codec = MPEGCodec(80, gop=4)
        encoded = codec.encode_value(moving_scene(8, 32, 24))
        composite = TemporalComposite(
            NEWSCAST_CLIP_SPEC,
            {
                "videoTrack": encoded,
                "englishTrack": tone(0.2, 440.0),
                "frenchTrack": tone(0.2, 330.0),
                "subtitleTrack": subtitle_track(["x"]),
            },
        )
        restored = read_composite(write_composite(composite))
        rebuilt = restored.value("videoTrack")
        assert isinstance(rebuilt, MPEGVideoValue)
        assert rebuilt.codec.gop == 4
        assert rebuilt.chunks == encoded.chunks  # exact chunk bytes
        # And it decodes.
        assert rebuilt.frame(5).shape == (24, 32)

    def test_encoded_audio_track_roundtrips(self):
        voice = MuLawCodec().encode_value(tone(0.3, 440.0, 8000.0))
        from repro.synth import subtitle_track
        composite = TemporalComposite(
            NEWSCAST_CLIP_SPEC,
            {
                "videoTrack": moving_scene(6, 32, 24),
                "englishTrack": voice,
                "frenchTrack": tone(0.2, 330.0),
                "subtitleTrack": subtitle_track(["a"]),
            },
        )
        restored = read_composite(write_composite(composite))
        rebuilt = restored.value("englishTrack")
        assert rebuilt.media_type.name == "audio/mulaw"
        assert np.array_equal(rebuilt.samples(), voice.samples())

    def test_timeline_placement_survives(self):
        clip = newscast_clip(video_frames=8, audio_seconds=0.3,
                             video_delay_s=0.5)
        restored = read_composite(write_composite(clip))
        entry = restored.timeline.entry("videoTrack")
        assert entry.start == WorldTime(0.5)
        assert restored.value("videoTrack").start == WorldTime(0.5)

    def test_time_mapping_scale_survives(self):
        from repro.synth import subtitle_track
        slow = moving_scene(6, 32, 24).scale(2.0)
        composite = TemporalComposite(NEWSCAST_CLIP_SPEC, {
            "videoTrack": slow,
            "englishTrack": tone(0.4, 440.0),
            "frenchTrack": tone(0.4, 330.0),
            "subtitleTrack": subtitle_track(["a"]),
        })
        restored = read_composite(write_composite(composite))
        assert restored.value("videoTrack").mapping.scale == 2.0
        assert restored.value("videoTrack").duration.seconds == pytest.approx(
            slow.duration.seconds
        )


class TestInterleaving:
    def test_mdat_samples_ordered_by_time(self, clip):
        data = write_composite(clip)
        # Walk atoms to MDAT, then scan sample records.
        offset = 0
        mdat = None
        while offset < len(data):
            size, kind = _ATOM.unpack_from(data, offset)
            body = data[offset + _ATOM.size: offset + _ATOM.size + size]
            if kind == b"MDAT":
                mdat = body
            offset += _ATOM.size + size
        assert mdat is not None
        # Reconstruct per-record times from track metadata.
        restored = read_composite(data)
        mappings = {i: restored.value(t).mapping
                    for i, t in enumerate(restored.track_names)}
        times = []
        position = 0
        while position < len(mdat):
            track, index, size = _SAMPLE.unpack_from(mdat, position)
            position += _SAMPLE.size + size
            mapping = mappings[track]
            # Audio tracks chunk multiple samples per record.
            from repro.container.format import AUDIO_BLOCK
            per_record = AUDIO_BLOCK if mapping.rate > 1000 else 1
            times.append(mapping.start.seconds
                         + index * per_record * mapping.scale / mapping.rate)
        assert times == sorted(times)


class TestErrors:
    def test_bad_magic_rejected(self, clip):
        data = bytearray(write_composite(clip))
        data[8:12] = b"XXXX"  # clobber the FTYP magic
        with pytest.raises(DataModelError, match="magic"):
            read_composite(bytes(data))

    def test_truncated_container_rejected(self, clip):
        data = write_composite(clip)
        with pytest.raises(DataModelError, match="truncated"):
            read_composite(data[: len(data) // 2])

    def test_not_a_container(self):
        with pytest.raises(DataModelError):
            read_composite(b"\x00" * 64)

    def test_magic_constant(self, clip):
        data = write_composite(clip)
        assert MAGIC in data[:16]

    def test_corrupt_bytes_parse_or_raise_data_model_error(self):
        """Seeded 1-3 byte mutations of the header, and every truncation
        of it: each input parses or raises DataModelError, nothing else.
        One container holds raw tracks; the other an MPEG video track and
        a mu-law audio track, whose headers name a codec and its params."""
        inputs = _corrupt_inputs()
        parsed = 0
        for blob in inputs:
            try:
                read_composite(blob)
            except DataModelError:
                continue
            parsed += 1
        assert 0 < parsed < len(inputs)


def _corrupt_inputs():
    """Every truncation of two containers' headers, and 3,000 seeded 1-3
    byte mutations of each."""
    from repro.synth import subtitle_track
    encoded = TemporalComposite(NEWSCAST_CLIP_SPEC, {
        "videoTrack": MPEGCodec(80, gop=4).encode_value(
            moving_scene(4, 32, 24)),
        "englishTrack": MuLawCodec().encode_value(tone(0.1, 440.0, 8000.0)),
        "frenchTrack": tone(0.1, 330.0),
        "subtitleTrack": subtitle_track(["x"]),
    })
    rng = random.Random(0)
    inputs = []
    for composite in (newscast_clip(video_frames=4, audio_seconds=0.1),
                      encoded):
        data = write_composite(composite)
        # FTYP, MOOV and the first MDAT records.
        header = data.index(b"MDAT") + 2 * _SAMPLE.size + 20
        inputs += [data[:cut] for cut in range(header)]
        for _ in range(3000):
            mutated = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                mutated[rng.randrange(header)] = rng.randrange(256)
            inputs.append(bytes(mutated))
    return inputs


def _element_bytes(payload) -> bytes:
    if isinstance(payload, np.ndarray):
        return np.ascontiguousarray(payload).tobytes()
    if isinstance(payload, TextItem):
        return struct.pack("<d", payload.span) + payload.text.encode("utf-8")
    return payload


def _read_elements(data):
    """Per track, the reader's elements as the demuxer sends them: the
    record payloads, with a coded audio block decoded to PCM."""
    composite = read_composite(data)
    tracks = []
    for name in composite.track_names:
        value = composite.value(name)
        payloads = [p for _, _, p in ContainerWriter()._elements_of(value)]
        if isinstance(value, EncodedAudioValue):
            payloads = [_element_bytes(value.codec.decode_block(
                p, value.num_channels)) for p in payloads]
        tracks.append(payloads)
    return tracks


def _demux_elements(data):
    """Per track, the elements an unpaced demuxer sends, as bytes."""
    from repro.activities import ActivityGraph
    from repro.activities.library import SinkActivity
    from repro.activities.ports import Direction
    from repro.container import ContainerDemuxer
    from repro.sim import Simulator
    sim = Simulator()
    demuxer = ContainerDemuxer(sim, data)
    demuxer.paced = False
    graph = ActivityGraph(sim)
    graph.add(demuxer)
    sinks = []
    for i, port in enumerate(demuxer.out_ports()):
        sink = graph.add(SinkActivity(sim, name=f"sink{i}"))
        sink.paced = False
        sink.add_port("in", Direction.IN, port.media_type)
        graph.connect(port, sink.port("in"))
        sinks.append(sink)
    graph.run_to_completion()
    return [[_element_bytes(p) for p in sink.presented] for sink in sinks]


class TestDemuxer:
    def test_build_and_playback_decode_each_record_once(self, clip,
                                                        monkeypatch):
        """The demuxer sends the elements its build decoded: building it
        and playing a 10-frame newscast clip unpaced decodes each of the
        31 records once (twice each when playback decoded again)."""
        import repro.container.demux as demux
        import repro.container.format as fmt
        original = fmt._decode
        calls = []

        def counting(info, payload):
            calls.append(info.name)
            return original(info, payload)

        for module in (fmt, demux):
            if getattr(module, "_decode", None) is original:
                monkeypatch.setattr(module, "_decode", counting)
        data = write_composite(clip)
        played = _demux_elements(data)
        assert sum(map(len, played)) == 31
        assert len(calls) == 31

    def test_single_pass_streaming_playback(self, sim, clip):
        """One sequential scan drives a synchronized 4-track playback."""
        from repro.activities import ActivityGraph
        from repro.activities.library import Speaker, SubtitleWindow, VideoWindow
        from repro.container import ContainerDemuxer
        data = write_composite(clip)
        demuxer = ContainerDemuxer(sim, data, name="demux")
        graph = ActivityGraph(sim)
        graph.add(demuxer)
        window = graph.add(VideoWindow(sim, name="w"))
        english = graph.add(Speaker(sim, name="en", keep_payloads=False))
        french = graph.add(Speaker(sim, name="fr", keep_payloads=False))
        subs = graph.add(SubtitleWindow(sim, name="subs"))
        graph.connect(demuxer.port("videoTrack"), window.port("video_in"))
        graph.connect(demuxer.port("englishTrack"), english.port("audio_in"))
        graph.connect(demuxer.port("frenchTrack"), french.port("audio_in"))
        graph.connect(demuxer.port("subtitleTrack"), subs.port("text_in"))
        graph.run_to_completion()
        original = clip.value("videoTrack")
        assert len(window.presented) == original.num_frames
        assert np.array_equal(window.presented[4], original.frame(4))
        assert english.elements_consumed > 0
        assert subs.texts() == clip.value("subtitleTrack").texts()
        # Pacing: playback took about the clip duration.
        assert sim.now.seconds == pytest.approx(clip.duration.seconds, abs=0.2)

    def test_encoded_track_flows_as_chunks(self, sim):
        from repro.activities import ActivityGraph
        from repro.activities.library import Speaker, SubtitleWindow, VideoDecoder, VideoWindow
        from repro.container import ContainerDemuxer
        from repro.synth import subtitle_track
        codec = JPEGCodec(80)
        encoded = codec.encode_value(moving_scene(6, 32, 24))
        composite = TemporalComposite(NEWSCAST_CLIP_SPEC, {
            "videoTrack": encoded,
            "englishTrack": tone(0.2, 440.0),
            "frenchTrack": tone(0.2, 330.0),
            "subtitleTrack": subtitle_track(["a"]),
        })
        demuxer = ContainerDemuxer(sim, write_composite(composite))
        assert demuxer.port("videoTrack").media_type.name == "video/jpeg"
        graph = ActivityGraph(sim)
        graph.add(demuxer)
        decoder = graph.add(VideoDecoder(sim, codec, 32, 24, 8))
        window = graph.add(VideoWindow(sim, name="w"))
        graph.connect(demuxer.port("videoTrack"), decoder.port("video_in"))
        graph.connect(decoder.port("video_out"), window.port("video_in"))
        graph.connect(demuxer.port("englishTrack"),
                      graph.add(Speaker(sim, name="en")).port("audio_in"))
        graph.connect(demuxer.port("frenchTrack"),
                      graph.add(Speaker(sim, name="fr")).port("audio_in"))
        graph.connect(demuxer.port("subtitleTrack"),
                      graph.add(SubtitleWindow(sim, name="s")).port("text_in"))
        graph.run_to_completion()
        assert len(window.presented) == 6
        assert window.presented[0].shape == (24, 32)

    def test_encoded_audio_decoded_inline(self, sim):
        from repro.activities import ActivityGraph
        from repro.activities.library import Speaker, SubtitleWindow, VideoWindow
        from repro.container import ContainerDemuxer
        from repro.synth import subtitle_track
        voice = MuLawCodec().encode_value(tone(0.3, 440.0, 8000.0))
        composite = TemporalComposite(NEWSCAST_CLIP_SPEC, {
            "videoTrack": moving_scene(6, 32, 24),
            "englishTrack": voice,
            "frenchTrack": tone(0.2, 330.0),
            "subtitleTrack": subtitle_track(["a"]),
        })
        demuxer = ContainerDemuxer(sim, write_composite(composite))
        assert demuxer.port("englishTrack").media_type.name == "audio/pcm"
        graph = ActivityGraph(sim)
        graph.add(demuxer)
        english = graph.add(Speaker(sim, name="en"))
        graph.connect(demuxer.port("videoTrack"),
                      graph.add(VideoWindow(sim, name="w")).port("video_in"))
        graph.connect(demuxer.port("englishTrack"), english.port("audio_in"))
        graph.connect(demuxer.port("frenchTrack"),
                      graph.add(Speaker(sim, name="fr")).port("audio_in"))
        graph.connect(demuxer.port("subtitleTrack"),
                      graph.add(SubtitleWindow(sim, name="s")).port("text_in"))
        graph.run_to_completion()
        pcm = english.pcm()
        assert np.abs(pcm.astype(int) - voice.samples().astype(int)).mean() < 200

    @pytest.mark.parametrize("corrupt, message", [
        ("version", "version 9"),
        ("unknown_track", "unknown track 7"),
        ("renumbered", "sample 1 of track 0 out of order"),
        ("overrun", "truncated sample record"),
    ])
    def test_refuses_what_the_reader_refuses(self, clip, corrupt, message):
        from repro.container import ContainerDemuxer
        data = bytearray(write_composite(clip))
        mdat = data.index(b"MDAT")
        if corrupt == "version":
            at = data.index(MAGIC) + len(MAGIC)
            data[at:at + 2] = (VERSION + 8).to_bytes(2, "little")
        elif corrupt == "unknown_track":  # of 4 tracks
            struct.pack_into("<H", data, mdat + 4, 7)
        elif corrupt == "renumbered":  # track 0's first record
            struct.pack_into("<I", data, mdat + 6, 1)
        else:  # MDAT cut 5 bytes short: the last record runs past it
            (size,) = struct.unpack_from("<I", data, mdat - 4)
            struct.pack_into("<I", data, mdat - 4, size - 5)
            del data[-5:]
        for parse in (read_composite,
                      lambda blob: ContainerDemuxer(Simulator(), blob)):
            with pytest.raises(DataModelError, match=message):
                parse(bytes(data))

    def test_corrupt_bytes_demux_as_read_or_raise_data_model_error(self):
        """The reader's mutation and truncation sweep, through the
        demuxer: each input is refused with DataModelError by both, or
        plays exactly the elements the reader parses."""
        played = 0
        for blob in _corrupt_inputs():
            try:
                expected = _read_elements(blob)
            except DataModelError:
                expected = None
            try:
                elements = _demux_elements(blob)
            except DataModelError:
                elements = None
            assert elements == expected
            played += elements is not None
        assert played > 0

    @pytest.mark.parametrize("track, codec", [("englishTrack", "jpeg"),
                                              ("videoTrack", "mulaw")])
    def test_refuses_a_codec_of_another_kind(self, monkeypatch, track, codec):
        from repro.container import ContainerDemuxer
        from repro.synth import subtitle_track
        composite = TemporalComposite(NEWSCAST_CLIP_SPEC, {
            "videoTrack": MPEGCodec(80, gop=4).encode_value(
                moving_scene(4, 32, 24)),
            "englishTrack": ADPCMCodec().encode_value(tone(0.1, 440.0)),
            "frenchTrack": tone(0.1, 330.0),
            "subtitleTrack": subtitle_track(["x"]),
        })
        codec_of = ContainerWriter._codec_of
        monkeypatch.setattr(ContainerWriter, "_codec_of", staticmethod(
            lambda value: ((codec, {}) if value is composite.value(track)
                           else codec_of(value))))
        data = write_composite(composite)
        for parse in (read_composite,
                      lambda blob: ContainerDemuxer(Simulator(), blob)):
            with pytest.raises(DataModelError, match="is no"):
                parse(data)
