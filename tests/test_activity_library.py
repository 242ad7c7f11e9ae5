"""Behavioural tests for every Table 1 activity and the audio/text/MIDI
equivalents."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.activities import ActivityGraph
from repro.activities.library import (
    ActivityCatalog,
    AudioDecoder,
    AudioEncoder,
    AudioMixer,
    AudioReader,
    AudioWriter,
    MIDISource,
    Speaker,
    SubtitleWindow,
    TextReader,
    VideoDecoder,
    VideoDigitizer,
    VideoEncoder,
    VideoMixer,
    VideoReader,
    VideoTee,
    VideoWindow,
    VideoWriter,
)
from repro.codecs import ADPCMCodec, JPEGCodec, MPEGCodec, MuLawCodec
from repro.errors import ActivityError, MediaTypeError
from repro.quality import parse_quality
from repro.synth import analog_master, jingle, moving_scene, subtitle_track, tone
from repro.sim import Simulator
from repro.values import MPEGVideoValue, RawAudioValue, RawVideoValue


def run_chain(sim, *stages):
    """Wire stages linearly (single in/out ports) and run to completion."""
    graph = ActivityGraph(sim)
    for stage in stages:
        graph.add(stage)
    for upstream, downstream in zip(stages, stages[1:]):
        graph.connect(upstream.out_ports()[0], downstream.in_ports()[0])
    graph.run_to_completion()
    return graph


class TestVideoDigitizer:
    def test_digitizes_analog_value(self, sim):
        master = analog_master(8, 32, 24)
        digitizer = VideoDigitizer(sim)
        digitizer.bind(master)
        window = VideoWindow(sim)
        run_chain(sim, digitizer, window)
        assert len(window.presented) == 8
        assert np.array_equal(window.presented[3], master.frame(3))

    def test_rejects_digital_values(self, sim, small_video):
        digitizer = VideoDigitizer(sim)
        with pytest.raises(MediaTypeError, match="analog"):
            digitizer.bind(small_video)


class TestVideoReader:
    def test_streams_raw_value(self, sim, small_video):
        reader = VideoReader(sim)
        reader.bind(small_video)
        window = VideoWindow(sim)
        run_chain(sim, reader, window)
        assert len(window.presented) == small_video.num_frames

    def test_streams_stored_representation(self, sim, small_video):
        """The reader emits chunks for encoded values (Table 1:
        compressed output); a decoder is a separate activity."""
        codec = JPEGCodec(80)
        encoded = codec.encode_value(small_video)
        reader = VideoReader(sim)
        reader.bind(encoded)
        decoder = VideoDecoder(sim, codec, 32, 24, 8)
        window = VideoWindow(sim)
        run_chain(sim, reader, decoder, window)
        assert len(window.presented) == small_video.num_frames
        error = np.abs(window.presented[5].astype(int)
                       - small_video.frame(5).astype(int)).mean()
        assert error < 10.0

    def test_rejects_analog(self, sim):
        reader = VideoReader(sim)
        with pytest.raises(MediaTypeError, match="digitizer"):
            reader.bind(analog_master(4))

    def test_rejects_non_video(self, sim, small_audio):
        with pytest.raises(MediaTypeError):
            VideoReader(sim).bind(small_audio)

    def test_pacing_matches_rate(self, sim, small_video):
        reader = VideoReader(sim)
        reader.bind(small_video)  # 10 frames at 30 fps
        window = VideoWindow(sim)
        run_chain(sim, reader, window)
        assert sim.now.seconds == pytest.approx(9 / 30.0, abs=1e-6)
        assert window.log.mean_latency() == pytest.approx(0.0, abs=1e-9)

    def test_free_run_mode_ignores_rate(self, sim, small_video):
        reader = VideoReader(sim)
        reader.bind(small_video)
        reader.paced = False
        window = VideoWindow(sim)
        window.paced = False
        run_chain(sim, reader, window)
        assert sim.now.seconds == 0.0  # no virtual time consumed
        assert len(window.presented) == small_video.num_frames


class TestEncoderDecoder:
    @pytest.mark.parametrize("codec_factory", [
        lambda: JPEGCodec(80),
        lambda: MPEGCodec(80, gop=4),
    ])
    def test_encode_decode_roundtrip_through_pipeline(self, sim, small_video,
                                                      codec_factory):
        codec = codec_factory()
        reader = VideoReader(sim)
        reader.bind(small_video)
        encoder = VideoEncoder(sim, codec)
        decoder = VideoDecoder(sim, codec, 32, 24, 8)
        window = VideoWindow(sim)
        run_chain(sim, reader, encoder, decoder, window)
        assert len(window.presented) == small_video.num_frames
        error = np.abs(window.presented[-1].astype(int)
                       - small_video.frame(-1 % small_video.num_frames).astype(int))
        assert error.mean() < 12.0

    def test_encoder_shrinks_elements(self, sim, small_video):
        reader = VideoReader(sim)
        reader.bind(small_video)
        encoder = VideoEncoder(sim, JPEGCodec(60))
        writer = VideoWriter(sim, codec=JPEGCodec(60), geometry=(32, 24, 8))
        graph = run_chain(sim, reader, encoder, writer)
        raw_bits = small_video.data_size_bits()
        compressed_bits = graph.connections[-1].bits_sent
        assert compressed_bits < raw_bits / 2

    def test_processing_cost_delays_stream(self, sim, small_video):
        reader = VideoReader(sim)
        reader.bind(small_video)
        decoder_cost = 0.01
        encoder = VideoEncoder(sim, JPEGCodec(80), process_seconds=decoder_cost)
        writer = VideoWriter(sim, codec=JPEGCodec(80), geometry=(32, 24, 8))
        run_chain(sim, reader, encoder, writer)
        # 10 frames * 10 ms of encode keeps the pipeline busy past the
        # nominal 0.3 s presentation span.
        assert sim.now.seconds >= 0.3 + decoder_cost


class TestMixerAndTee:
    def test_mixer_blends_weighted(self, sim):
        a = RawVideoValue(np.full((5, 8, 8), 100, dtype=np.uint8))
        b = RawVideoValue(np.full((5, 8, 8), 200, dtype=np.uint8))
        r1, r2 = VideoReader(sim, name="r1"), VideoReader(sim, name="r2")
        r1.bind(a)
        r2.bind(b)
        mixer = VideoMixer(sim, inputs=2, weights=[0.25, 0.75])
        window = VideoWindow(sim)
        graph = ActivityGraph(sim)
        for activity in (r1, r2, mixer, window):
            graph.add(activity)
        graph.connect(r1.port("video_out"), mixer.port("video_in_0"))
        graph.connect(r2.port("video_out"), mixer.port("video_in_1"))
        graph.connect(mixer.port("video_out"), window.port("video_in"))
        graph.run_to_completion()
        assert len(window.presented) == 5
        assert int(window.presented[0][0, 0]) == 175  # 0.25*100 + 0.75*200

    def test_mixer_stops_at_shortest_input(self, sim):
        a = RawVideoValue(np.zeros((3, 8, 8), dtype=np.uint8))
        b = RawVideoValue(np.zeros((7, 8, 8), dtype=np.uint8))
        r1, r2 = VideoReader(sim, name="r1"), VideoReader(sim, name="r2")
        r1.bind(a)
        r2.bind(b)
        mixer = VideoMixer(sim)
        window = VideoWindow(sim)
        graph = ActivityGraph(sim)
        for activity in (r1, r2, mixer, window):
            graph.add(activity)
        graph.connect(r1.port("video_out"), mixer.port("video_in_0"))
        graph.connect(r2.port("video_out"), mixer.port("video_in_1"))
        graph.connect(mixer.port("video_out"), window.port("video_in"))
        graph.start_all()
        graph.run()
        assert len(window.presented) == 3

    def test_mixer_weight_validation(self, sim):
        with pytest.raises(ActivityError):
            VideoMixer(sim, inputs=1)
        with pytest.raises(ActivityError):
            VideoMixer(sim, inputs=2, weights=[1.0])

    def test_tee_duplicates_stream(self, sim, small_video):
        reader = VideoReader(sim)
        reader.bind(small_video)
        tee = VideoTee(sim, outputs=2)
        w1, w2 = VideoWindow(sim, name="w1"), VideoWindow(sim, name="w2")
        graph = ActivityGraph(sim)
        for activity in (reader, tee, w1, w2):
            graph.add(activity)
        graph.connect(reader.port("video_out"), tee.port("video_in"))
        graph.connect(tee.port("video_out_0"), w1.port("video_in"))
        graph.connect(tee.port("video_out_1"), w2.port("video_in"))
        graph.run_to_completion()
        assert len(w1.presented) == len(w2.presented) == small_video.num_frames
        assert all(np.array_equal(x, y) for x, y in zip(w1.presented, w2.presented))


class TestWindowAndWriter:
    def test_window_quality_subsamples(self, sim):
        video = moving_scene(5, 64, 48)
        reader = VideoReader(sim)
        reader.bind(video)
        window = VideoWindow(sim, quality=parse_quality("32x24x8@30"))
        run_chain(sim, reader, window)
        assert window.presented[0].shape == (24, 32)

    def test_writer_rebuilds_raw_value(self, sim, small_video):
        reader = VideoReader(sim)
        reader.bind(small_video)
        writer = VideoWriter(sim, rate=30.0)
        run_chain(sim, reader, writer)
        result = writer.result()
        assert isinstance(result, RawVideoValue)
        assert np.array_equal(result.frames_array, small_video.frames_array)

    def test_writer_rebuilds_encoded_value(self, sim, small_video):
        codec = MPEGCodec(80, gop=5)
        encoded = codec.encode_value(small_video)
        reader = VideoReader(sim)
        reader.bind(encoded)
        writer = VideoWriter(sim, rate=30.0, codec=codec, geometry=(32, 24, 8))
        run_chain(sim, reader, writer)
        result = writer.result()
        assert isinstance(result, MPEGVideoValue)
        assert result.num_frames == small_video.num_frames

    def test_writer_encoded_without_codec_fails(self, sim, small_video):
        encoded = JPEGCodec(75).encode_value(small_video)
        reader = VideoReader(sim)
        reader.bind(encoded)
        writer = VideoWriter(sim)
        run_chain(sim, reader, writer)
        with pytest.raises(ActivityError, match="codec="):
            writer.result()

    def test_empty_writer_result_fails(self, sim):
        with pytest.raises(ActivityError, match="no elements"):
            VideoWriter(sim).result()


class TestAudioActivities:
    def test_reader_speaker_roundtrip(self, sim, small_audio):
        reader = AudioReader(sim, block_samples=512)
        reader.bind(small_audio)
        speaker = Speaker(sim)
        run_chain(sim, reader, speaker)
        assert np.array_equal(speaker.pcm(), small_audio.samples())
        assert sim.now.seconds == pytest.approx(
            (small_audio.num_samples - 512) / small_audio.sample_rate, abs=0.07
        )

    @pytest.mark.parametrize("codec_factory", [MuLawCodec, ADPCMCodec])
    def test_encode_decode_pipeline(self, sim, small_audio, codec_factory):
        codec = codec_factory()
        reader = AudioReader(sim, block_samples=512)
        reader.bind(small_audio)
        encoder = AudioEncoder(sim, codec)
        decoder = AudioDecoder(sim, codec, small_audio.num_channels)
        speaker = Speaker(sim)
        run_chain(sim, reader, encoder, decoder, speaker)
        out = speaker.pcm()
        assert out.shape == small_audio.samples().shape
        error = np.abs(out.astype(int) - small_audio.samples().astype(int))
        assert error.mean() < 500

    def test_a_reader_of_mulaw_audio_streams_pcm(self, sim, small_audio):
        """Bound to a coded value, the reader streams the decoded blocks:
        a decoder of the value's codec refuses it, an encoder takes it."""
        codec = MuLawCodec()
        coded = codec.encode_value(small_audio)
        reader = AudioReader(sim, block_samples=512)
        reader.bind(coded)
        decoder = AudioDecoder(sim, codec, small_audio.num_channels)
        graph = ActivityGraph(sim)
        graph.add(reader)
        graph.add(decoder)
        with pytest.raises(ActivityError, match="audio/pcm"):
            graph.connect(reader.port("audio_out"), decoder.port("audio_in"))
        reader = AudioReader(sim, name="again", block_samples=codec.block_samples)
        reader.bind(coded)
        writer = AudioWriter(sim, rate=small_audio.sample_rate, codec=codec,
                             geometry=(small_audio.num_channels,))
        run_chain(sim, reader, AudioEncoder(sim, codec), writer)
        assert np.array_equal(writer.result().samples(), coded.samples())

    def test_audio_mixer_saturates(self, sim):
        loud = tone(0.2, 440.0, 8000.0, amplitude=0.95)
        r1, r2 = AudioReader(sim, name="a1"), AudioReader(sim, name="a2")
        r1.bind(loud)
        r2.bind(loud)
        mixer = AudioMixer(sim)
        speaker = Speaker(sim)
        graph = ActivityGraph(sim)
        for activity in (r1, r2, mixer, speaker):
            graph.add(activity)
        graph.connect(r1.port("audio_out"), mixer.port("audio_in_0"))
        graph.connect(r2.port("audio_out"), mixer.port("audio_in_1"))
        graph.connect(mixer.port("audio_out"), speaker.port("audio_in"))
        graph.run_to_completion()
        pcm = speaker.pcm()
        assert pcm.max() == 32767  # clipped, not wrapped
        assert pcm.min() >= -32768

    @pytest.mark.parametrize("codec_factory", [MuLawCodec, ADPCMCodec])
    def test_encoder_writer_chain_stores_the_batch_blocks(
            self, sim, small_audio, codec_factory):
        codec = codec_factory()
        reader = AudioReader(sim, block_samples=codec.block_samples)
        reader.bind(small_audio)
        writer = AudioWriter(sim, rate=small_audio.sample_rate, codec=codec,
                             geometry=(small_audio.num_channels,))
        run_chain(sim, reader, AudioEncoder(sim, codec), writer)
        value = writer.result()
        expected = codec.encode_value(small_audio)
        assert type(value) is type(expected)
        assert len(value.blocks) > 1 and value.blocks == expected.blocks
        assert value.num_samples == small_audio.num_samples
        assert value.sample_rate == small_audio.sample_rate

    def test_audio_writer_result(self, sim, small_audio):
        reader = AudioReader(sim)
        reader.bind(small_audio)
        writer = AudioWriter(sim, rate=small_audio.sample_rate)
        run_chain(sim, reader, writer)
        assert np.array_equal(writer.result().samples(), small_audio.samples())


# The parent's two mixing formulas (``VideoMixer._mix`` and the body of
# ``AudioMixer._process``), kept as the oracle of the one mixer.
def _parent_video_mix(frames, weights):
    acc = np.zeros(frames[0].shape, dtype=np.float64)
    for weight, frame in zip(weights, frames):
        acc += weight * frame.astype(np.float64)
    return np.clip(np.round(acc), 0, 255).astype(np.uint8)


def _parent_audio_mix(blocks):
    width = min(b.shape[1] for b in blocks)
    acc = np.zeros((blocks[0].shape[0], width), dtype=np.int32)
    for block in blocks:
        acc += block[:, :width].astype(np.int32)
    return np.clip(acc, -32768, 32767).astype(np.int16)


def _mixed(sim, readers, mixer, writer):
    """Run ``readers`` through ``mixer`` into ``writer``: what the writer
    stored, and the bits the mixer sent."""
    graph = ActivityGraph(sim)
    for activity in (*readers, mixer, writer):
        graph.add(activity)
    for reader, port in zip(readers, mixer.in_ports()):
        graph.connect(reader.out_ports()[0], port)
    out = graph.connect(mixer.out_ports()[0], writer.in_ports()[0])
    graph.run_to_completion()
    return writer.presented, out.bits_sent


class TestOneMixer:
    @given(seed=st.integers(0, 2**16), inputs=st.integers(2, 3),
           frames=st.integers(1, 4), color=st.booleans())
    @settings(max_examples=30)
    def test_frames_blend_as_the_video_mixer_did(self, seed, inputs, frames,
                                                 color):
        rng = np.random.default_rng(seed)
        shape = (frames, 6, 10, 3) if color else (frames, 6, 10)
        streams = [rng.integers(0, 256, shape, dtype=np.uint8)
                   for _ in range(inputs)]
        weights = [float(w) for w in rng.uniform(0.0, 1.0, inputs)]
        sim = Simulator()
        readers = [VideoReader(sim, name=f"r{i}") for i in range(inputs)]
        for reader, stream in zip(readers, streams):
            reader.bind(RawVideoValue(stream))
        mixer = VideoMixer(sim, inputs=inputs, weights=weights)
        presented, bits = _mixed(sim, readers, mixer, VideoWriter(sim))
        expected = [_parent_video_mix([s[k] for s in streams], weights)
                    for k in range(frames)]
        assert [p.dtype for p in presented] == [np.uint8] * frames
        assert [p.tobytes() for p in presented] == [e.tobytes()
                                                    for e in expected]
        assert bits == frames * streams[0][0].size * 8

    @given(seed=st.integers(0, 2**16), channels=st.integers(1, 2),
           sizes=st.lists(st.tuples(st.integers(1, 300), st.integers(1, 90)),
                          min_size=2, max_size=3))
    @settings(max_examples=30)
    def test_blocks_of_unequal_length_sum_as_the_audio_mixer_did(
            self, seed, channels, sizes):
        # Each input has its own length and block size, so the blocks a
        # mix step takes differ in length.
        rng = np.random.default_rng(seed)
        pcm = [rng.integers(-32768, 32768, (channels, n), dtype=np.int16)
               for n, _ in sizes]
        sim = Simulator()
        readers = [AudioReader(sim, name=f"a{i}", block_samples=block)
                   for i, (_, block) in enumerate(sizes)]
        for reader, samples in zip(readers, pcm):
            reader.bind(RawAudioValue(samples, 8000.0))
        mixer = AudioMixer(sim, inputs=len(sizes))
        presented, bits = _mixed(sim, readers, mixer, AudioWriter(sim))
        blocks = [[p[:, lo:lo + block] for lo in range(0, p.shape[1], block)]
                  for p, (_, block) in zip(pcm, sizes)]
        expected = [_parent_audio_mix(step) for step in zip(*blocks)]
        assert [p.tobytes() for p in presented] == [e.tobytes()
                                                    for e in expected]
        assert bits == sum(e.size * 16 for e in expected)


class TestTextAndMIDI:
    def test_subtitles_presented_in_order(self, sim):
        track = subtitle_track(["one", "two", "three"], rate=2.0)
        reader = TextReader(sim)
        reader.bind(track)
        window = SubtitleWindow(sim)
        run_chain(sim, reader, window)
        assert window.texts() == ["one", "two", "three"]
        assert sim.now.seconds == pytest.approx(1.0)  # 3 items at 2/s

    def test_midi_source_streams_synthesized_pcm(self, sim):
        source = MIDISource(sim, block_samples=2048)
        source.bind(jingle())
        speaker = Speaker(sim)
        run_chain(sim, source, speaker)
        pcm = speaker.pcm()
        assert np.abs(pcm).max() > 1000
        assert pcm.shape[0] == 1

    def test_midi_source_rejects_audio(self, sim, small_audio):
        with pytest.raises(MediaTypeError):
            MIDISource(sim).bind(small_audio)


class TestCatalog:
    def test_table1_rows_match_paper(self):
        rows = {r.activity: r for r in ActivityCatalog.rows()}
        assert len(rows) == 8
        assert rows["video digitizer"].kind == "source"
        assert rows["video encoder"].input_type == "raw"
        assert rows["video encoder"].output_type == "compressed"
        assert rows["video decoder"].input_type == "compressed"
        assert rows["video mixer"].input_type == "raw x n"
        assert rows["video tee"].output_type == "raw x n"
        assert rows["video window"].kind == "sink"
        assert rows["video writer"].kind == "sink"

    def test_table_renders(self):
        table = ActivityCatalog.table(include_audio=True)
        assert "video mixer" in table
        assert "audio mixer" in table
        assert "midi source" in table


class TestAudioResampler:
    def test_upsample_preserves_duration_and_tone(self, sim):
        from repro.activities.library import AudioResampler
        source = tone(0.5, 440.0, sample_rate=8000.0)
        reader = AudioReader(sim, block_samples=512)
        reader.bind(source)
        resampler = AudioResampler(sim, source_rate=8000.0, target_rate=16000.0)
        speaker = Speaker(sim)
        run_chain(sim, reader, resampler, speaker)
        pcm = speaker.pcm()
        # Twice the samples over the same span.
        assert pcm.shape[1] == pytest.approx(source.num_samples * 2, rel=0.01)
        # The dominant frequency is still ~440 Hz at the new rate.
        spectrum = np.abs(np.fft.rfft(pcm[0].astype(np.float64)))
        peak_hz = np.argmax(spectrum) * 16000.0 / pcm.shape[1]
        assert abs(peak_hz - 440.0) < 20.0

    def test_downsample(self, sim):
        from repro.activities.library import AudioResampler
        source = tone(0.25, 200.0, sample_rate=16000.0)
        reader = AudioReader(sim, block_samples=1024)
        reader.bind(source)
        resampler = AudioResampler(sim, source_rate=16000.0, target_rate=8000.0)
        speaker = Speaker(sim)
        run_chain(sim, reader, resampler, speaker)
        assert speaker.pcm().shape[1] == pytest.approx(
            source.num_samples / 2, rel=0.02
        )

    def test_mixing_different_rates_through_resampler(self, sim):
        """The use case: a voice track joins a CD-rate mix."""
        from repro.activities.library import AudioResampler
        from repro.activities import ActivityGraph
        voice = tone(0.25, 300.0, sample_rate=8000.0)
        music = tone(0.25, 500.0, sample_rate=16000.0)
        r_voice = AudioReader(sim, name="v", block_samples=250)
        r_voice.bind(voice)
        r_music = AudioReader(sim, name="m", block_samples=500)
        r_music.bind(music)
        up = AudioResampler(sim, 8000.0, 16000.0, name="up")
        mixer = AudioMixer(sim)
        speaker = Speaker(sim)
        graph = ActivityGraph(sim)
        for activity in (r_voice, r_music, up, mixer, speaker):
            graph.add(activity)
        graph.connect(r_voice.port("audio_out"), up.port("audio_in"))
        graph.connect(up.port("audio_out"), mixer.port("audio_in_0"))
        graph.connect(r_music.port("audio_out"), mixer.port("audio_in_1"))
        graph.connect(mixer.port("audio_out"), speaker.port("audio_in"))
        graph.run_to_completion()
        pcm = speaker.pcm()[0].astype(np.float64)
        spectrum = np.abs(np.fft.rfft(pcm))
        hz = np.arange(len(spectrum)) * 16000.0 / len(pcm)
        # Both tones present in the mix.
        assert spectrum[(np.abs(hz - 300)).argmin()] > spectrum.mean() * 5
        assert spectrum[(np.abs(hz - 500)).argmin()] > spectrum.mean() * 5

    def test_invalid_rates(self, sim):
        from repro.activities.library import AudioResampler
        with pytest.raises(ActivityError):
            AudioResampler(sim, 0.0, 8000.0)
        with pytest.raises(ActivityError):
            AudioResampler(sim, 8000.0, -1.0)
