"""Codecs: roundtrip fidelity, compression shapes, streaming state."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs import (
    ADPCMCodec,
    DVICodec,
    JPEGCodec,
    MPEGCodec,
    MuLawCodec,
    RawCodec,
    RLECodec,
    decode_mulaw,
    encode_mulaw,
    get_codec,
)
from repro.codecs.registry import _FACTORIES
from repro.codecs.rle import rle_decode_bytes, rle_encode_bytes
from repro.errors import CodecError
from repro.synth import flat_video, moving_scene, noise_video
from repro.values import RawVideoValue


def mae(a, b):
    return float(np.abs(a.astype(int) - b.astype(int)).mean())


class TestRawCodec:
    def test_roundtrip_exact(self, small_video):
        codec = RawCodec()
        encoded = codec.encode_value(small_video)
        decoded = codec.decode_value(encoded)
        assert np.array_equal(decoded, small_video.frames_array)

    def test_wrong_length_detected(self):
        with pytest.raises(CodecError, match="length"):
            RawCodec().decode_frame_at([b"xx"], 0, 16, 16, 8)


class TestRLE:
    def test_bytes_roundtrip(self):
        data = b"\x00" * 300 + b"\x05\x05\x07" + b"\xff" * 10
        assert rle_decode_bytes(rle_encode_bytes(data)) == data

    def test_empty(self):
        assert rle_encode_bytes(b"") == b""
        assert rle_decode_bytes(b"") == b""

    def test_odd_stream_rejected(self):
        with pytest.raises(CodecError):
            rle_decode_bytes(b"\x01")

    @given(st.binary(max_size=2000))
    @settings(max_examples=50)
    def test_roundtrip_property(self, data):
        assert rle_decode_bytes(rle_encode_bytes(data)) == data

    def test_flat_video_compresses_noise_does_not(self):
        codec = RLECodec()
        flat = codec.encode_value(flat_video(5, 64, 48))
        noise = codec.encode_value(noise_video(5, 64, 48))
        assert flat.compression_ratio() > 50.0
        assert noise.compression_ratio() < 1.0  # RLE expands noise

    def test_lossless(self, small_video):
        codec = RLECodec()
        decoded = codec.decode_value(codec.encode_value(small_video))
        assert np.array_equal(decoded, small_video.frames_array)


class TestJPEG:
    def test_lossy_but_close(self, small_video):
        codec = JPEGCodec(85)
        decoded = codec.decode_value(codec.encode_value(small_video))
        assert mae(decoded, small_video.frames_array) < 8.0

    def test_quality_monotonicity(self, small_video):
        """Higher quality -> larger chunks and lower error."""
        sizes, errors = [], []
        for quality in (20, 60, 95):
            codec = JPEGCodec(quality)
            encoded = codec.encode_value(small_video)
            sizes.append(encoded.data_size_bits())
            errors.append(mae(codec.decode_value(encoded), small_video.frames_array))
        assert sizes[0] < sizes[1] < sizes[2]
        assert errors[0] > errors[2]

    def test_color_frames(self):
        video = moving_scene(4, 32, 24, color=True)
        codec = JPEGCodec(85)
        decoded = codec.decode_value(codec.encode_value(video))
        assert decoded.shape == (4, 24, 32, 3)
        assert mae(decoded, video.frames_array) < 10.0

    def test_non_multiple_of_8_geometry(self):
        frames = np.random.default_rng(0).integers(
            0, 255, size=(2, 21, 37), dtype=np.uint8
        )
        # Smooth it so DCT error stays small.
        frames = (frames // 4 + 100).astype(np.uint8)
        video = RawVideoValue(frames)
        codec = JPEGCodec(90)
        decoded = codec.decode_value(codec.encode_value(video))
        assert decoded.shape == (2, 21, 37)

    def test_invalid_quality(self):
        with pytest.raises(CodecError):
            JPEGCodec(0)
        with pytest.raises(CodecError):
            JPEGCodec(101)

    def test_bad_magic_rejected(self, small_video):
        codec = JPEGCodec(75)
        with pytest.raises(CodecError, match="magic"):
            codec.decode_frame(b"XXXX" + b"\x00" * 40, 32, 24, 8)

    def test_a_four_channel_frame_is_refused(self):
        # It used to be encoded as four planes, a chunk that no frame
        # geometry (8 or 24 bits) decodes.
        with pytest.raises(CodecError, match=r"\(H, W\) or \(H, W, 3\)"):
            JPEGCodec(75).encode_frame(np.zeros((8, 8, 4), dtype=np.uint8))


class TestMPEG:
    def test_interframe_beats_intraframe_on_coherent_video(self):
        video = moving_scene(30, 64, 48)
        mpeg = MPEGCodec(75, gop=10).encode_value(video)
        jpeg = JPEGCodec(75).encode_value(video)
        assert mpeg.data_size_bits() < jpeg.data_size_bits()

    def test_degrades_toward_intra_on_noise(self):
        video = noise_video(20, 64, 48)
        mpeg = MPEGCodec(75, gop=10).encode_value(video)
        jpeg = JPEGCodec(75).encode_value(video)
        # Deltas of noise don't compress: no big win over intra.
        assert mpeg.data_size_bits() > 0.5 * jpeg.data_size_bits()

    def test_random_access_decodes_any_frame(self):
        video = moving_scene(25, 32, 24)
        codec = MPEGCodec(85, gop=7)
        encoded = codec.encode_value(video)
        for index in (0, 6, 7, 13, 24):
            frame = encoded.frame(index)
            assert mae(frame, video.frame(index)) < 12.0

    def test_no_drift_across_gop(self):
        """Reconstructed-reference encoding: error doesn't grow with i."""
        video = moving_scene(20, 32, 24)
        codec = MPEGCodec(85, gop=20)  # one keyframe, 19 deltas
        encoded = codec.encode_value(video)
        first_err = mae(encoded.frame(1), video.frame(1))
        last_err = mae(encoded.frame(19), video.frame(19))
        assert last_err < first_err + 6.0

    def test_sequential_and_random_decode_agree(self):
        video = moving_scene(15, 32, 24)
        codec = MPEGCodec(75, gop=5)
        encoded = codec.encode_value(video)
        sequential = codec.decode_value(encoded)
        for index in (0, 4, 5, 14):
            assert np.array_equal(sequential[index], encoded.frame(index))

    def test_stream_encoder_matches_batch(self):
        video = moving_scene(12, 32, 24)
        codec = MPEGCodec(75, gop=4)
        batch = codec.encode_frames([video.frame(i) for i in range(12)])
        streaming = codec.stream_encoder()
        live = [streaming.encode_next(video.frame(i)) for i in range(12)]
        assert live == batch

    def test_stream_decoder_requires_keyframe_first(self):
        video = moving_scene(4, 32, 24)
        codec = MPEGCodec(75, gop=2)
        chunks = codec.encode_frames([video.frame(i) for i in range(4)])
        decoder = codec.stream_decoder(32, 24, 8)
        with pytest.raises(CodecError, match="keyframe"):
            decoder.decode_next(chunks[1])  # a delta chunk

    @staticmethod
    def _after_a_keyframe(shape):
        """Encode a 16x16 keyframe, then a frame of ``shape``, both ways."""
        key = np.full((16, 16), 100, dtype=np.uint8)
        frame = np.full(shape, 120, dtype=np.uint8)
        codec = MPEGCodec(75, gop=4)
        with pytest.raises(CodecError, match="stream of"):
            codec.encode_frames([key, frame])
        encoder = codec.stream_encoder()
        encoder.encode_next(key)
        with pytest.raises(CodecError, match="stream of"):
            encoder.encode_next(frame)

    def test_a_narrower_frame_is_not_broadcast_into_a_delta(self):
        # A (1, 16) frame used to broadcast against the 16x16 reference
        # and come out as a 16x16 delta chunk.
        self._after_a_keyframe((1, 16))

    def test_a_smaller_frame_is_a_codec_error(self):
        self._after_a_keyframe((8, 8))        # was numpy's ValueError

    def test_a_colour_frame_after_a_grey_one_is_a_codec_error(self):
        self._after_a_keyframe((16, 16, 3))   # was numpy's ValueError

    def test_invalid_parameters(self):
        with pytest.raises(CodecError):
            MPEGCodec(gop=0)
        with pytest.raises(CodecError):
            MPEGCodec(delta_quant=0)


class TestMalformedChunks:
    """A video chunk that is not what its codec wrote raises
    ``CodecError``; nothing else escapes the decoder."""

    GEOMETRY = (24, 16, 8)     # width, height, depth

    @staticmethod
    def _chunks(codec_name):
        video = moving_scene(4, 24, 16)
        codec = (JPEGCodec(70) if codec_name == "jpeg"
                 else MPEGCodec(70, gop=2))
        return codec, codec.encode_frames(
            [video.frame(i) for i in range(video.num_frames)])

    def test_each_reproduced_case_is_a_codec_error(self):
        import struct
        import zlib

        jpeg, chunks = self._chunks("jpeg")
        header = chunks[0][:9]
        magic, quality, ph, pw = struct.unpack("<4sBHH", header)
        cases = [
            # padded height disagreeing with the payload (a reshape)
            struct.pack("<4sBHH", magic, quality, ph + 8, pw) + chunks[0][9:],
            # valid zlib, 5 bytes of coefficients
            header + zlib.compress(b"12345"),
            # not zlib at all
            header + b"not zlib",
        ]
        for chunk in cases:
            with pytest.raises(CodecError):
                jpeg.decode_frame(chunk, *self.GEOMETRY)
        mpeg, chunks = self._chunks("mpeg")
        wrong_delta = chunks[1][:5] + zlib.compress(b"\x00" * 7)
        decoder = mpeg.stream_decoder(*self.GEOMETRY)
        decoder.decode_next(chunks[0])
        with pytest.raises(CodecError):
            decoder.decode_next(wrong_delta)
        with pytest.raises(CodecError):
            mpeg.stream_decoder(*self.GEOMETRY).decode_next(chunks[0][:4])

    @settings(max_examples=150)
    @given(codec_name=st.sampled_from(["jpeg", "mpeg"]),
           index=st.integers(0, 3), data=st.data())
    def test_truncated_or_flipped_chunk(self, codec_name, index, data):
        codec, chunks = self._chunks(codec_name)
        chunk = bytearray(chunks[index])
        if data.draw(st.booleans(), label="truncate"):
            chunk = chunk[:data.draw(st.integers(0, len(chunk) - 1))]
        else:
            at = data.draw(st.integers(0, len(chunk) - 1))
            chunk[at] ^= data.draw(st.integers(1, 255))
        damaged = list(chunks)
        damaged[index] = bytes(chunk)
        width, height, depth = self.GEOMETRY
        try:
            frame = codec.decode_frame_at(damaged, index, width, height, depth)
        except CodecError:
            return
        assert frame.dtype == np.uint8
        assert frame.shape == (height, width)


class TestDVI:
    def test_roundtrip_quality(self, small_video):
        codec = DVICodec()
        decoded = codec.decode_value(codec.encode_value(small_video))
        assert mae(decoded, small_video.frames_array) < 6.0

    def test_compresses(self, small_video):
        encoded = DVICodec().encode_value(small_video)
        assert encoded.compression_ratio() > 2.0

    def test_payload_length_checked(self):
        codec = DVICodec()
        chunk = codec.encode_frame(np.zeros((16, 16), dtype=np.uint8))
        import zlib
        truncated = chunk[:8] + zlib.compress(b"\x00" * 10)
        with pytest.raises(CodecError):
            codec.decode_frame_at([truncated], 0, 16, 16, 8)


class TestAudioCodecs:
    @given(st.lists(st.integers(-32000, 32000), min_size=1, max_size=500))
    @settings(max_examples=30)
    def test_mulaw_error_bounded_relative(self, samples):
        pcm = np.array(samples, dtype=np.int16)
        decoded = decode_mulaw(encode_mulaw(pcm))
        # µ-law error is proportional to magnitude; bound it loosely.
        error = np.abs(decoded.astype(int) - pcm.astype(int))
        allowance = np.maximum(np.abs(pcm.astype(int)) * 0.12, 600)
        assert (error <= allowance).all()

    def test_mulaw_preserves_silence(self):
        silence = np.zeros(100, dtype=np.int16)
        assert np.abs(decode_mulaw(encode_mulaw(silence))).max() < 300

    def test_adpcm_block_roundtrip(self):
        codec = ADPCMCodec()
        t = np.arange(2048) / 8000.0
        pcm = np.round(8000 * np.sin(2 * np.pi * 300 * t)).astype(np.int16)
        pcm = pcm[np.newaxis, :]
        from repro.values import RawAudioValue
        encoded = codec.encode_value(RawAudioValue(pcm, 8000.0))
        error = np.abs(encoded.samples().astype(int) - pcm.astype(int))
        assert error.mean() < 400

    def test_adpcm_block_size_mismatch_detected(self):
        codec = ADPCMCodec()
        with pytest.raises(CodecError):
            codec.decode_block((100).to_bytes(4, "little") + b"\x00" * 10, 1)

    def test_adpcm_block_of_another_channel_count_refused(self):
        """A 2-channel block decoded as 1 channel is refused, not cut to
        the codes of its first channel."""
        from repro.values import RawAudioValue
        codec = ADPCMCodec()
        pcm = np.round(8000 * np.sin(np.arange(800) / 9.0)).astype(np.int16)
        encoded = codec.encode_value(RawAudioValue(pcm.reshape(2, 400), 8000.0))
        (block,) = encoded.blocks
        assert codec.decode_block(block, 2).shape == (2, 400)
        for channels in (1, 3):
            with pytest.raises(CodecError, match="expected"):
                codec.decode_block(block, channels)

    @pytest.mark.parametrize("codec_factory", [MuLawCodec, ADPCMCodec])
    def test_stream_encoder_matches_batch(self, codec_factory):
        """The stream protocol over a value's blocks is the batch encode,
        byte for byte, and its decoder is ``decode_block``."""
        from repro.values import RawAudioValue
        codec = codec_factory()
        rng = np.random.default_rng(3)
        pcm = rng.integers(-20000, 20000, (2, 2600)).astype(np.int16)
        value = RawAudioValue(pcm, 8000.0)
        batch = codec.encode_value(value)
        encoder = codec.stream_encoder()
        live = [encoder.encode_next(pcm[:, lo:lo + codec.block_samples])
                for lo in range(0, 2600, codec.block_samples)]
        assert live == batch.blocks and len(live) == 3
        decoder = codec.stream_decoder(2)
        for block in live:
            assert np.array_equal(decoder.decode_next(block),
                                  codec.decode_block(block, 2))

    def test_check_block_counts_sample_frames(self):
        pcm = np.zeros((2, 1500), dtype=np.int16)
        for codec in (MuLawCodec(), ADPCMCodec()):
            block = codec.encode_block(pcm[:, :999])
            assert codec.check_block(block, 2) == 999


class TestRegistry:
    def test_all_names_constructible(self):
        for name in sorted(_FACTORIES):
            codec = get_codec(name)
            assert codec is not None

    def test_params_forwarded(self):
        codec = get_codec("jpeg", quality=33)
        assert codec.quality == 33
        codec = get_codec("mpeg", gop=5)
        assert codec.gop == 5

    def test_unknown_codec(self):
        with pytest.raises(CodecError, match="unknown codec"):
            get_codec("h264")

    def test_pcm_names_no_codec(self):
        # Raw PCM is uncoded audio: the name must not resolve to a codec
        # (it used to give the raw *video* codec).
        with pytest.raises(CodecError, match="unknown codec"):
            get_codec("pcm")
