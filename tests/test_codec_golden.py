"""Golden-output tests: vectorized codec kernels are bit-identical.

``tests/golden/codec_golden.json`` holds SHA-256 hashes of encoded
chunk streams and decoded frame bytes produced by the pre-vectorization
(per-run / per-plane loop) implementations of the RLE, DCT and
interframe codecs.  The vectorized kernels must reproduce those bytes
exactly — lossy codecs included, since quantization happens before
entropy coding and both are deterministic.  The decoded hashes hold for
random access and for the stateful stream decoder a playback uses.
``TestParentOracles`` keeps the batched forward kernels that the
per-frame path replaced, and the interframe encoder's decode-the-chunk
reference, as oracles over a seeded sweep of clips and settings.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.codecs import dct
from repro.codecs.dct import JPEGCodec
from repro.codecs.interframe import MPEGCodec
from repro.codecs.rle import RLECodec, rle_decode_bytes, rle_encode_bytes
from repro.synth import flat_video, moving_scene, noise_video

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "codec_golden.json").read_text()
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _video(name):
    return {
        "moving": lambda: moving_scene(24, 72, 56),
        "moving_color": lambda: moving_scene(12, 48, 40, color=True),
        "noise": lambda: noise_video(10, 64, 48),
        "flat": lambda: flat_video(8, 64, 48),
    }[name]()


def _codec(name):
    return {
        "rle": lambda: RLECodec(),
        "jpeg": lambda: JPEGCodec(quality=70),
        "mpeg": lambda: MPEGCodec(quality=70, gop=5, delta_quant=3),
    }[name]()


class TestVideoCodecGolden:
    @pytest.mark.parametrize("key", sorted(k for k in GOLDEN if "/" in k
                                           and not k.startswith("rle_bytes/")))
    def test_encode_and_decode_bit_identical(self, key):
        cname, vname = key.split("/")
        video = _video(vname)
        codec = _codec(cname)
        frames = [video.frame(i) for i in range(video.num_frames)]

        chunks = codec.encode_frames(frames)
        assert _sha(b"".join(chunks)) == GOLDEN[key]["encoded"], (
            f"{key}: encoded bytes diverged from the scalar implementation"
        )
        assert sum(len(c) for c in chunks) == GOLDEN[key]["bytes"]

        geometry = (video.width, video.height, video.depth)
        # Random access, and the stateful decoder playback runs
        # (``stream_decoder(...).decode_next``), must agree on the bytes.
        stream = codec.stream_decoder(*geometry)
        for path, decode in (
                ("decode_frame_at",
                 lambda i: codec.decode_frame_at(chunks, i, *geometry)),
                ("stream_decoder",
                 lambda i: stream.decode_next(chunks[i]))):
            decoded = b"".join(np.ascontiguousarray(decode(i)).tobytes()
                               for i in range(len(frames)))
            assert _sha(decoded) == GOLDEN[key]["decoded"], (
                f"{key}: {path} frames diverged from the scalar "
                f"implementation"
            )


class TestRLEByteStreams:
    CASES = {
        "runs": bytes([5] * 300 + [7] + [9] * 255 + [1, 2, 3]),
        "empty": b"",
        "single": b"\xff",
        "alternating": bytes(range(256)) * 3,
        "long": bytes([0]) * 100000,
    }

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_pathological_inputs_bit_identical(self, label):
        data = self.CASES[label]
        encoded = rle_encode_bytes(data)
        assert rle_decode_bytes(encoded) == data
        golden = GOLDEN[f"rle_bytes/{label}"]
        assert len(encoded) == golden["len"]
        assert _sha(encoded) == golden["encoded"]

    def test_run_splitting_layout(self):
        # One run of 700 zeros: (255, 0) (255, 0) (190, 0) — full pairs
        # first, remainder last, remainder in [1, 255].
        encoded = rle_encode_bytes(bytes(700))
        assert encoded == bytes([255, 0, 255, 0, 190, 0])
        # A run of exactly 255 stays a single pair; 256 splits 255 + 1.
        assert rle_encode_bytes(bytes([3]) * 255) == bytes([255, 3])
        assert rle_encode_bytes(bytes([3]) * 256) == bytes([255, 3, 1, 3])


# -- the parent's kernels, kept as oracles ---------------------------------
# Before the forward path ran one frame at a time, in place, a uniform
# clip went through one batched transform over every block of every
# frame, and the interframe encoder took a keyframe's reference from
# decoding the chunk it had just written.  Both are copied here as they
# were, with the decoder's inverse they called.

_BLOCK = 8


def _parent_pad_to_blocks(channel):
    h, w = channel.shape[-2:]
    ph = (-h) % _BLOCK
    pw = (-w) % _BLOCK
    if ph or pw:
        pad = [(0, 0)] * (channel.ndim - 2) + [(0, ph), (0, pw)]
        channel = np.pad(channel, pad, mode="edge")
    return channel


def _parent_to_blocks(channel):
    h, w = channel.shape[-2:]
    lead = channel.shape[:-2]
    blocks = channel.reshape(*lead, h // _BLOCK, _BLOCK, w // _BLOCK, _BLOCK)
    axes = tuple(range(len(lead))) + (channel.ndim - 2, channel.ndim,
                                      channel.ndim - 1, channel.ndim + 1)
    return blocks.transpose(axes).reshape(-1, _BLOCK, _BLOCK)


def parent_dct_quantize_channel(channel, table):
    padded = _parent_pad_to_blocks(channel)
    blocks = _parent_to_blocks(padded.astype(np.float64))
    coeffs = dct._DCT @ blocks @ dct._IDCT
    quantized = np.round(coeffs / table)
    return quantized.astype(np.int16), padded.shape[-2:]


def parent_jpeg_encode_frame(codec, frame):
    frame = np.asarray(frame)
    stack = frame[None] if frame.ndim == 2 else frame.transpose(2, 0, 1)
    centered = stack.astype(np.float64) - 128.0
    quantized, (ph, pw) = parent_dct_quantize_channel(
        centered, dct.quant_table(codec.quality))
    header = codec._HEADER.pack(codec._MAGIC, codec.quality, ph, pw)
    return header + zlib.compress(quantized.tobytes(), level=6)


def parent_jpeg_encode_frames(codec, frames):
    frames = [np.asarray(f) for f in frames]
    if len(frames) > 1 and all(f.shape == frames[0].shape for f in frames):
        stack = np.stack(frames)
        stack = (stack[:, None] if stack.ndim == 3
                 else stack.transpose(0, 3, 1, 2))
        centered = stack.astype(np.float64) - 128.0
        quantized, (ph, pw) = parent_dct_quantize_channel(
            centered, dct.quant_table(codec.quality))
        per_frame = quantized.reshape(len(frames), -1)
        header = codec._HEADER.pack(codec._MAGIC, codec.quality, ph, pw)
        return [header + zlib.compress(q.tobytes(), level=6)
                for q in per_frame]
    return [parent_jpeg_encode_frame(codec, f) for f in frames]


def parent_jpeg_decode_frame(chunk, width, height, depth):
    """The parent's ``decode_frame`` on a well-formed chunk."""
    _, quality, ph, pw = JPEGCodec._HEADER.unpack_from(chunk)
    channels = 1 if depth == 8 else 3
    raw = zlib.decompress(chunk[JPEGCodec._HEADER.size:])
    quantized = np.frombuffer(raw, dtype=np.int16).reshape(-1, _BLOCK, _BLOCK)
    coeffs = quantized.astype(np.float64)
    coeffs *= dct._tiled_table(quality, len(quantized))
    blocks = dct._IDCT @ coeffs @ dct._DCT
    blocks += 128.0
    blocks.clip(0.0, 255.0, out=blocks)
    planes = np.empty((channels, ph, pw), dtype=np.uint8)
    rows, cols = ph // _BLOCK, pw // _BLOCK
    np.copyto(planes.reshape(channels, rows, _BLOCK, cols, _BLOCK)
              .transpose(0, 1, 3, 2, 4),
              blocks.reshape(channels, rows, cols, _BLOCK, _BLOCK),
              casting="unsafe")
    if ph != height or pw != width:
        planes = np.ascontiguousarray(planes[:, :height, :width])
    if depth == 8:
        return planes[0]
    return np.ascontiguousarray(planes.transpose(1, 2, 0))


def parent_mpeg_encode_frames(codec, frames):
    """The parent's encoder: (chunks, the reconstructed frame of each),
    which is what a decoder in lockstep with it must return."""
    chunks, references = [], []
    reference = None
    for i, frame in enumerate(frames):
        frame = np.asarray(frame)
        if i % codec.gop == 0:
            intra_chunk = parent_jpeg_encode_frame(codec._intra, frame)
            chunks.append(codec._HEADER.pack(codec._MAGIC, codec._KEY)
                          + intra_chunk)
            height, width = frame.shape[:2]
            depth = 8 if frame.ndim == 2 else 24
            reference = parent_jpeg_decode_frame(
                intra_chunk, width, height, depth).astype(np.int16)
        else:
            delta = frame.astype(np.int16) - reference
            quantized = (delta // codec.delta_quant).astype(np.int8)
            payload = zlib.compress(quantized.tobytes(), level=6)
            chunks.append(codec._HEADER.pack(codec._MAGIC, codec._DELTA)
                          + payload)
            restored = quantized.astype(np.int16) * codec.delta_quant
            reference = np.clip(reference + restored, 0, 255)
        references.append(reference.astype(np.uint8))
    return chunks, references


def _draw(rng):
    """One clip and codec settings: 1-13 frames of 1-70 x 1-50 pixels,
    grey or colour, random, flat or temporally coherent."""
    n, width, height = (int(rng.integers(1, 14)), int(rng.integers(1, 71)),
                        int(rng.integers(1, 51)))
    shape = (height, width, 3) if rng.random() < 0.5 else (height, width)
    kind = rng.choice(["random", "flat", "coherent"])
    if kind == "random":
        frames = rng.integers(0, 256, size=(n, *shape), dtype=np.uint8)
    elif kind == "flat":
        frames = np.full((n, *shape), rng.integers(0, 256), dtype=np.uint8)
    else:
        frame = rng.integers(0, 256, size=shape).astype(np.int16)
        frames = np.empty((n, *shape), dtype=np.uint8)
        for i in range(n):
            frames[i] = frame
            frame = np.clip(np.roll(frame, 1, axis=1)
                            + rng.integers(-6, 7, size=shape), 0, 255)
    settings = dict(quality=int(rng.integers(1, 101)),
                    gop=int(rng.integers(1, 6)),
                    delta_quant=int(rng.integers(1, 5)))
    return list(frames), (width, height, 8 if len(shape) == 2 else 24), settings


class TestParentOracles:
    """The per-frame, in-place forward path and the MPEG reference made
    from the encoder's own coefficients against the parent's kernels:
    the same chunk bytes, and the same frames from random access and
    from the stream decoder, over a seeded sweep of clips and settings.
    Draws alternate between the two codecs (an MPEG keyframe runs the
    JPEG forward path too), which keeps the sweep under a second."""

    DRAWS = 200

    @staticmethod
    def check_draw(draw, frames, geometry, settings):
        if draw % 2:
            name, codec = "mpeg", MPEGCodec(**settings)
            want_chunks, want_frames = parent_mpeg_encode_frames(codec, frames)
        else:
            name, codec = "jpeg", JPEGCodec(settings["quality"])
            want_chunks = parent_jpeg_encode_frames(codec, frames)
            want_frames = [parent_jpeg_decode_frame(c, *geometry)
                           for c in want_chunks]
        chunks = codec.encode_frames(frames)
        assert chunks == want_chunks, (
            f"draw {draw}: {name} chunk bytes differ from the parent's")
        stream = codec.stream_decoder(*geometry)
        for i, want in enumerate(want_frames):
            for path, got in (
                    ("decode_frame_at",
                     codec.decode_frame_at(chunks, i, *geometry)),
                    ("stream_decoder", stream.decode_next(chunks[i]))):
                assert got.shape == want.shape and np.array_equal(got, want), (
                    f"draw {draw}: {name} {path} frame {i} differs from "
                    f"the parent's")

    def sweep(self):
        rng = np.random.default_rng(20_240_601)
        for draw in range(self.DRAWS):
            self.check_draw(draw, *_draw(rng))

    def test_sweep_equals_the_parents_kernels(self):
        self.sweep()

    @pytest.mark.parametrize("line, planted", [
        ("np.rint(blocks, out=blocks)", "np.floor(blocks, out=blocks)"),
        ("blocks -= 128.0", "pass"),
    ], ids=["floor-for-rint", "no-centring"])
    def test_a_replanted_forward_bug_is_found(self, monkeypatch, line,
                                              planted):
        source = inspect.getsource(JPEGCodec._encode)
        assert line in source
        scope: dict = {}
        exec(textwrap.dedent(source.replace(line, planted)), vars(dct), scope)
        monkeypatch.setattr(JPEGCodec, "_encode", scope["_encode"])
        with pytest.raises(AssertionError, match="chunk bytes differ"):
            self.sweep()
