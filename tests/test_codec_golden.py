"""Golden-output tests: vectorized codec kernels are bit-identical.

``tests/golden/codec_golden.json`` holds SHA-256 hashes of encoded
chunk streams and decoded frame bytes produced by the pre-vectorization
(per-run / per-plane loop) implementations of the RLE, DCT and
interframe codecs.  The vectorized kernels must reproduce those bytes
exactly — lossy codecs included, since quantization happens before
entropy coding and both are deterministic.  The decoded hashes hold for
random access and for the stateful stream decoder a playback uses.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

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
