"""Working codecs for the encoded value classes (DESIGN.md §2).

The paper needs codecs as rate/size/quality transformers with distinct
compression behaviour; these implementations really encode and decode:

* :class:`RawCodec` — identity byte packing ("raw" ports in Table 1);
* :class:`RLECodec` — run-length encoding, lossless;
* :class:`JPEGCodec` — intraframe 8x8 block DCT + quantization + DEFLATE
  entropy coding (JPEG-like, lossy);
* :class:`MPEGCodec` — keyframe/delta interframe coding on top of the DCT
  transform (MPEG-like, lossy, higher ratio on temporally coherent video);
* :class:`DVICodec` — 2x2 block vector quantization (DVI/Indeo-like);
* µ-law and IMA-style ADPCM audio codecs (:class:`AudioCodec`), which
  offer the video codecs' stream protocol;
* :class:`MIDISynthesizer` — renders MIDI event tracks to PCM audio (the
  paper's "synthesizing digital audio from MIDI data").
"""

from repro.codecs.audio import ADPCMCodec, AudioCodec, MuLawCodec, decode_mulaw, encode_mulaw
from repro.codecs.base import VideoCodec
from repro.codecs.dct import JPEGCodec
from repro.codecs.interframe import MPEGCodec
from repro.codecs.midisynth import MIDISynthesizer
from repro.codecs.raw import RawCodec
from repro.codecs.registry import get_codec
from repro.codecs.rle import RLECodec
from repro.codecs.vq import DVICodec

__all__ = [
    "VideoCodec",
    "AudioCodec",
    "RawCodec",
    "RLECodec",
    "JPEGCodec",
    "MPEGCodec",
    "DVICodec",
    "MuLawCodec",
    "ADPCMCodec",
    "encode_mulaw",
    "decode_mulaw",
    "MIDISynthesizer",
    "get_codec",
]
