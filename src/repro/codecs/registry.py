"""Codec registry: name -> constructor.

The database's quality negotiation layer resolves
:class:`~repro.quality.Representation` codec names through this registry,
and dynamic source configuration (§4.3: "if SimpleNewscast.videoTrack
values use various underlying representations ... then dynamic
configuration of dbSource is necessary") looks decoders up by the codec
name an encoded value carries.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.codecs.audio import ADPCMCodec, MuLawCodec
from repro.codecs.dct import JPEGCodec
from repro.codecs.interframe import MPEGCodec
from repro.codecs.raw import RawCodec
from repro.codecs.rle import RLECodec
from repro.codecs.vq import DVICodec
from repro.errors import CodecError

_FACTORIES: Dict[str, Callable[..., object]] = {
    "raw": RawCodec,
    "rle": RLECodec,
    "jpeg": JPEGCodec,
    "mpeg": MPEGCodec,
    "dvi": DVICodec,
    "mulaw": MuLawCodec,
    "adpcm": ADPCMCodec,
}


def get_codec(name: str, **params):
    """Instantiate a codec by registry name with codec-specific params."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r} (available: {sorted(_FACTORIES)})"
        ) from None
    return factory(**params)
