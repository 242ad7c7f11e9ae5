"""The container format: atoms, track table, time-interleaved media data.

Layout (all integers little-endian)::

    FTYP atom: magic "AVDB", format version u16
    MOOV atom: u16 track count, then one TRAK atom per track
      TRAK payload:
        name            (u8 length + utf-8)
        media type name (u8 length + utf-8)
        codec name      (u8 length + utf-8; "" = uncoded)
        codec params    (u16 length + JSON utf-8)
        rate f64, start f64, scale f64     (the value's time mapping)
        element count u32
        geometry: width u16, height u16, depth u8, channels u8
                  (zeroed where not applicable)
    MDAT atom: sample records, each
        track index u16, element index u32, payload size u32, payload

Sample records are ordered by ideal presentation time, so a sequential
scan of MDAT yields elements in playback order — the interleaved,
streaming-friendly layout of real track-based formats.

Supported track value classes: raw and encoded video, raw and encoded
audio (audio grouped into blocks of up to 1024 sample frames per record),
and text streams.
"""

from __future__ import annotations

import io
import json
import struct
from typing import BinaryIO, Dict, Iterator, List, Tuple

import numpy as np

from repro.avtime import TimeMapping, WorldTime
from repro.codecs.audio import ADPCMCodec, MuLawCodec
from repro.codecs.base import VideoCodec
from repro.codecs.registry import get_codec
from repro.errors import CodecError, DataModelError, SchemaError
from repro.temporal import TCompSpec, TemporalComposite, Timeline, TimelineEntry, TrackSpec
from repro.values.audio import (
    ADPCMAudioValue,
    EncodedAudioValue,
    MuLawAudioValue,
    RawAudioValue,
)
from repro.values.base import MediaValue
from repro.values.mediatype import standard_type
from repro.values.text import TextItem, TextStreamValue
from repro.values.video import EncodedVideoValue, RawVideoValue

MAGIC = b"AVDB"
VERSION = 1
AUDIO_BLOCK = 1024

_ATOM = struct.Struct("<I4s")
_FTYP = struct.Struct("<4sH")
_TRAK_FIXED = struct.Struct("<dddIHHBB")
_SAMPLE = struct.Struct("<HII")
_COUNT = struct.Struct("<H")
#: the codecs a coded track of each kind may name.
_TRACK_CODECS = {"video": VideoCodec, "audio": (MuLawCodec, ADPCMCodec),
                 "text": ()}


def _write_atom(out: BinaryIO, kind: bytes, payload: bytes) -> None:
    out.write(_ATOM.pack(len(payload), kind))
    out.write(payload)


def _read_atom(data: bytes, offset: int) -> Tuple[bytes, bytes, int]:
    if offset + _ATOM.size > len(data):
        raise DataModelError("truncated container: atom header missing")
    size, kind = _ATOM.unpack_from(data, offset)
    start = offset + _ATOM.size
    end = start + size
    if end > len(data):
        raise DataModelError(f"truncated container: {kind!r} atom body missing")
    return kind, data[start:end], end


def _pack_str(text: str, width: str = "B") -> bytes:
    raw = text.encode("utf-8")
    return struct.pack(f"<{width}", len(raw)) + raw


def _unpack(layout: struct.Struct, data: bytes, offset: int) -> tuple:
    if offset + layout.size > len(data):
        raise DataModelError(f"truncated container: {layout.size}-byte field "
                             f"at {offset} of {len(data)}")
    return layout.unpack_from(data, offset)


def _unpack_str(data: bytes, offset: int, width: str = "B") -> Tuple[str, int]:
    layout = struct.Struct(f"<{width}")
    (length,) = _unpack(layout, data, offset)
    start = offset + layout.size
    raw = data[start:start + length]
    if len(raw) != length:
        raise DataModelError("truncated container: string runs past its atom")
    try:
        return raw.decode("utf-8"), start + length
    except UnicodeDecodeError as exc:
        raise DataModelError(f"corrupt container: {exc}") from None


class _TrackInfo:
    """One TRAK header, checked: its media type, codec and time mapping."""

    def __init__(self, name: str, media_type: str, codec: str, params: dict,
                 rate: float, start: float, scale: float, count: int,
                 width: int, height: int, depth: int, channels: int) -> None:
        self.name = name
        self.media_type = standard_type(media_type)
        self.kind = self.media_type.kind.value
        if self.kind not in ("video", "audio", "text"):
            raise DataModelError(f"container cannot carry a {media_type} "
                                 f"track")
        self.codec = _codec(codec, params) if codec else None
        if self.codec is not None and not isinstance(
                self.codec, _TRACK_CODECS[self.kind]):
            raise DataModelError(f"corrupt codec header: {codec!r} is no "
                                 f"{self.kind} codec")
        self.mapping = TimeMapping(rate, WorldTime(start), scale)
        self.count = count
        self.width = width
        self.height = height
        self.depth = depth
        self.channels = channels


class ContainerWriter:
    """Serializes a temporal composite into the container format."""

    def write(self, composite: TemporalComposite, out: BinaryIO) -> None:
        _write_atom(out, b"FTYP", _FTYP.pack(MAGIC, VERSION))
        tracks = [(name, composite.value(name))
                  for name in composite.track_names]
        moov = io.BytesIO()
        moov.write(struct.pack("<H", len(tracks)))
        for name, value in tracks:
            _write_atom(moov, b"TRAK", self._trak_payload(name, value))
        _write_atom(out, b"MOOV", moov.getvalue())
        _write_atom(out, b"MDAT", self._mdat_payload(tracks))

    # -- TRAK ------------------------------------------------------------
    def _trak_payload(self, name: str, value: MediaValue) -> bytes:
        codec_name, params = self._codec_of(value)
        width = height = depth = channels = 0
        count = value.element_count
        if isinstance(value, (RawVideoValue, EncodedVideoValue)):
            width, height, depth = value.width, value.height, value.depth
        elif isinstance(value, (RawAudioValue, EncodedAudioValue)):
            channels, depth = value.num_channels, value.depth
        elif not isinstance(value, TextStreamValue):
            raise DataModelError(
                f"container cannot carry a {type(value).__name__} track"
            )
        payload = io.BytesIO()
        payload.write(_pack_str(name))
        payload.write(_pack_str(value.media_type.name))
        payload.write(_pack_str(codec_name))
        payload.write(_pack_str(json.dumps(params), width="H"))
        payload.write(_TRAK_FIXED.pack(
            value.mapping.rate, value.mapping.start.seconds,
            value.mapping.scale, count, width, height, depth, channels,
        ))
        return payload.getvalue()

    @staticmethod
    def _codec_of(value: MediaValue) -> Tuple[str, dict]:
        if isinstance(value, EncodedVideoValue):
            codec = value.codec
            params = {}
            for key in ("quality", "gop", "delta_quant"):
                if hasattr(codec, key):
                    params[key] = getattr(codec, key)
            return codec.name, params
        if isinstance(value, EncodedAudioValue):
            return value.codec.name, {}
        return "", {}

    # -- MDAT ------------------------------------------------------------
    def _mdat_payload(self, tracks: List[Tuple[str, MediaValue]]) -> bytes:
        records: List[Tuple[float, int, int, bytes]] = []
        for track_index, (_name, value) in enumerate(tracks):
            for element_index, when, payload in self._elements_of(value):
                records.append((when, track_index, element_index, payload))
        records.sort(key=lambda r: (r[0], r[1], r[2]))
        out = io.BytesIO()
        for when, track_index, element_index, payload in records:
            out.write(_SAMPLE.pack(track_index, element_index, len(payload)))
            out.write(payload)
        return out.getvalue()

    def _elements_of(self, value: MediaValue):
        """(element index, ideal seconds, payload bytes) per sample record."""
        mapping = value.mapping
        if isinstance(value, EncodedVideoValue):
            for i, chunk in enumerate(value.chunks):
                yield i, mapping.start.seconds + i * mapping.scale / mapping.rate, chunk
        elif isinstance(value, RawVideoValue):
            for i in range(value.num_frames):
                payload = np.ascontiguousarray(value.frame(i)).tobytes()
                yield i, mapping.start.seconds + i * mapping.scale / mapping.rate, payload
        elif isinstance(value, EncodedAudioValue):
            span = value.codec.block_samples * mapping.scale / mapping.rate
            for i, block in enumerate(value.blocks):
                yield i, mapping.start.seconds + i * span, block
        elif isinstance(value, RawAudioValue):
            samples = value.samples()
            for i, lo in enumerate(range(0, value.num_samples, AUDIO_BLOCK)):
                block = np.ascontiguousarray(samples[:, lo:lo + AUDIO_BLOCK])
                when = mapping.start.seconds + lo * mapping.scale / mapping.rate
                yield i, when, block.tobytes()
        elif isinstance(value, TextStreamValue):
            for i in range(value.element_count):
                item = value.item(i)
                payload = struct.pack("<d", item.span) + item.text.encode("utf-8")
                yield i, mapping.start.seconds + i * mapping.scale / mapping.rate, payload
        else:
            raise DataModelError(
                f"container cannot carry a {type(value).__name__} track"
            )


def _parse(data: bytes) -> Tuple[List[_TrackInfo], bytes]:
    """The header and version check: ``data``'s tracks and MDAT payload."""
    kind, payload, offset = _read_atom(data, 0)
    if kind != b"FTYP":
        raise DataModelError(f"not a container: leading atom {kind!r}")
    magic, version = _unpack(_FTYP, payload, 0)
    if magic != MAGIC:
        raise DataModelError(f"bad container magic {magic!r}")
    if version != VERSION:
        raise DataModelError(f"unsupported container version {version}")
    kind, moov, offset = _read_atom(data, offset)
    if kind != b"MOOV":
        raise DataModelError(f"expected MOOV atom, got {kind!r}")
    (count,) = _unpack(_COUNT, moov, 0)
    moov_offset = _COUNT.size
    tracks: List[_TrackInfo] = []
    for _ in range(count):
        kind, trak, moov_offset = _read_atom(moov, moov_offset)
        if kind != b"TRAK":
            raise DataModelError(f"expected TRAK atom, got {kind!r}")
        tracks.append(_parse_trak(trak))
    kind, mdat, offset = _read_atom(data, offset)
    if kind != b"MDAT":
        raise DataModelError(f"expected MDAT atom, got {kind!r}")
    return tracks, mdat


def _parse_trak(payload: bytes) -> _TrackInfo:
    name, offset = _unpack_str(payload, 0)
    media_type, offset = _unpack_str(payload, offset)
    codec, offset = _unpack_str(payload, offset)
    params_json, offset = _unpack_str(payload, offset, width="H")
    rate, start, scale, count, width, height, depth, channels = \
        _unpack(_TRAK_FIXED, payload, offset)
    try:
        params = json.loads(params_json)
    except ValueError as exc:
        raise DataModelError(f"corrupt codec params: {exc}") from None
    if not isinstance(params, dict):
        raise DataModelError(f"corrupt codec params: {params_json!r}")
    return _TrackInfo(name, media_type, codec, params, rate, start,
                      scale, count, width, height, depth, channels)


def _records(mdat: bytes, tracks: List[_TrackInfo]
             ) -> Iterator[Tuple[int, int, bytes]]:
    """MDAT's sample records in file order: (track, element, payload).

    Each track's elements come numbered 0, 1, 2, ... as the writer
    numbers them, so a record is never a second copy of an element.
    """
    expected = [0] * len(tracks)
    offset = 0
    while offset < len(mdat):
        track_index, element_index, size = _unpack(_SAMPLE, mdat, offset)
        offset += _SAMPLE.size
        if track_index >= len(tracks):
            raise DataModelError(f"sample for unknown track {track_index}")
        if element_index != expected[track_index]:
            raise DataModelError(
                f"sample {element_index} of track {track_index} out of "
                f"order (expected {expected[track_index]})")
        expected[track_index] += 1
        payload = mdat[offset:offset + size]
        if len(payload) != size:
            raise DataModelError("truncated sample record")
        offset += size
        yield track_index, element_index, payload


def _decode(info: _TrackInfo, payload: bytes):
    """One record's element: a raw frame, a PCM block or a text item;
    a coded video or audio record stays its bytes, an audio block only
    if its codec would decode it for the track's channel count."""
    try:
        if info.kind == "text":
            (span,) = struct.unpack_from("<d", payload, 0)
            return TextItem(payload[8:].decode("utf-8"), span)
        if info.codec is not None:
            if info.kind == "audio":
                info.codec.check_block(payload, info.channels)
            return payload
        if info.kind == "video":
            shape = ((info.height, info.width) if info.depth == 8
                     else (info.height, info.width, 3))
            return np.frombuffer(payload, dtype=np.uint8).reshape(shape)
        return np.frombuffer(payload, dtype=np.int16).reshape(
            info.channels, -1)
    except (CodecError, ValueError, struct.error) as exc:
        raise DataModelError(f"corrupt sample record: {exc}") from None


def _read(data: bytes, tcomp_name: str) -> Tuple[
        TemporalComposite, List[_TrackInfo], List[Tuple[int, int, object, int]]]:
    """Parse ``data`` in full: the composite, its tracks, and the sample
    records in file order, each decoded once as (track, element index,
    element, record size in bits)."""
    tracks, mdat = _parse(data)
    records = [
        (track_index, element_index, _decode(tracks[track_index], payload),
         len(payload) * 8)
        for track_index, element_index, payload in _records(mdat, tracks)
    ]
    elements: List[List] = [[] for _ in tracks]
    for track_index, _, element, _ in records:
        elements[track_index].append(element)
    # Headers that parse can still describe no valid composite: a track
    # name that is no identifier, a sample depth no value class takes.
    try:
        values: Dict[str, MediaValue] = {
            info.name: _rebuild_value(info, decoded)
            for info, decoded in zip(tracks, elements)}
        spec = TCompSpec(tcomp_name, tuple(
            TrackSpec(info.name, info.media_type) for info in tracks))
        timeline = Timeline([
            TimelineEntry(info.name, values[info.name].interval)
            for info in tracks
        ])
        composite = TemporalComposite(spec, values, timeline)
    except (SchemaError, ValueError) as exc:
        raise DataModelError(f"corrupt container: {exc}") from None
    return composite, tracks, records


def _rebuild_value(info: _TrackInfo, decoded: List) -> MediaValue:
    mapping = info.mapping
    if info.kind == "video":
        if info.codec is not None:
            return info.codec.value_class(
                decoded, info.codec, info.width, info.height, info.depth,
                mapping=mapping,
            )
        return RawVideoValue(np.stack(decoded), mapping=mapping)
    if info.kind == "audio":
        if info.codec is not None:
            value_class = (MuLawAudioValue if info.codec.name == "mulaw"
                           else ADPCMAudioValue)
            return value_class(decoded, info.codec, info.channels,
                               info.count, mapping.rate, depth=info.depth,
                               mapping=mapping)
        return RawAudioValue(np.concatenate(decoded, axis=1),
                             depth=info.depth, mapping=mapping)
    return TextStreamValue(decoded, mapping=mapping)


class ContainerReader:
    """Parses container bytes back into a temporal composite."""

    def read(self, data: bytes, tcomp_name: str = "clip") -> TemporalComposite:
        return _read(data, tcomp_name)[0]


def _codec(name: str, params: dict):
    """The codec a track header names; a corrupt name or parameter set is
    a corrupt container."""
    try:
        return get_codec(name, **params)
    except (CodecError, TypeError) as exc:
        raise DataModelError(f"corrupt codec header: {exc}") from None


def write_composite(composite: TemporalComposite) -> bytes:
    """Serialize a composite to container bytes."""
    out = io.BytesIO()
    ContainerWriter().write(composite, out)
    return out.getvalue()


def read_composite(data: bytes, tcomp_name: str = "clip") -> TemporalComposite:
    """Parse container bytes back into a composite."""
    return ContainerReader().read(data, tcomp_name)
