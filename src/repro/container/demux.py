"""Streaming demultiplexer over container bytes.

The MDAT atom interleaves sample records by presentation time precisely
so that a player can stream *sequentially* — no random access, no
per-track seeking.  :class:`ContainerDemuxer` is that player-side
activity: one pass over the byte stream, one typed out-port per track,
elements paced at their recorded ideal times.

Raw video and text records are decoded to payload objects on the fly;
encoded video records are forwarded as chunks (a downstream
``VideoDecoder`` decompresses, as in Fig. 2); audio records are PCM
blocks (or codec blocks, decoded inline since audio block codecs are
self-contained).
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, Optional

import numpy as np

from repro.activities.base import Location, MediaActivity
from repro.activities.events import EVENT_EACH_ELEMENT, EVENT_LAST_ELEMENT
from repro.activities.ports import Direction
from repro.avtime import WorldTime
from repro.codecs.registry import get_codec
from repro.container.format import _SAMPLE, _read_atom, _unpack, AUDIO_BLOCK, ContainerReader, MAGIC, _FTYP
from repro.errors import DataModelError
from repro.sim import Delay, Simulator
from repro.streams.element import END_OF_STREAM, StreamElement
from repro.values.mediatype import standard_type
from repro.values.text import TextItem


class ContainerDemuxer(MediaActivity):
    """Source activity streaming a container's tracks out of one scan.

    One out-port per track, named after the track.  Encoded video tracks
    emit chunk payloads typed by their stored media type (connect a
    decoder downstream); raw video emits frames; audio emits PCM blocks;
    text emits :class:`TextItem` objects.
    """

    EVENT_NAMES = MediaActivity.EVENT_NAMES + (EVENT_EACH_ELEMENT, EVENT_LAST_ELEMENT)

    def __init__(self, simulator: Simulator, data: bytes,
                 name: Optional[str] = None,
                 location: Location = Location.DATABASE) -> None:
        super().__init__(simulator, name, location)
        self._tracks = self._parse_header(data)
        self._mdat = self._find_mdat(data)
        self.elements_produced = 0
        self._audio_decoders: Dict[int, object] = {}
        for index, info in enumerate(self._tracks):
            media_type = standard_type(info.media_type)
            if media_type.kind.value == "audio":
                # Audio is always delivered as PCM blocks.
                port_type = standard_type("audio/pcm")
                if info.codec:
                    self._audio_decoders[index] = get_codec(info.codec)
            else:
                port_type = media_type
            self.add_port(info.name, Direction.OUT, port_type)

    # -- header parsing (reusing the reader's atom walkers) ----------------
    @staticmethod
    def _parse_header(data: bytes):
        offset = 0
        kind, payload, offset = _read_atom(data, offset)
        if kind != b"FTYP":
            raise DataModelError("not a container stream")
        magic, _version = _unpack(_FTYP, payload, 0)
        if magic != MAGIC:
            raise DataModelError(f"bad container magic {magic!r}")
        kind, moov, offset = _read_atom(data, offset)
        if kind != b"MOOV":
            raise DataModelError("expected MOOV atom")
        return ContainerReader()._parse_moov(moov)

    @staticmethod
    def _find_mdat(data: bytes) -> bytes:
        offset = 0
        while offset < len(data):
            kind, payload, offset = _read_atom(data, offset)
            if kind == b"MDAT":
                return payload
        raise DataModelError("container has no MDAT atom")

    # -- the single-pass streaming loop --------------------------------------
    def _record_time(self, track_index: int, element_index: int) -> float:
        info = self._tracks[track_index]
        media_type = standard_type(info.media_type)
        per_record = 1
        if media_type.kind.value == "audio":
            codec = self._audio_decoders.get(track_index)
            per_record = codec.block_samples if codec else AUDIO_BLOCK
        return info.start + element_index * per_record * info.scale / info.rate

    def _decode_payload(self, track_index: int, payload: bytes):
        info = self._tracks[track_index]
        media_type = standard_type(info.media_type)
        if media_type.kind.value == "video":
            if info.codec:
                return payload  # chunks flow; decoding is a downstream activity
            shape = ((info.height, info.width) if info.depth == 8
                     else (info.height, info.width, 3))
            return np.frombuffer(payload, dtype=np.uint8).reshape(shape)
        if media_type.kind.value == "audio":
            codec = self._audio_decoders.get(track_index)
            if codec is not None:
                return codec.decode_block(payload, info.channels)
            return np.frombuffer(payload, dtype=np.int16).reshape(info.channels, -1)
        if media_type.kind.value == "text":
            (span,) = struct.unpack_from("<d", payload, 0)
            return TextItem(payload[8:].decode("utf-8"), span)
        raise DataModelError(f"cannot demux a {info.media_type} track")

    def _process(self) -> Generator:
        t_start = self.simulator.now_s
        offset = 0
        ports = [self.port(info.name) for info in self._tracks]
        while offset < len(self._mdat) and not self._stop_requested:
            track_index, element_index, size = _SAMPLE.unpack_from(
                self._mdat, offset
            )
            offset += _SAMPLE.size
            payload = self._mdat[offset:offset + size]
            offset += size
            when = self._record_time(track_index, element_index)
            if self.paced:
                wait = t_start + when - self.simulator.now_s
                if wait > 0:
                    yield Delay(wait)
            element = StreamElement(
                self._decode_payload(track_index, payload),
                element_index,
                WorldTime(t_start + when),
                ports[track_index].media_type,
                len(payload) * 8,
            )
            yield from ports[track_index].send(element)
            self.elements_produced += 1
            self._emit(EVENT_EACH_ELEMENT, (track_index, element_index))
        for port in ports:
            yield from port.send(END_OF_STREAM)
        self._emit(EVENT_LAST_ELEMENT, self.elements_produced)
