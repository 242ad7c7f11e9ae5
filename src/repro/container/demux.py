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
self-contained).  The demuxer shares the reader's header check, record
walk and payload decode, and runs them over the whole container before
anything plays: what :func:`~repro.container.read_composite` refuses,
the demuxer refuses when it is built.  It then sends the elements that
one pass decoded; playback decodes nothing again but coded audio.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.activities.base import Location, MediaActivity
from repro.activities.events import EVENT_EACH_ELEMENT, EVENT_LAST_ELEMENT
from repro.activities.ports import Direction
from repro.avtime import WorldTime
from repro.container.format import _read, _TrackInfo
from repro.sim import Delay, Simulator
from repro.streams.element import END_OF_STREAM, StreamElement
from repro.values.mediatype import standard_type


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
        _, self._tracks, self._records = _read(data, "clip")
        self.elements_produced = 0
        for info in self._tracks:
            # Audio is always delivered as PCM blocks.
            port_type = (standard_type("audio/pcm") if info.kind == "audio"
                         else info.media_type)
            self.add_port(info.name, Direction.OUT, port_type)

    # -- the single-pass streaming loop --------------------------------------
    @staticmethod
    def _record_time(info: _TrackInfo, before: int) -> float:
        """A record's ideal seconds, ``before`` mapping units of its track
        (see :meth:`_record_units`) after the track's start."""
        mapping = info.mapping
        return mapping.start.seconds + before * mapping.scale / mapping.rate

    @staticmethod
    def _record_units(info: _TrackInfo, element) -> int:
        """How far one record moves its track's clock: an audio block by
        its sample frames, which a stream may have cut to any length; any
        other record by one element."""
        if info.kind != "audio":
            return 1
        if info.codec is None:
            return element.shape[1]
        return info.codec.check_block(element, info.channels)

    @staticmethod
    def _element(info: _TrackInfo, element):
        if info.kind == "audio" and info.codec is not None:
            # Audio block codecs are self-contained: decoded inline.
            # ``_read`` has checked every block's length when built.
            return info.codec.decode_block(element, info.channels)
        return element  # a coded video chunk flows to a downstream decoder

    def _process(self) -> Generator:
        t_start = self.simulator.now_s
        ports = [self.port(info.name) for info in self._tracks]
        position = 0
        units = [0] * len(ports)  # per track: the mapping units sent so far
        while position < len(self._records) and not self._stop_requested:
            track_index, element_index, element, size_bits = self._records[position]
            position += 1
            info = self._tracks[track_index]
            when = self._record_time(info, units[track_index])
            units[track_index] += self._record_units(info, element)
            if self.paced:
                wait = t_start + when - self.simulator.now_s
                if wait > 0:
                    yield Delay(wait)
            yield from ports[track_index].send(StreamElement(
                self._element(info, element),
                element_index,
                WorldTime(t_start + when),
                ports[track_index].media_type,
                size_bits,
            ))
            self.elements_produced += 1
            self._emit(EVENT_EACH_ELEMENT, (track_index, element_index))
        for port in ports:
            yield from port.send(END_OF_STREAM)
        self._emit(EVENT_LAST_ELEMENT, self.elements_produced)
