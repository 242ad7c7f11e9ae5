"""The activity catalog (paper Table 1 + §4.3, plus audio/text analogues).

Table 1 lists eight video activities; the paper adds that "the following
would also apply to audio activities".  A kind both media have is one
class here (:class:`Encoder`, :class:`Decoder`, :class:`Mixer`,
:class:`Writer`), whose Table 1 names (``VideoEncoder`` ... ``AudioWriter``)
fix only their media and their row:

=================  ===========  ==================  ==================
activity           kind         input port type     output port type
=================  ===========  ==================  ==================
video digitizer    source       (analog)            raw
video reader       source       (storage)           raw / compressed
video encoder      transformer  raw                 compressed
video decoder      transformer  compressed          raw
video mixer        transformer  raw x n             raw
video tee          transformer  raw                 raw x n
video window       sink         raw                 (display)
video writer       sink         raw / compressed    (storage)
=================  ===========  ==================  ==================

``ActivityCatalog.table()`` reprints the table from the live classes —
the Table 1 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

import numpy as np

from repro.activities.base import Location, MediaActivity
from repro.activities.clockout import (
    FETCHING,
    FRESH,
    SERIALIZING,
    ClockedRun,
)
from repro.activities.consumer import (
    DELAYED,
    GETTING,
    ConsumerRun,
    Filled,
    runs_of,
)
from repro.activities.events import (
    EVENT_EACH_ELEMENT,
    EVENT_EACH_FRAME,
    EVENT_LAST_ELEMENT,
    EVENT_LAST_FRAME,
)
from repro.activities.ports import Direction
from repro.avtime import ObjectTime, WorldTime
from repro.errors import ActivityError, MediaTypeError
from repro.sim import Delay, SettledCounter, Simulator
from repro.storage.devices import DeviceReservation
from repro.streams.buffer import StreamBuffer
from repro.streams.clock import PresentationLog
from repro.streams.element import END_OF_STREAM, EndOfStream, StreamElement
from repro.streams.sync import JitterModel, NoJitter, Resynchronizer, SyncGroup
from repro.quality.factors import VideoQuality
from repro.values.audio import AudioValue, EncodedAudioValue, RawAudioValue
from repro.values.base import MediaValue
from repro.values.mediatype import MediaKind, MediaType, standard_type
from repro.values.midi import MIDIValue
from repro.values.text import TextStreamValue
from repro.values.video import (
    EncodedVideoValue,
    LVVideoValue,
    RawVideoValue,
    VideoValue,
)


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

class PacedSource(MediaActivity):
    """Base for sources: paces elements at the bound value's data rate.

    Element ``i`` of the bound value is produced at virtual time
    ``t_start + (ideal_i - cue) + jitter_i``, where ``ideal_i`` comes from
    the value's time mapping.  The element's ``ideal_time`` stamp excludes
    jitter, so downstream presentation logs measure exactly the injected
    latency plus pipeline delay.
    """

    EVENT_NAMES = MediaActivity.EVENT_NAMES + (EVENT_EACH_ELEMENT, EVENT_LAST_ELEMENT)

    elements_produced = SettledCounter("_elements_produced")

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 jitter: Optional[JitterModel] = None) -> None:
        super().__init__(simulator, name, location)
        self.jitter = jitter or NoJitter()
        self._sync_group: Optional[SyncGroup] = None
        self._sync_member: Optional[str] = None
        self._resync: Optional[Resynchronizer] = None
        self._elements_produced = 0
        self._m_produced = simulator.obs.metrics.counter("stream.elements_produced")
        #: optional storage stream (provided by the storage layer); when
        #: set, each element pays device read time.
        self.io_stream = None

    # -- sync wiring (used by CompositeActivity.install) -------------------
    def attach_sync(self, group: SyncGroup, member: str,
                    resync: Optional[Resynchronizer] = None) -> None:
        group.register(member)
        self._sync_group = group
        self._sync_member = member
        self._resync = resync

    # -- subclass interface -------------------------------------------------
    def _value(self) -> MediaValue:
        if self._bound is None:
            raise ActivityError(f"source {self.name!r} has no bound value")
        return self._bound

    def _element_payloads(self) -> Sequence[tuple]:
        """(payload, size_bits, media_type) per element, starting at cue."""
        value = self._value()
        media_type = value.media_type
        return [(value.element_payload(i), value.element_size_bits(i), media_type)
                for i in range(self._start_element(value), value.element_count)]

    def _ideal_offset(self, position: int) -> float:
        """Seconds from cue position to element ``position``'s ideal time."""
        value = self._value()
        return self._offset_of(value, self._start_element(value) + position)

    # -- shared cue arithmetic --------------------------------------------
    # The cue position is the world time at which the activity's start
    # corresponds; element e of the bound value is produced at offset
    # (ideal_time(e) - cue) after start.  A value whose interval begins
    # after the cue therefore starts late on the shared axis (timeline
    # placement, Fig. 1); cueing past the value's start skips elements.

    def _start_element(self, value: MediaValue) -> int:
        # (seconds compared directly: this runs once per element timed)
        if self._cue_position.seconds <= value.start.seconds:
            return 0
        return value.world_to_object(self._cue_position).index

    def _offset_of(self, value: MediaValue, element_index: int) -> float:
        ideal = value.object_to_world(ObjectTime(element_index))
        return (ideal - self._cue_position).seconds

    def _pre_start(self) -> None:
        self._value()  # raises if unbound

    #: depth of the storage read-ahead buffer (elements prefetched from the
    #: device while earlier elements are being paced and transmitted).
    PREFETCH_DEPTH = 4

    def _prefetch(self, payloads, fetched, first: int = 0,
                  begun: int = 0, stalled: bool = False) -> Generator:
        """Device-read pipeline stage: reads run ahead of the pacing loop.

        ``begun``/``stalled`` take the stage over from a cut clock-out
        run in the middle of element ``first``: its read has ``begun``
        (see ``DeviceReservation.read``), or is done and its put
        ``stalled`` on the full buffer.
        """
        io_stream = self.io_stream
        under_way = begun or stalled
        for position in range(first, len(payloads)):
            size_bits = payloads[position][1]
            if not stalled:
                if not under_way and (self._stop_requested or fetched.closed):
                    break
                if begun:       # only ever a plain DeviceReservation
                    yield from io_stream.read(size_bits, begun)
                else:
                    yield from io_stream.read(size_bits)
            yield from fetched.put(position, stalled)
            under_way = begun = stalled = False

    # -- the pacing loop -----------------------------------------------------
    def _process(self) -> Generator:
        try:
            yield from self._paced_loop()
        finally:
            # The stream is over (finished or stopped): give the device
            # bandwidth back so later streams can be admitted.
            release = getattr(self.io_stream, "release", None)
            if release is not None:
                release()

    def _timeline_computable(self, connection, payloads) -> bool:
        """The clock-out predicate (DESIGN.md §6.10): can every element's
        timeline be computed now, before any of them is sent?"""
        reservation = connection.reservation if connection is not None else None
        io_stream = self.io_stream
        return (
            bool(payloads) and not self._stop_requested
            # the hop has latency, so the sender never blocks on the buffer
            and reservation is not None and reservation.latency_s > 0
            and not reservation.released and not reservation.preempted
            and reservation.clocked is None
            # no fault model armed on the channel or the device
            and reservation.channel.faults is None
            and (io_stream is None
                 or (type(io_stream) is DeviceReservation
                     and io_stream.device.faults is None
                     and not io_stream.released
                     and io_stream.clocked is None))
            # no jitter to draw, no resynchronizer to consult
            and type(self.jitter) is NoJitter and self._resync is None
            # nobody listening to the per-element events
            and not any(self.events.has_handlers(name)
                        for name in self.EVENT_NAMES
                        if name not in MediaActivity.EVENT_NAMES)
        )

    def _paced_loop(self) -> Generator:
        simulator = self.simulator
        port = self.out_ports()[0]
        t_start = simulator.now_s
        payloads = self._element_payloads()
        total = len(payloads)
        first, stage, fetched = 0, FRESH, None
        if self._timeline_computable(port.connection, payloads):
            run = ClockedRun(self, port.connection, payloads, t_start)
            cut = yield from run.clock_out()
            if cut is None:
                self._emit_last()
                return
            first, stage = cut
            fetched, connection = run.fetched, run.connection
        elif self.io_stream is not None:
            fetched = StreamBuffer(simulator, self.PREFETCH_DEPTH,
                                   name=f"{self.name}:prefetch")
            simulator.spawn(self._prefetch(payloads, fetched),
                            name=f"{self.name}:prefetch")
        try:
            # An element taken over from a cut run (``stage`` past FRESH)
            # skips the steps the run had already timed for it.
            for position in range(first, total):
                payload, size_bits, media_type = payloads[position]
                lag = 0.0
                if stage == FRESH:
                    if self._stop_requested:
                        break
                    if self._resync is not None:
                        self._resync.maybe_resync(position, self.jitter)
                    lag = self.jitter.offset(position)
                    if self._sync_group is not None:
                        drift = getattr(self.jitter, "drift", lag)
                        self._sync_group.report(self._sync_member, drift)
                offset = self._ideal_offset(position)
                ideal = WorldTime(t_start + offset)
                if stage <= FETCHING:
                    if fetched is not None:
                        # wait for the device read
                        yield from fetched.get(stage == FETCHING)
                    if self.paced:
                        target = t_start + offset + lag
                        wait = target - simulator.now_s
                        if wait > 0:
                            yield Delay(wait)
                element = StreamElement(payload, position, ideal, media_type, size_bits)
                if stage == SERIALIZING:
                    yield from connection.send(element, serialized=True)
                else:
                    yield from port.send(element)
                stage = FRESH
                self._elements_produced += 1
                self._m_produced.inc()
                self._emit_each(element, last=position == total - 1)
            yield from port.send(END_OF_STREAM)
            self._emit_last()
        finally:
            if fetched is not None:
                # Whatever ended the loop, nobody will take another
                # element: let the read-ahead stage finish too.
                fetched.close()

    def _emit_each(self, element: StreamElement, last: bool) -> None:
        self._emit(EVENT_EACH_ELEMENT, element.index)
        if last:
            self._emit(EVENT_LAST_ELEMENT, element.index)

    def _emit_last(self) -> None:
        """Hook for subclass-specific final events."""


def _consumer_chain(head: MediaActivity):
    """The consumer-run predicate (DESIGN.md §6.10): is the timeline of
    ``head`` and everything downstream of it computable at its first
    look?  Returns the chain's activities and connections, or None.

    It is when ``head``'s input is fed by an uncut clocked-out run (so
    every deposit through end-of-stream is queued, none due yet), the
    chain behind it is zero or more transformers that cost no virtual
    time ending in a sink, each over a hop without a reservation and
    with an empty buffer, nobody listens to their per-element events,
    none has been stopped, and every activity downstream of ``head`` is
    yet to take its first step.  A chain that passes still goes per
    element if its model fills a buffer (``consumer.Filled``).
    """
    connection = head.in_ports()[0].connection
    if connection is None or connection.clocked is None:
        return None
    buffer = connection.buffer
    arrivals = buffer._arrivals
    if (buffer.clocked is not None or buffer._items or buffer._blocked
            or not arrivals or arrivals[-1][1] is not END_OF_STREAM
            or arrivals[0][0] <= head.simulator.now_s):
        return None
    chain, connections = [head], [connection]
    activity = head
    while True:
        if (activity._stop_requested or activity.clocked is not None
                or any(activity.events.has_handlers(name)
                       for name in activity.EVENT_NAMES
                       if name not in MediaActivity.EVENT_NAMES)):
            return None
        if isinstance(activity, SinkActivity):
            if type(activity)._process is not SinkActivity._process:
                return None
            return chain, connections
        if (not isinstance(activity, TransformerActivity)
                or type(activity)._process is not TransformerActivity._process
                or activity.process_seconds > 0):
            return None
        connection = activity.out_ports()[0].connection
        if connection is None or connection.reservation is not None:
            return None
        buffer = connection.buffer
        if (buffer._items or buffer._arrivals or buffer._not_empty
                or buffer._not_full or buffer.clocked is not None):
            return None
        activity = connection.sink.owner
        process = activity.process if activity is not None else None
        if process is None or process.done or process._epoch != 0:
            return None
        chain.append(activity)
        connections.append(connection)


def _take_part(activity: MediaActivity) -> Generator:
    """Generator subroutine at a consumer's first look: join the
    consumer run this activity belongs to, or begin one, and sleep
    through it.  Returns ``None`` when the run ran out, else where the
    per-element loop takes over (see ``ConsumerRun.sleep``)."""
    run = activity.clocked
    if run is None:
        chain = _consumer_chain(activity)
        if chain is None:
            return _FRESH
        try:
            run = ConsumerRun(*chain)
        except Filled:
            return _FRESH       # its model fills a buffer
    return (yield from run.sleep(activity))


_FRESH = (FRESH, None, None, None)


class SinkActivity(MediaActivity):
    """Base for sinks: presents elements, keeping a presentation log.

    When ``paced``, an element arriving before its scheduled presentation
    time is held until that time (real sinks present on schedule); late
    elements are presented immediately, so log latency = lateness.

    ``presentation_delay`` shifts every scheduled presentation later by a
    fixed amount — the prebuffering budget real players use to absorb
    constant pipeline latency (decode, device read, channel transfer).
    With a sufficient delay, jitter-free streams present exactly on their
    (shifted) schedule and multi-sink skew collapses to zero.

    A consumer run (``activities.consumer``) presents on read: ``log``,
    ``presented`` and ``elements_consumed`` are brought up to now first.
    """

    EVENT_NAMES = MediaActivity.EVENT_NAMES + (EVENT_EACH_ELEMENT, EVENT_LAST_ELEMENT)

    elements_consumed = SettledCounter("_elements_consumed")

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 keep_payloads: bool = True,
                 presentation_delay: float = 0.0) -> None:
        super().__init__(simulator, name, location)
        if presentation_delay < 0:
            raise ActivityError(
                f"presentation delay must be >= 0, got {presentation_delay}"
            )
        self._log = PresentationLog(self.name)
        self.keep_payloads = keep_payloads
        self.presentation_delay = presentation_delay
        self._presented: List = []
        self._elements_consumed = 0
        metrics = simulator.obs.metrics
        self._m_consumed = metrics.counter("stream.elements_presented")
        self._m_latency = metrics.histogram("stream.latency_ms")
        self._m_jitter = metrics.histogram("stream.jitter_ms")
        self._m_late = metrics.counter("stream.late_presentations")
        self._prev_latency_ms: Optional[float] = None
        self._runs = runs_of(simulator)

    @property
    def log(self) -> PresentationLog:
        if self.clocked is not None:
            self.clocked.settle()
        return self._log

    @property
    def presented(self) -> List:
        if self.clocked is not None:
            self.clocked.settle()
        return self._presented

    def _scheduled_time(self, element: StreamElement) -> float:
        return element.ideal_time.seconds + self.presentation_delay

    def _process(self) -> Generator:
        port = self.in_ports()[0]
        taken_over = yield from _take_part(self)
        if taken_over is None:
            return      # the consumer run presented everything
        stage, held, buffer, resumed = taken_over
        simulator = self.simulator
        while True:
            if stage == DELAYED:
                element = held
            else:
                if stage == GETTING:
                    element = yield from buffer.get(True, resumed)
                else:
                    element = yield from port.receive()
                if isinstance(element, EndOfStream):
                    break
                if self._stop_requested:
                    stage = FRESH
                    continue  # drain without presenting
                if self.paced:
                    wait = self._scheduled_time(element) - simulator.now_s
                    if wait > 0:
                        yield Delay(wait)
            stage = FRESH
            if self._runs.active:
                # Runs present on read; what they presented before now
                # goes first into the instruments shared with this sink.
                self._runs.settle()
            self._present_element(element, simulator.now_s)
        self._emit(EVENT_LAST_ELEMENT, self._elements_consumed)

    def _present_element(self, element: StreamElement, at: float) -> None:
        """Present ``element`` at virtual time ``at``, with its log
        record, instruments and event."""
        self._present(element)
        self._elements_consumed += 1
        actual = WorldTime(at)
        self._log.record(element.index, element.ideal_time, actual)
        self._observe_presentation(element, actual)
        self._emit(EVENT_EACH_ELEMENT, element.index)

    def _observe_presentation(self, element: StreamElement, actual) -> None:
        """Publish per-element end-to-end latency and jitter vs ideal_time."""
        self._m_consumed.inc()
        latency_ms = (actual.seconds - element.ideal_time.seconds) * 1000.0
        self._m_latency.observe(max(0.0, latency_ms))
        if latency_ms > self.presentation_delay * 1000.0 + 1e-9:
            self._m_late.inc()
        if self._prev_latency_ms is not None:
            self._m_jitter.observe(abs(latency_ms - self._prev_latency_ms))
        self._prev_latency_ms = latency_ms
        tracer = self.simulator.obs.tracer
        if tracer.enabled:
            tracer.instant(f"{self.name}.present", "stream", track=self.name,
                           at=actual.seconds, index=element.index,
                           latency_ms=round(latency_ms, 3))

    def _present(self, element: StreamElement) -> None:
        if self.keep_payloads:
            self._presented.append(element.payload)


class TransformerActivity(MediaActivity):
    """Base for one-in/one-out transformers with a per-element cost."""

    elements_processed = SettledCounter("_elements_processed")

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 process_seconds: float = 0.0) -> None:
        super().__init__(simulator, name, location)
        if process_seconds < 0:
            raise ActivityError(f"processing cost must be >= 0, got {process_seconds}")
        self.process_seconds = process_seconds
        self._elements_processed = 0
        self._m_transformed = simulator.obs.metrics.counter(
            "stream.elements_transformed")

    def _transform(self, element: StreamElement) -> StreamElement:
        raise NotImplementedError

    def _count_processed(self) -> None:
        self._elements_processed += 1
        self._m_transformed.inc()

    def _process(self) -> Generator:
        in_port = self.in_ports()[0]
        out_port = self.out_ports()[0]
        taken_over = yield from _take_part(self)
        if taken_over is None:
            return      # the consumer run passed everything on
        stage, _, buffer, resumed = taken_over
        while True:
            if stage == GETTING:
                element = yield from buffer.get(True, resumed)
            else:
                element = yield from in_port.receive()
            if isinstance(element, EndOfStream) or self._stop_requested:
                break
            if self.process_seconds > 0:
                yield Delay(self.process_seconds)
            yield from out_port.send(self._transform(element))
            stage = FRESH
            self._count_processed()
        yield from out_port.send(END_OF_STREAM)


# ---------------------------------------------------------------------------
# the kinds both media share: one encoder, decoder, mixer and writer
# ---------------------------------------------------------------------------

class _Video:
    """Frames, as the shared encoder, decoder, mixer and writer see them."""

    kind = "video"
    raw_in = raw = standard_type("video/raw")
    rate = 30.0

    @staticmethod
    def mix(frames: List[np.ndarray], weights: List[float]) -> np.ndarray:
        """A weighted blend of uint8 frames."""
        acc = np.zeros(frames[0].shape, dtype=np.float64)
        for weight, frame in zip(weights, frames):
            acc += weight * frame.astype(np.float64)
        return np.clip(np.round(acc), 0, 255).astype(np.uint8)

    @staticmethod
    def raw_value(frames: List[np.ndarray], rate: float) -> RawVideoValue:
        return RawVideoValue(np.stack(frames), rate=rate)

    @staticmethod
    def coded_value(codec, chunks: List[bytes], geometry: tuple,
                    rate: float) -> EncodedVideoValue:
        return codec.value_class(chunks, codec, *geometry, rate=rate)


class _Audio:
    """PCM blocks, as the shared encoder, decoder, mixer and writer see them."""

    kind = "audio"
    raw_in = standard_type("audio/*")
    raw = standard_type("audio/pcm")
    rate = 44100.0

    @staticmethod
    def mix(blocks: List[np.ndarray], weights: List[float]) -> np.ndarray:
        """A saturating int16 sum over the shortest block (unweighted)."""
        width = min(block.shape[1] for block in blocks)
        acc = np.zeros((blocks[0].shape[0], width), dtype=np.int32)
        for block in blocks:
            acc += block[:, :width].astype(np.int32)
        return np.clip(acc, -32768, 32767).astype(np.int16)

    @staticmethod
    def raw_value(blocks: List[np.ndarray], rate: float) -> RawAudioValue:
        return RawAudioValue(np.concatenate(blocks, axis=1), sample_rate=rate)

    @staticmethod
    def coded_value(codec, blocks: List[bytes], geometry: tuple,
                    rate: float) -> EncodedAudioValue:
        (channels,) = geometry
        count = sum(codec.check_block(block, channels) for block in blocks)
        return codec.value_class(blocks, codec, channels, count, rate)


#: a codec's media, by the kind of the values it encodes.
_MEDIA = {MediaKind.VIDEO: _Video, MediaKind.AUDIO: _Audio}


class Encoder(TransformerActivity):
    """Table 1 'encoder': raw in, compressed out, one chunk per element
    from the codec's stream encoder.  The codec's media names the ports
    (``video_in``/``video_out`` or ``audio_in``/``audio_out``)."""

    def __init__(self, simulator: Simulator, codec, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 process_seconds: float = 0.0) -> None:
        super().__init__(simulator, name, location, process_seconds)
        self.codec = codec
        self._encoder = codec.stream_encoder()
        self._coded = standard_type(codec.value_class._TYPE_NAME)
        media = _MEDIA[self._coded.kind]
        self.add_port(f"{media.kind}_in", Direction.IN, media.raw_in)
        self.add_port(f"{media.kind}_out", Direction.OUT, self._coded)

    def _transform(self, element: StreamElement) -> StreamElement:
        chunk = self._encoder.encode_next(element.payload)
        return element.with_payload(chunk, self._coded, len(chunk) * 8)


class Decoder(TransformerActivity):
    """Table 1 'decoder': compressed in, raw out, through the codec's
    stream decoder for ``geometry`` (``width, height, depth`` of a video
    codec, the channel count of an audio one)."""

    def __init__(self, simulator: Simulator, codec, *geometry: int,
                 name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 process_seconds: float = 0.0) -> None:
        super().__init__(simulator, name, location, process_seconds)
        self.codec = codec
        self._decoder = codec.stream_decoder(*geometry)
        coded = standard_type(codec.value_class._TYPE_NAME)
        media = _MEDIA[coded.kind]
        self._raw = media.raw
        self.add_port(f"{media.kind}_in", Direction.IN, coded)
        self.add_port(f"{media.kind}_out", Direction.OUT, media.raw)

    def _transform(self, element: StreamElement) -> StreamElement:
        raw = self._decoder.decode_next(element.payload)
        return element.with_payload(raw, self._raw, raw.nbytes * 8)


class Mixer(MediaActivity):
    """Table 1 'mixer': raw x n in, raw out, combined as its media
    combines (``MEDIA.mix``); ``weights`` blend frames."""

    MEDIA: type   # the media's class, fixed by each Table 1 name

    def __init__(self, simulator: Simulator, inputs: int = 2,
                 weights: Optional[Sequence[float]] = None,
                 name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 process_seconds: float = 0.0) -> None:
        super().__init__(simulator, name, location)
        if inputs < 2:
            raise ActivityError(f"a mixer needs >= 2 inputs, got {inputs}")
        self.inputs = inputs
        self.weights = list(weights) if weights is not None else [1.0 / inputs] * inputs
        if len(self.weights) != inputs:
            raise ActivityError(
                f"mixer got {len(self.weights)} weights for {inputs} inputs"
            )
        self.process_seconds = process_seconds
        self.elements_processed = 0
        media = self.MEDIA
        for i in range(inputs):
            self.add_port(f"{media.kind}_in_{i}", Direction.IN, media.raw)
        self.add_port(f"{media.kind}_out", Direction.OUT, media.raw)

    def _process(self) -> Generator:
        in_ports = self.in_ports()
        out_port = self.out_ports()[0]
        while True:
            elements = []
            ended = False
            for port in in_ports:
                element = yield from port.receive()
                if isinstance(element, EndOfStream):
                    ended = True
                else:
                    elements.append(element)
            if ended or self._stop_requested:
                break
            if self.process_seconds > 0:
                yield Delay(self.process_seconds)
            mixed = self.MEDIA.mix([e.payload for e in elements], self.weights)
            # A mix may be cut to the shortest input, so the wire size is
            # restated rather than inherited.
            yield from out_port.send(
                elements[0].with_payload(mixed, size_bits=mixed.nbytes * 8))
            self.elements_processed += 1
        yield from out_port.send(END_OF_STREAM)


class Writer(SinkActivity):
    """Table 1 'writer': stream in, storage out.

    Accumulates the stream and exposes it as a new value of its media
    via :meth:`result`: a raw one, or, for a stream of encoded chunks,
    the codec's value for ``geometry`` (as ``Decoder`` takes it).  The
    rate is the value's, by default the media's usual one.
    """

    MEDIA: type   # the media's class, fixed by each Table 1 name

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.DATABASE,
                 rate: Optional[float] = None, codec=None,
                 geometry: Optional[tuple] = None) -> None:
        super().__init__(simulator, name, location, keep_payloads=True)
        self.rate = self.MEDIA.rate if rate is None else rate
        self.codec = codec
        self.geometry = geometry
        self.paced = False  # writers persist as fast as the stream arrives
        self.add_port(f"{self.MEDIA.kind}_in", Direction.IN,
                      standard_type(f"{self.MEDIA.kind}/*"))

    def _process(self) -> Generator:
        port = self.in_ports()[0]
        while True:
            element = yield from port.receive()
            if isinstance(element, EndOfStream):
                break
            self._presented.append(element.payload)
            self._elements_consumed += 1
            self._log.record(element.index, element.ideal_time, self.simulator.now)
            self._emit(EVENT_EACH_ELEMENT, element.index)
        self._emit(EVENT_LAST_ELEMENT, self._elements_consumed)

    def result(self) -> MediaValue:
        """The written stream as a new value."""
        if not self.presented:
            raise ActivityError(f"writer {self.name!r} received no elements")
        if isinstance(self.presented[0], bytes):
            if self.codec is None or self.geometry is None:
                raise ActivityError(
                    f"writer {self.name!r} stored encoded chunks; construct it "
                    f"with codec= and geometry= to build a value"
                )
            return self.MEDIA.coded_value(self.codec, list(self.presented),
                                          self.geometry, self.rate)
        return self.MEDIA.raw_value(self.presented, self.rate)


# ---------------------------------------------------------------------------
# Table 1: video activities
# ---------------------------------------------------------------------------

class VideoDigitizer(PacedSource):
    """Table 1 'video digitizer': analog in, raw digital out.

    The analog side is a bound :class:`LVVideoValue` (or live analog
    source); digitization cost per frame is configurable.
    """

    TABLE_ROW = ("video digitizer", "source", "analog", "raw")
    EVENT_NAMES = PacedSource.EVENT_NAMES + (EVENT_EACH_FRAME, EVENT_LAST_FRAME)

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 jitter: Optional[JitterModel] = None,
                 digitize_seconds: float = 0.0) -> None:
        super().__init__(simulator, name, location, jitter)
        self.digitize_seconds = digitize_seconds
        self.add_port("video_out", Direction.OUT, standard_type("video/raw"))

    def _validate_binding(self, value, port_name) -> None:
        if not isinstance(value, VideoValue) or not value.media_type.analog:
            raise MediaTypeError(
                f"digitizer {self.name!r} requires an analog video value, "
                f"got {type(value).__name__}"
            )

    def _element_payloads(self):
        value: LVVideoValue = self._value()
        start = self._start_element(value)
        raw_type = standard_type("video/raw")
        bits = value.raw_frame_bits()
        return [
            (value.frame(i), bits, raw_type)
            for i in range(start, value.num_frames)
        ]

    def _ideal_offset(self, position: int) -> float:
        return super()._ideal_offset(position) + self.digitize_seconds

    def _emit_each(self, element, last):
        super()._emit_each(element, last)
        self._emit(EVENT_EACH_FRAME, element.index)
        if last:
            self._emit(EVENT_LAST_FRAME, element.index)


class VideoReader(PacedSource):
    """Table 1 'video reader': produces a stored video value as a stream.

    The output port carries the value's stored representation: raw frames
    for raw values, encoded chunks for compressed ones ("the paper's
    reader reads from storage; decoding is a separate activity").
    """

    TABLE_ROW = ("video reader", "source", "(storage)", "raw / compressed")
    EVENT_NAMES = PacedSource.EVENT_NAMES + (EVENT_EACH_FRAME, EVENT_LAST_FRAME)

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 jitter: Optional[JitterModel] = None,
                 media_type: Optional[MediaType] = None) -> None:
        super().__init__(simulator, name, location, jitter)
        self.add_port("video_out", Direction.OUT, media_type or standard_type("video/*"))

    def _validate_binding(self, value, port_name) -> None:
        if not isinstance(value, VideoValue):
            raise MediaTypeError(
                f"reader {self.name!r} requires a VideoValue, got {type(value).__name__}"
            )
        if value.media_type.analog:
            raise MediaTypeError(
                f"reader {self.name!r} cannot read analog video; use a digitizer"
            )
        port = self.port("video_out")
        if port.media_type.is_abstract:
            port.narrow(value.media_type)
        elif port.media_type != value.media_type:
            raise MediaTypeError(
                f"reader {self.name!r} port carries {port.media_type.name}, "
                f"bound value is {value.media_type.name}"
            )

    def _element_payloads(self):
        value: VideoValue = self._value()
        start = self._start_element(value)
        media_type = value.media_type
        if isinstance(value, EncodedVideoValue):
            return [
                (value.chunks[i], value.element_size_bits(i), media_type)
                for i in range(start, value.num_frames)
            ]
        bits = value.raw_frame_bits()
        return [
            (value.frame(i), bits, media_type)
            for i in range(start, value.num_frames)
        ]

    def _emit_each(self, element, last):
        super()._emit_each(element, last)
        self._emit(EVENT_EACH_FRAME, element.index)
        if last:
            self._emit(EVENT_LAST_FRAME, element.index)


class VideoEncoder(Encoder):
    TABLE_ROW = ("video encoder", "transformer", "raw", "compressed")


class VideoDecoder(Decoder):
    TABLE_ROW = ("video decoder", "transformer", "compressed", "raw")


class VideoMixer(Mixer):
    TABLE_ROW = ("video mixer", "transformer", "raw x n", "raw")
    MEDIA = _Video


class VideoTee(MediaActivity):
    """Table 1 'video tee': raw in, raw x n out (stream duplication)."""

    TABLE_ROW = ("video tee", "transformer", "raw", "raw x n")

    def __init__(self, simulator: Simulator, outputs: int = 2,
                 name: Optional[str] = None,
                 location: Location = Location.APPLICATION) -> None:
        super().__init__(simulator, name, location)
        if outputs < 2:
            raise ActivityError(f"a tee needs >= 2 outputs, got {outputs}")
        self.outputs = outputs
        self.elements_processed = 0
        self.add_port("video_in", Direction.IN, standard_type("video/raw"))
        for i in range(outputs):
            self.add_port(f"video_out_{i}", Direction.OUT, standard_type("video/raw"))

    def _process(self) -> Generator:
        in_port = self.port("video_in")
        out_ports = [self.port(f"video_out_{i}") for i in range(self.outputs)]
        while True:
            element = yield from in_port.receive()
            if isinstance(element, EndOfStream) or self._stop_requested:
                break
            for port in out_ports:
                yield from port.send(element)
            self.elements_processed += 1
        for port in out_ports:
            yield from port.send(END_OF_STREAM)


class VideoWindow(SinkActivity):
    """Table 1 'video window': raw in, display out.

    Carries a quality factor (§4.3: ``new activity VideoWindow quality
    320x240x8@30``); frames larger than the window are spatially
    subsampled to fit — the delivered-quality path of scalable video.
    """

    TABLE_ROW = ("video window", "sink", "raw", "(display)")
    EVENT_NAMES = SinkActivity.EVENT_NAMES + (EVENT_EACH_FRAME, EVENT_LAST_FRAME)

    def __init__(self, simulator: Simulator, quality: Optional[VideoQuality] = None,
                 name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 keep_payloads: bool = True,
                 presentation_delay: float = 0.0) -> None:
        super().__init__(simulator, name, location, keep_payloads,
                         presentation_delay)
        self.quality = quality
        self.add_port("video_in", Direction.IN, standard_type("video/raw"))

    def _present(self, element: StreamElement) -> None:
        frame = element.payload
        if self.quality is not None:
            height, width = frame.shape[:2]
            divisor = max(1, min(width // self.quality.width,
                                 height // self.quality.height))
            if divisor > 1:
                frame = frame[::divisor, ::divisor]
        if self.keep_payloads:
            self._presented.append(frame)
        self._emit(EVENT_EACH_FRAME, element.index)


class VideoWriter(Writer):
    TABLE_ROW = ("video writer", "sink", "raw / compressed", "(storage)")
    MEDIA = _Video


# ---------------------------------------------------------------------------
# audio / text / MIDI activities ("the following would also apply to audio")
# ---------------------------------------------------------------------------

def _pcm_blocks(audio: AudioValue, first: int, block_samples: int) -> list:
    """(block, size_bits, media_type) per ``block_samples`` sample frames
    of ``audio`` from sample ``first`` on, decoded if it is coded."""
    samples = audio.samples()
    bits_per_sample = audio.num_channels * audio.depth
    media_type = audio.media_type if isinstance(audio, RawAudioValue) else _Audio.raw
    return [
        (samples[:, lo:lo + block_samples],
         min(block_samples, audio.num_samples - lo) * bits_per_sample,
         media_type)
        for lo in range(first, audio.num_samples, block_samples)
    ]


class AudioReader(PacedSource):
    """Audio source streaming a bound AudioValue in sample blocks."""

    TABLE_ROW = ("audio reader", "source", "(storage)", "pcm / compressed")

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 jitter: Optional[JitterModel] = None,
                 block_samples: int = 1024) -> None:
        super().__init__(simulator, name, location, jitter)
        if block_samples < 1:
            raise ActivityError(f"block size must be >= 1, got {block_samples}")
        self.block_samples = block_samples
        self.add_port("audio_out", Direction.OUT, standard_type("audio/*"))

    def _validate_binding(self, value, port_name) -> None:
        if not isinstance(value, AudioValue):
            raise MediaTypeError(
                f"audio reader {self.name!r} requires an AudioValue, "
                f"got {type(value).__name__}"
            )
        port = self.port("audio_out")
        if port.media_type.is_abstract:  # PCM, as _pcm_blocks streams it
            port.narrow(value.media_type if isinstance(value, RawAudioValue) else _Audio.raw)

    def _element_payloads(self):
        value: AudioValue = self._value()
        # Cue rounds down to a block boundary.
        first = (self._start_element(value) // self.block_samples) * self.block_samples
        return _pcm_blocks(value, first, self.block_samples)

    def _ideal_offset(self, position: int) -> float:
        value = self._value()
        first = (self._start_element(value) // self.block_samples) * self.block_samples
        return self._offset_of(value, first + position * self.block_samples)


class AudioEncoder(Encoder):
    TABLE_ROW = ("audio encoder", "transformer", "pcm", "compressed")


class AudioDecoder(Decoder):
    TABLE_ROW = ("audio decoder", "transformer", "compressed", "pcm")


class AudioResampler(TransformerActivity):
    """PCM rate conversion by linear interpolation.

    Mixing tracks captured at different rates (a 44.1 kHz CD track with an
    8 kHz voice track, say) needs a common rate first; this transformer
    rewrites each block to the target rate, preserving its time span.
    Stream elements keep their timing identity, so downstream sinks
    present on the original schedule.
    """

    TABLE_ROW = ("audio resampler", "transformer", "pcm", "pcm")

    def __init__(self, simulator: Simulator, source_rate: float,
                 target_rate: float, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 process_seconds: float = 0.0) -> None:
        super().__init__(simulator, name, location, process_seconds)
        if source_rate <= 0 or target_rate <= 0:
            raise ActivityError(
                f"rates must be positive, got {source_rate} -> {target_rate}"
            )
        self.source_rate = source_rate
        self.target_rate = target_rate
        self.add_port("audio_in", Direction.IN, standard_type("audio/pcm"))
        self.add_port("audio_out", Direction.OUT, standard_type("audio/pcm"))

    def resample_block(self, block: np.ndarray) -> np.ndarray:
        """Linear-interpolation rate conversion of one (channels, n) block."""
        channels, count = block.shape
        out_count = max(1, round(count * self.target_rate / self.source_rate))
        if out_count == count:
            return block
        positions = np.linspace(0.0, count - 1, out_count)
        resampled = np.empty((channels, out_count), dtype=np.int16)
        source_index = np.arange(count)
        for c in range(channels):
            resampled[c] = np.round(
                np.interp(positions, source_index, block[c].astype(np.float64))
            ).astype(np.int16)
        return resampled

    def _transform(self, element: StreamElement) -> StreamElement:
        block = self.resample_block(element.payload)
        bits = block.shape[0] * block.shape[1] * 16
        return element.with_payload(block, standard_type("audio/pcm"), bits)


class AudioMixer(Mixer):
    TABLE_ROW = ("audio mixer", "transformer", "pcm x n", "pcm")
    MEDIA = _Audio


class Speaker(SinkActivity):
    """Audio sink: 'presents' PCM blocks, logging presentation times."""

    TABLE_ROW = ("speaker", "sink", "pcm", "(DAC)")

    def __init__(self, simulator: Simulator, quality=None,
                 name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 keep_payloads: bool = True,
                 presentation_delay: float = 0.0) -> None:
        super().__init__(simulator, name, location, keep_payloads,
                         presentation_delay)
        self.quality = quality
        self.add_port("audio_in", Direction.IN, standard_type("audio/pcm"))

    def pcm(self) -> np.ndarray:
        """All presented blocks concatenated."""
        if not self.presented:
            raise ActivityError(f"speaker {self.name!r} presented nothing")
        return np.concatenate(self.presented, axis=1)


class AudioWriter(Writer):
    TABLE_ROW = ("audio writer", "sink", "pcm", "(storage)")
    MEDIA = _Audio


class TextReader(PacedSource):
    """Source streaming a TextStreamValue item by item."""

    TABLE_ROW = ("text reader", "source", "(storage)", "text")

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 jitter: Optional[JitterModel] = None) -> None:
        super().__init__(simulator, name, location, jitter)
        self.add_port("text_out", Direction.OUT, standard_type("text/stream"))

    def _validate_binding(self, value, port_name) -> None:
        if not isinstance(value, TextStreamValue):
            raise MediaTypeError(
                f"text reader {self.name!r} requires a TextStreamValue, "
                f"got {type(value).__name__}"
            )


class SubtitleWindow(SinkActivity):
    """Text sink: presents subtitle items."""

    TABLE_ROW = ("subtitle window", "sink", "text", "(display)")

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 presentation_delay: float = 0.0) -> None:
        super().__init__(simulator, name, location, keep_payloads=True,
                         presentation_delay=presentation_delay)
        self.add_port("text_in", Direction.IN, standard_type("text/stream"))

    def texts(self) -> List[str]:
        return [item.text for item in self.presented]


class MIDISource(PacedSource):
    """Source synthesizing a bound MIDIValue to PCM blocks on the fly.

    The paper's 'alternate representation' path: the stored value is MIDI
    events; what flows is synthesized audio.
    """

    TABLE_ROW = ("midi source", "source", "(storage, midi)", "pcm")

    def __init__(self, simulator: Simulator, synthesizer=None,
                 name: Optional[str] = None,
                 location: Location = Location.DATABASE,
                 jitter: Optional[JitterModel] = None,
                 block_samples: int = 1024) -> None:
        super().__init__(simulator, name, location, jitter)
        if synthesizer is None:
            from repro.codecs.midisynth import MIDISynthesizer
            synthesizer = MIDISynthesizer()
        self.synthesizer = synthesizer
        self.block_samples = block_samples
        self.add_port("audio_out", Direction.OUT, standard_type("audio/pcm"))
        self._rendered = None

    def _validate_binding(self, value, port_name) -> None:
        if not isinstance(value, MIDIValue):
            raise MediaTypeError(
                f"MIDI source {self.name!r} requires a MIDIValue, "
                f"got {type(value).__name__}"
            )
        self._rendered = None

    def _element_payloads(self):
        if self._rendered is None:
            self._rendered = self.synthesizer.render(self._value())
        return _pcm_blocks(self._rendered, 0, self.block_samples)

    def _ideal_offset(self, position: int) -> float:
        if self._rendered is None:
            self._rendered = self.synthesizer.render(self._value())
        # Rendered audio starts at world time 0; cue shifts the offset.
        return (
            position * self.block_samples / self._rendered.sample_rate
            - self._cue_position.seconds
        )


# ---------------------------------------------------------------------------
# Table 1 reproduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CatalogRow:
    activity: str
    kind: str
    input_type: str
    output_type: str


class ActivityCatalog:
    """Reprints Table 1 from the live activity classes."""

    VIDEO_CLASSES = (
        VideoDigitizer, VideoReader, VideoEncoder, VideoDecoder,
        VideoMixer, VideoTee, VideoWindow, VideoWriter,
    )
    AUDIO_CLASSES = (
        AudioReader, AudioEncoder, AudioDecoder, AudioMixer, Speaker, AudioWriter,
    )
    OTHER_CLASSES = (TextReader, SubtitleWindow, MIDISource)

    @classmethod
    def rows(cls, include_audio: bool = False) -> List[CatalogRow]:
        classes = cls.VIDEO_CLASSES + (
            cls.AUDIO_CLASSES + cls.OTHER_CLASSES if include_audio else ()
        )
        return [CatalogRow(*klass.TABLE_ROW) for klass in classes]

    @classmethod
    def table(cls, include_audio: bool = False) -> str:
        """Format the catalog rows as the aligned Table 1 text."""
        rows = cls.rows(include_audio)
        header = CatalogRow("activity", "kind", "input port data type",
                            "output port data type")
        all_rows = [header] + rows
        widths = [
            max(len(getattr(r, f)) for r in all_rows)
            for f in ("activity", "kind", "input_type", "output_type")
        ]
        def fmt(row: CatalogRow) -> str:
            return "  ".join(
                getattr(row, f).ljust(w)
                for f, w in zip(("activity", "kind", "input_type", "output_type"), widths)
            ).rstrip()
        lines = [fmt(header), "  ".join("-" * w for w in widths)]
        lines.extend(fmt(r) for r in rows)
        return "\n".join(lines)
