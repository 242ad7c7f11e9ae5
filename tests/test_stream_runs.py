"""Run == per-element: the clock-out and the timed hand-off, proven equal.

A paced source whose timeline is computable clocks its whole run out in
one kernel event (``repro.activities.clockout``), every hop with latency
hands elements over timed (``StreamBuffer.deposit``), and the consumer
chain behind a clocked-out hop runs its whole timeline as one run too
(``repro.activities.consumer``).  In the style of ``herd/equivalence.py``
(vectorize, then prove equal to discrete), each part below runs the fast
path beside a reference:

(a) the same pipeline twice, once as built and once with a no-op handler
    caught on every source's ``EACH_ELEMENT`` — an observable property
    that selects the per-element loop, so no test-only switch exists;
(b) the same, with something cutting the run at a seeded time mid-clip;
(c) the timed hand-off against a reference model of the delivery
    processes it replaced (a bounded FIFO plus a FIFO of blocked
    deliverers), on integer times so that arrivals tie with gets;
(d) the consumer side alone: the same pipeline as built and with a no-op
    handler caught on every sink (the sources stay clocked out), whole
    and cut, including the presented payload bytes.

Each part re-plants a bug (part (d) two) and shows that it is found.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import random
import textwrap
from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.activities import EVENT_EACH_ELEMENT, clockout, consumer
from repro.activities.library import (
    AudioDecoder,
    AudioEncoder,
    PacedSource,
    Speaker,
    SubtitleWindow,
    VideoDecoder,
    VideoWindow,
)
from repro.activities.base import ActivityState, Location
from repro.avdb import AVDatabaseSystem
from repro.avtime import WorldTime
from repro.codecs import ADPCMCodec, JPEGCodec, MPEGCodec, MuLawCodec
from repro.errors import AVDBError
from repro.faults import FaultInjector, FaultPlan
from repro.obs import scoped
from repro.sim import Delay, Simulator
from repro.storage.devices import Device
from repro.streams.buffer import StreamBuffer
from repro.synth import newscast_clip
from repro.values.audio import RawAudioValue
from repro.values.video import RawVideoValue

SETTINGS = settings(max_examples=60)


# -- the pipelines ----------------------------------------------------------
@dataclass(frozen=True)
class Pipeline:
    kind: str               # plain | stored | decoded | raw | multi | audio
    frames: int
    width: int
    rate: float
    hop_share: float        # reserved channel rate / the value's data rate
    latency_s: float
    placed: bool            # read through a device reservation?
    device_share: float     # device rate / the value's data rate
    seek_s: float
    readahead: float
    capacity: int
    cue_share: float        # cue position / the clip's length
    paced: bool
    prebuffer_s: float
    cut_share: float        # part (b): when the disturbance comes
    seed: int


def _draw(seed: int) -> Pipeline:
    """A pipeline drawn *evenly* from the space below.  Hypothesis picks
    the seed (its own draws lean towards first choices and small
    numbers, which here would mean unpaced one-frame clips over slow
    hops: never a pacing wait, never a full read-ahead buffer)."""
    pick = random.Random(seed).choice
    return Pipeline(
        kind=pick(["plain", "plain", "stored", "decoded", "raw", "multi"]),
        frames=pick(range(1, 25)),
        width=pick([4, 8, 24]),
        rate=pick([10.0, 25.0, 30.0, 60.0]),
        hop_share=pick([0.6, 1.0, 1.7, 4.0]),
        latency_s=pick([0.0005, 0.001, 0.013, 0.08]),
        placed=pick([True, True, False]),
        device_share=pick([1.0, 1.3, 2.5, 8.0]),
        seek_s=pick([0.0, 0.015, 0.2]),
        readahead=pick([1.0, 2.0, 4.0]),
        capacity=pick(range(1, 9)),
        cue_share=pick([0.0, 0.0, 0.4]),
        paced=pick([True, True, False]),
        prebuffer_s=pick([0.0, 0.05, 0.3]),
        cut_share=pick(range(1001)) / 1000,
        seed=seed,
    )


PIPELINES = st.integers(0, 2**30).map(_draw)


def _video(spec: Pipeline) -> RawVideoValue:
    rng = np.random.default_rng(spec.seed)
    frames = rng.integers(0, 255, (spec.frames, 4, spec.width), dtype=np.uint8)
    return RawVideoValue(frames, rate=spec.rate)


def _audio(spec: Pipeline) -> RawAudioValue:
    """``frames / rate`` seconds of noise, 256 samples a frame: a reader
    block of 1024 samples spans four frames."""
    rng = np.random.default_rng(spec.seed)
    samples = rng.integers(-20000, 20000, (1 + spec.seed % 2, spec.frames * 256),
                           dtype=np.int16)
    return RawAudioValue(samples, sample_rate=256 * spec.rate)


class Rig:
    """One built pipeline: what to run, disturb and read."""

    def __init__(self, spec: Pipeline, per_element: bool,
                 sinks_per_element: bool = False, window=VideoWindow,
                 plant=None) -> None:
        """``window`` builds a single-track pipeline's sink; ``plant``,
        when given, is called on the built rig before its streams start."""
        self.spec = spec
        self.decoders = []
        system = self.system = AVDatabaseSystem()
        system.readahead = spec.readahead
        self.sim = system.simulator
        if spec.kind == "multi":
            value = newscast_clip(video_frames=spec.frames,
                                  audio_seconds=spec.frames / 30.0,
                                  seed=spec.seed)
            tracks = [value.value(track) for track in value.track_names]
            hop_bps = stored_bps = sum(t.data_rate_bps() for t in tracks)
        elif spec.kind == "audio":
            value = _audio(spec)
            hop_bps = stored_bps = value.data_rate_bps()
            tracks = [value]
        else:
            value = _video(spec)
            hop_bps = stored_bps = value.data_rate_bps()
            if spec.kind != "plain":
                # (an MPEG stream cued past a keyframe does not decode)
                codec = (MPEGCodec(60, gop=3) if spec.seed % 2
                         and spec.kind == "decoded" and not spec.cue_share
                         else JPEGCodec(60))
                value = codec.encode_value(value)
                stored_bps = value.data_rate_bps()
                if spec.kind in ("stored", "decoded"):
                    hop_bps = stored_bps
            tracks = [value]
        self.device = None
        if spec.placed:
            self.device = system.add_storage(Device(
                self.sim, "disk", 10**9,
                stored_bps * spec.device_share * spec.readahead, spec.seek_s))
            for track in tracks:
                system.store_value(track)
        session = self.session = system.open_session(
            "viewer", channel_bps=hop_bps * 8, latency_s=spec.latency_s)
        self.channel = session.channel
        delay = spec.prebuffer_s
        if spec.kind == "multi":
            source = session.new_db_source(value)
            sink = session.new_multi_sink()
            self.sinks = [
                VideoWindow(self.sim, name="win", presentation_delay=delay),
                Speaker(self.sim, name="en", presentation_delay=delay),
                Speaker(self.sim, name="fr", presentation_delay=delay),
                SubtitleWindow(self.sim, name="sub", presentation_delay=delay),
            ]
            for component, track in zip(self.sinks, value.track_names):
                sink.install(component, track=track)
            self.streams = [session.connect(source, sink,
                                            capacity=spec.capacity)]
        else:
            if spec.kind == "audio":
                window = Speaker
            window = window(self.sim, name="win", presentation_delay=delay)
            session.new_activity(window)
            self.sinks = [window]
            if spec.kind == "audio":
                # raw over the hop, then coded and decoded again at the
                # application: two transformers of the audio codec's
                # stream protocol in one consumer chain
                source = session.new_db_source(value)
                codec = MuLawCodec() if spec.seed % 2 else ADPCMCodec()
                self.decoders = [session.new_activity(stage) for stage in (
                    AudioEncoder(self.sim, codec, name="encode",
                                 location=Location.APPLICATION),
                    AudioDecoder(self.sim, codec, value.num_channels,
                                 name="decode",
                                 location=Location.APPLICATION))]
                encoder, decoder = self.decoders
                self.streams = [
                    session.connect(source, encoder.port("audio_in"),
                                    capacity=spec.capacity,
                                    bandwidth_bps=hop_bps * spec.hop_share),
                    session.connect(encoder.port("audio_out"),
                                    decoder.port("audio_in")),
                    session.connect(decoder.port("audio_out"), window,
                                    capacity=9 - spec.capacity)]
            elif spec.kind in ("stored", "decoded"):
                # compressed over the hop, decoded at the application (in
                # no virtual time: a consumer chain that can run as one)
                source = session.new_db_source(value)
                decoder = session.new_activity(VideoDecoder(
                    self.sim, value.codec, value.width, value.height,
                    value.depth, name="decode",
                    location=Location.APPLICATION,
                    process_seconds=0.002 if spec.kind == "stored" else 0.0))
                self.decoders = [decoder]
                self.streams = [
                    session.connect(source, decoder.port("video_in"),
                                    capacity=spec.capacity,
                                    bandwidth_bps=hop_bps * spec.hop_share),
                    # (reserved only where the window sits at the database)
                    session.connect(decoder.port("video_out"), window,
                                    capacity=9 - spec.capacity,
                                    bandwidth_bps=hop_bps * spec.hop_share)]
            else:
                # "raw": reader -> decoder at the database, raw over the hop
                source = session.new_db_source(
                    value, deliver="raw" if spec.kind == "raw" else "stored")
                self.streams = [session.connect(
                    source, window, capacity=spec.capacity,
                    bandwidth_bps=hop_bps * spec.hop_share)]
        self.source = source
        self.sources = [leaf for leaf in system.graph._flatten(source)
                        if isinstance(leaf, PacedSource)]
        source.cue(WorldTime(spec.cue_share * (_span_s(spec) - 0.3)))
        for activity in self.sources + self.sinks:
            activity.paced = spec.paced
        if per_element:
            for leaf in self.sources:
                leaf.catch(EVENT_EACH_ELEMENT, lambda *_: None)
        if sinks_per_element:
            for sink in self.sinks:
                sink.catch(EVENT_EACH_ELEMENT, lambda *_: None)
        self.connections = [c for s in self.streams for c in s.connections]
        if plant is not None:
            plant(self)
        for stream in self.streams:
            stream.start()

    # -- everything either path must agree on ------------------------------
    def counters(self) -> dict:
        """The source side's counters, read by attribute *before* any
        snapshot settles them, then every metric but the kernel's."""
        seen = {
            "produced": [s.elements_produced for s in self.sources],
            "consumed": [(s.elements_consumed, len(s.log), len(s.presented))
                         for s in self.sinks],
            "processed": [d.elements_processed for d in self.decoders],
            "sent": [(c.elements_sent, c.bits_sent) for c in self.connections],
            "transmitted": [c.reservation.bits_transmitted
                            for c in self.connections if c.reservation],
            "channel": self.channel.total_bits,
            "read": [s.io_stream.bits_read for s in self.sources
                     if s.io_stream is not None],
            "device": self.device and self.device.total_bits_read,
            "buffers": [(c.buffer.total_put, c.buffer.producer_stalls,
                         c.buffer.consumer_stalls, c.buffer.high_watermark,
                         len(c.buffer)) for c in self.connections],
        }
        seen["metrics"] = {
            name: value
            for name, value in self.system.metrics.snapshot().items()
            if not name.startswith("sim.")}
        return seen

    def outcome(self) -> dict:
        seen = self.counters()
        seen["records"] = [
            [(r.index, r.ideal.seconds.hex(), r.actual.seconds.hex())
             for r in sink.log.records] for sink in self.sinks]
        seen["presented"] = [_payload_bytes(sink.presented)
                             for sink in self.sinks]
        seen["clock"] = self.sim.now.seconds.hex()
        seen["live"] = self.sim.live_processes
        activities = self.sources + self.decoders + self.sinks
        seen["emitted"] = [dict(a.events.emit_counts) for a in activities]
        seen["states"] = [a.state for a in activities]
        return seen


def _payload_bytes(payloads: list) -> bytes:
    return b"".join(np.ascontiguousarray(p).tobytes()
                    if isinstance(p, np.ndarray) else repr(p).encode()
                    for p in payloads)


def _span_s(spec: Pipeline) -> float:
    return spec.frames / (30.0 if spec.kind == "multi" else spec.rate) + 0.3


def _play(spec: Pipeline, per_element: bool, disturb=None,
          at: float = 0.0, sinks_per_element: bool = False,
          **build) -> list:
    """Run to seeded checkpoints, optionally disturb, run out; return
    everything observed on the way."""
    rig = Rig(spec, per_element, sinks_per_element, **build)
    rng = random.Random(spec.seed)
    span = _span_s(spec)
    seen = []
    for stop in sorted(rng.uniform(0.0, span) for _ in range(3)):
        if disturb is not None and stop >= at:
            break
        rig.sim.run(until=WorldTime(stop))
        seen.append(rig.counters())
    if disturb is not None:
        rig.sim.run(until=WorldTime(at))
        disturb(rig)
        seen.append(rig.counters())
    try:
        rig.sim.run()
    except AVDBError as error:      # a stream dying of the disturbance
        seen.append({"raised": type(error).__name__})
    seen.append(rig.outcome())
    return seen


def _assert_same(fast: list, slow: list) -> None:
    assert len(fast) == len(slow)
    for step, (a, b) in enumerate(zip(fast, slow)):
        for key in a:
            assert a[key] == b[key], f"checkpoint {step}: {key} differs"


def _clocked_sources(spec: Pipeline) -> int:
    """How many of the pipeline's sources take the clock-out as built."""
    rig = Rig(spec, per_element=False)
    rig.sim.run(until=WorldTime(0.0))
    return sum(s.clocked is not None for s in rig.sources)


# -- (a) undisturbed ----------------------------------------------------------
class TestRunEqualsPerElement:
    @SETTINGS
    @given(spec=PIPELINES)
    def test_same_pipeline_both_ways(self, spec):
        _assert_same(_play(spec, per_element=False),
                     _play(spec, per_element=True))

    def test_the_fast_side_really_is_the_clock_out(self):
        base = dict(frames=12, width=8, rate=30.0, hop_share=1.7,
                    latency_s=0.001, placed=True, device_share=2.5,
                    seek_s=0.015, readahead=2.0, capacity=8, cue_share=0.0,
                    paced=True, prebuffer_s=0.05, cut_share=0.0, seed=1)
        assert _clocked_sources(Pipeline(kind="plain", **base)) == 1
        assert _clocked_sources(Pipeline(kind="stored", **base)) == 1
        # reader -> decoder is a hop without latency: per element, and
        # only the decoder's sends are timed hand-offs.
        assert _clocked_sources(Pipeline(kind="raw", **base)) == 0
        assert _clocked_sources(Pipeline(kind="multi", **base)) == 4
        rig = Rig(Pipeline(kind="plain", **base), per_element=True)
        rig.sim.run(until=WorldTime(0.0))
        assert [s.clocked for s in rig.sources] == [None]


def _without_stall_term(monkeypatch) -> None:
    """Re-plant: the folded read-ahead stage never stalls on its buffer."""
    source = inspect.getsource(clockout.ClockedRun.__init__)
    planted = source.replace("stalled = position - taken >= depth",
                             "stalled = False")
    assert planted != source
    scope: dict = {}
    exec(textwrap.dedent(planted), vars(clockout), scope)
    monkeypatch.setattr(clockout.ClockedRun, "__init__", scope["__init__"])


def test_a_dropped_read_ahead_stall_is_found(monkeypatch):
    _without_stall_term(monkeypatch)

    @settings(SETTINGS, phases=[Phase.generate])    # found, not minimized
    @given(spec=PIPELINES)
    def check(spec):
        _assert_same(_play(spec, per_element=False),
                     _play(spec, per_element=True))

    with pytest.raises(AssertionError, match="differs"):
        check()


# -- (b) cut mid-clip -------------------------------------------------------
def _stop_source(rig: Rig) -> None:
    if rig.source.state is ActivityState.RUNNING:
        rig.source.stop()


def _stop_streams(rig: Rig) -> None:
    for stream in rig.streams:
        stream.stop()


def _interrupt(rig: Rig) -> None:
    for leaf in rig.sources:
        leaf.process.interrupt()


def _close(rig: Rig) -> None:
    rig.session.close()


def _arm_faults(rig: Rig) -> None:
    now = rig.sim.now.seconds
    plan = FaultPlan(seed=rig.spec.seed).channel_loss(
        rig.channel.name, rate=0.3, jitter_s=0.004)
    devices = []
    if rig.device is not None:
        plan.device_slowdown("disk", at=now + 0.01, duration=0.2, factor=3.0)
        devices = [rig.device]
    FaultInjector(rig.sim, plan).arm(devices=devices, channels=[rig.channel])


def _hang(rig: Rig) -> None:
    for leaf in rig.sources:
        leaf.process.abandon()


def _catch(rig: Rig) -> None:
    for leaf in rig.sources:
        leaf.catch(EVENT_EACH_ELEMENT, lambda *_: None)


def _release(rig: Rig) -> None:
    # What a preemption does: the hop's reservation is revoked under a
    # running stream, whose next transfer dies of it.
    for connection in rig.connections:
        if connection.reservation is not None:
            connection.reservation.preempted = True
            connection.reservation.release()


DISTURBANCES = [_stop_source, _stop_streams, _interrupt, _close,
                _arm_faults, _hang, _catch, _release]


class TestCutEqualsPerElement:
    @pytest.mark.parametrize("disturb", DISTURBANCES,
                             ids=lambda d: d.__name__.strip("_"))
    def test_same_disturbance_both_ways(self, disturb):
        @settings(SETTINGS, max_examples=40)
        @given(spec=PIPELINES)
        def check(spec):
            # mostly inside the clip, sometimes in the drain after it
            at = spec.cut_share * (_span_s(spec) - 0.2)
            _assert_same(_play(spec, False, disturb, at),
                         _play(spec, True, disturb, at))

        check()

    @pytest.mark.parametrize("disturb", DISTURBANCES,
                             ids=lambda d: d.__name__.strip("_"))
    def test_every_stage_of_an_element_is_cut(self, disturb):
        # A fast hop and a fast device: the source seeks, waits for its
        # first reads, then mostly waits for the pace target with the
        # read-ahead stage stalled on its full buffer, and serializes in
        # between.  A sweep of cut times lands in each of those.
        spec = SWEPT
        stages = set()
        for step in range(40):
            at = step * 0.0093
            stages.add(_stage_at(spec, at))
            _assert_same(_play(spec, False, disturb, at),
                         _play(spec, True, disturb, at))
        assert stages == {"seeking", "fetching", "pacing", "serializing",
                          "sent"}


#: One source over a fast hop and a fast device (part (b)'s sweep).
SWEPT = Pipeline(kind="plain", frames=10, width=8, rate=30.0, hop_share=4.0,
                 latency_s=0.013, placed=True, device_share=2.5, seek_s=0.015,
                 readahead=2.0, capacity=2, cue_share=0.0, paced=True,
                 prebuffer_s=0.05, cut_share=0.0, seed=7)


def test_an_interrupt_after_a_stop_finds_the_run_cut():
    # The stop cuts the run; the source, asleep until its pace target,
    # is interrupted before it wakes, and its cut finds nothing to cut.
    def stop_then_interrupt(rig: Rig) -> None:
        _stop_source(rig)
        _interrupt(rig)

    for at in (0.05, 0.15):
        _assert_same(_play(SWEPT, False, stop_then_interrupt, at),
                     _play(SWEPT, True, stop_then_interrupt, at))


def test_a_cut_at_the_last_send_leaves_the_run_to_run_out():
    # Queued before the run's own wake-up at its last send, a stop at
    # that instant finds every element on the wire.
    probe = Rig(SWEPT, per_element=False)
    probe.sim.run(until=WorldTime(0.0))
    last = probe.sources[0].clocked.sent[-1]

    def stop_at_last_send(rig: Rig) -> None:
        rig.sim.schedule_at(WorldTime(last), lambda: _stop_source(rig))

    _assert_same(_play(SWEPT, False, plant=stop_at_last_send),
                 _play(SWEPT, True, plant=stop_at_last_send))


def _stage_at(spec: Pipeline, at: float) -> str:
    """Where the (single) source's run stands at ``at``."""
    rig = Rig(spec, per_element=False)
    rig.sim.run(until=WorldTime(at))
    run = rig.sources[0].clocked
    if run is None:
        return "sent"
    position = sum(sent <= at for sent in run.sent)
    if position == len(run.sent):
        return "sent"
    if run.positioned > at:
        return "seeking"
    if run.got[position] > at:
        return "fetching"
    return "pacing" if run.paced[position] > at else "serializing"


# -- (d) the consumer side ---------------------------------------------------
def _consumer_draw(seed: int) -> Pipeline:
    """A pipeline whose consumers can run as one: reader -> window, a
    decoder -> window chain, or a composite's clocked tracks."""
    kind = random.Random(seed + 1).choice(["plain", "decoded", "decoded",
                                           "multi"])
    return dataclasses.replace(_draw(seed), kind=kind)


CONSUMER_PIPELINES = st.integers(0, 2**30).map(_consumer_draw)


def _play_consumers(spec: Pipeline, sinks_per_element: bool, disturb=None,
                    at: float = 0.0) -> list:
    return _play(spec, False, disturb, at, sinks_per_element)


def _assert_consumers_agree(spec: Pipeline, disturb=None, at: float = 0.0):
    _assert_same(_play_consumers(spec, False, disturb, at),
                 _play_consumers(spec, True, disturb, at))


class TestConsumerRunEqualsPerElement:
    @settings(SETTINGS, max_examples=50)
    @given(spec=CONSUMER_PIPELINES)
    def test_same_consumers_both_ways(self, spec):
        _assert_consumers_agree(spec)

    def test_the_fast_side_really_is_a_consumer_run(self):
        for kind, chained in (("plain", 1), ("decoded", 2), ("multi", 4)):
            spec = dataclasses.replace(_consumer_draw(0), kind=kind,
                                       frames=12, paced=True)
            rig = Rig(spec, per_element=False)
            rig.sim.run(until=WorldTime(0.0))
            runs = {id(a.clocked) for a in rig.decoders + rig.sinks}
            assert None not in {a.clocked for a in rig.decoders + rig.sinks}
            assert len(runs) == (4 if kind == "multi" else 1), kind
            assert len(rig.decoders + rig.sinks) == chained
            rig = Rig(spec, per_element=False, sinks_per_element=True)
            rig.sim.run(until=WorldTime(0.0))
            assert all(a.clocked is None for a in rig.decoders + rig.sinks)

    def test_runs_fills_and_stalls_are_driven(self, monkeypatch):
        # The draws reach chains that run as one and chains whose model
        # fills a buffer, which stay per element; inside the runs, a sink
        # finds its buffer empty and a sink holds an element.
        begun = []      # per chain: its run, or None where the model filled
        begin = consumer.ConsumerRun.__init__

        def spy(run, *chain):
            begun.append(None)
            begin(run, *chain)
            begun[-1] = run

        monkeypatch.setattr(consumer.ConsumerRun, "__init__", spy)
        ran = filled = stalled = held = 0
        for seed in range(60):
            begun.clear()
            rig = Rig(_consumer_draw(seed), per_element=False)
            rig.sim.run(until=WorldTime(0.0))
            runs = [a.clocked for a in rig.sinks if a.clocked is not None]
            assert len(runs) + begun.count(None) == len(rig.sinks)
            ran += bool(runs)
            filled += None in begun
            codes = {op[1] for run in runs for op in run.ops}
            stalled += consumer.STALL_GET in codes
            held += any(run.sched is not None for run in runs)
            rig.sim.run()
        assert min(ran, filled, stalled, held) >= 3


def _audio_chain(seed: int = 0) -> Pipeline:
    """A reader -> encoder -> decoder -> speaker chain behind a
    clocked-out hop."""
    return dataclasses.replace(_consumer_draw(seed), kind="audio",
                               latency_s=0.013)


class TestAudioChain:
    def test_the_chain_runs_as_one_consumer_run(self):
        for seed in (0, 1):     # ADPCM, then µ-law
            spec = dataclasses.replace(_audio_chain(seed), frames=12,
                                       paced=True)
            rig = Rig(spec, per_element=False)
            rig.sim.run(until=WorldTime(0.0))
            chain = rig.decoders + rig.sinks
            assert [type(a).__name__ for a in chain] == [
                "AudioEncoder", "AudioDecoder", "Speaker"]
            assert rig.sources[0].clocked is not None
            assert None not in {a.clocked for a in chain}
            assert len({id(a.clocked) for a in chain}) == 1
            _assert_consumers_agree(spec)

    @settings(SETTINGS, max_examples=20)
    @given(seed=st.integers(0, 2**30))
    def test_same_audio_chain_both_ways(self, seed):
        spec = _audio_chain(seed)
        _assert_consumers_agree(spec)
        _assert_same(_play(spec, per_element=False),
                     _play(spec, per_element=True))


class _OwnLoopWindow(VideoWindow):
    """A sink with a loop of its own (``VideoWriter`` has one): no model
    of the base loop may stand in for it."""

    def _process(self):
        return (yield from super()._process())


def _start_late(rig: Rig) -> None:
    """The head of the consumer chain takes its first look after the
    first element is due behind the clocked-out hop."""
    head = (rig.decoders + rig.sinks)[0]
    for stream in rig.streams:
        stream.activities.remove(head)

    def starter():
        yield Delay(0.1)    # (the hop's arrivals span 0.045 s to 0.228 s)
        head.start()

    rig.sim.spawn(starter(), name="late-start")


def _start_window_first(rig: Rig) -> None:
    rig.sinks[0].start()    # waiting on the decoder's buffer already


def _never_start_window(rig: Rig) -> None:
    del rig.streams[1:]     # the decoder's output has no consumer


def _decoded() -> Pipeline:
    """A reader -> decoder -> window chain behind a clocked-out hop."""
    return dataclasses.replace(_consumer_draw(0), kind="decoded",
                               frames=12, latency_s=0.013, paced=True)


#: Chains the consumer-run predicate refuses, one per refusal it makes
#: behind a clocked-out hop: (kind, Rig keywords).
REFUSED_CHAINS = {
    "head-buffer-due": ("plain", {"plant": _start_late}),
    "sink-with-own-loop": ("plain", {"window": _OwnLoopWindow}),
    "reserved-hop": ("decoded", {"window": functools.partial(
        VideoWindow, location=Location.DATABASE)}),
    "consumer-waiting": ("decoded", {"plant": _start_window_first}),
    "consumer-unstarted": ("decoded", {"plant": _never_start_window}),
}


@pytest.mark.parametrize("case", REFUSED_CHAINS)
def test_a_refused_chain_runs_per_element(case, monkeypatch):
    kind, build = REFUSED_CHAINS[case]
    spec = dataclasses.replace(_decoded(), kind=kind)
    built = []
    begin = consumer.ConsumerRun.__init__

    def spy(run, *chain):
        built.append(run)
        begin(run, *chain)

    monkeypatch.setattr(consumer.ConsumerRun, "__init__", spy)
    rig = Rig(spec, per_element=False, **build)
    rig.sim.run(until=WorldTime(0.0))
    assert all(source.clocked is not None for source in rig.sources)
    rig.sim.run()
    assert built == []
    _assert_same(_play(spec, False, **build),
                 _play(spec, False, sinks_per_element=True, **build))


def test_a_cut_before_the_window_looks():
    # The decoder's stream starts first, so a catch queued behind the
    # decoder's first look cuts the run its look began before the window
    # has joined it.
    def cut_between_first_looks(rig: Rig) -> None:
        first = rig.streams.pop(0)
        first.start()
        rig.sim.schedule_at(WorldTime(0.0), lambda: _catch_sinks(rig))

    spec = _decoded()
    _assert_same(_play(spec, False, plant=cut_between_first_looks),
                 _play(spec, False, sinks_per_element=True,
                       plant=cut_between_first_looks))


def test_a_cut_after_the_decoder_ran_out():
    # The decoder's part of the run is over; the window's is not.
    spec = _decoded()
    probe = Rig(spec, per_element=False)
    probe.sim.run(until=WorldTime(0.0))
    done, last = probe.sinks[0].clocked.final
    assert done < last
    _assert_consumers_agree(spec, _catch_sinks, (done + last) / 2)

    # Queued before the decoder's own wake-up at its last op: the cut
    # comes first, and the decoder wakes to a run no longer active.
    def catch_at_done(rig: Rig) -> None:
        rig.sim.schedule_at(WorldTime(done), lambda: _catch_sinks(rig))

    _assert_same(_play(spec, False, plant=catch_at_done),
                 _play(spec, False, sinks_per_element=True,
                       plant=catch_at_done))


def test_an_arrival_at_a_get_instant_is_in_the_buffer():
    # Binary-exact times: 8 frames/s, 1/16 s on the wire and 1/16 s of
    # latency, so element k arrives at (k + 1)/8 s, and a 0.25 s
    # prebuffer ends element k - 1's presentation delay at that instant.
    # The sink's next get and the arrival tie; the arrival goes first.
    spec = Pipeline(kind="plain", frames=12, width=8, rate=8.0,
                    hop_share=2.0, latency_s=0.0625, placed=False,
                    device_share=1.0, seek_s=0.0, readahead=1.0, capacity=8,
                    cue_share=0.0, paced=True, prebuffer_s=0.25,
                    cut_share=0.5, seed=1)
    rig = Rig(spec, per_element=False)
    rig.sim.run(until=WorldTime(0.0))
    ops = rig.sinks[0].clocked.ops
    admitted = {at for at, code, _ in ops if code == consumer.ADMIT}
    presented = {at for at, code, _ in ops if code == consumer.PRESENT}
    assert len(admitted & presented) >= 10
    _assert_consumers_agree(spec)


def _stop_decoders(rig: Rig) -> None:
    for decoder in rig.decoders:
        if decoder.state is ActivityState.RUNNING:
            decoder.stop()


def _stop_sinks(rig: Rig) -> None:
    for sink in rig.sinks:
        if sink.state is ActivityState.RUNNING:
            sink.stop()


def _interrupt_consumers(rig: Rig) -> None:
    for activity in rig.decoders + rig.sinks:
        if activity.process is not None:
            activity.process.interrupt()


def _hang_consumers(rig: Rig) -> None:
    for activity in rig.sinks:
        if activity.process is not None:
            activity.process.abandon()


def _catch_sinks(rig: Rig) -> None:
    for sink in rig.sinks:
        sink.catch(EVENT_EACH_ELEMENT, lambda *_: None)


CONSUMER_DISTURBANCES = [_stop_source, _stop_decoders, _stop_sinks,
                         _interrupt_consumers, _hang_consumers,
                         _catch_sinks, _close, _arm_faults]


class TestConsumerCutEqualsPerElement:
    @pytest.mark.parametrize("disturb", CONSUMER_DISTURBANCES,
                             ids=lambda d: d.__name__.strip("_"))
    def test_same_disturbance_both_ways(self, disturb):
        @settings(SETTINGS, max_examples=30)
        @given(spec=CONSUMER_PIPELINES)
        def check(spec):
            _assert_consumers_agree(
                spec, disturb, spec.cut_share * (_span_s(spec) - 0.2))

        check()


def _replant_model(monkeypatch, name: str, line: str, planted: str) -> None:
    """Re-plant: ``line`` of the model's method ``name`` reads
    ``planted``."""
    source = inspect.getsource(getattr(consumer._Timeline, name))
    assert line in source
    scope: dict = {}
    exec(textwrap.dedent(source.replace(line, planted)), vars(consumer), scope)
    monkeypatch.setattr(consumer._Timeline, name, scope[name])


def _assert_consumer_bug_found() -> None:
    @settings(SETTINGS, phases=[Phase.generate])    # found, not minimized
    @given(spec=CONSUMER_PIPELINES)
    def check(spec):
        _assert_consumers_agree(spec)

    with pytest.raises(AssertionError, match="differs"):
        check()


def test_a_dropped_consumer_stall_is_found(monkeypatch):
    # a consumer that finds its buffer empty is not counted as stalled
    _replant_model(monkeypatch, "_get",
                   "self.ops.append((self.now, STALL_GET, process))", "pass")
    _assert_consumer_bug_found()


def test_a_dropped_capacity_check_is_found(monkeypatch):
    # the model never finds a buffer full, so a chain that fills one runs
    for name in ("_admit_due", "_put"):
        _replant_model(monkeypatch, name, "raise Filled", "pass")
    _assert_consumer_bug_found()


# -- (c) the timed hand-off against the deliverers it replaced -----------------
@dataclass(frozen=True)
class Script:
    """Integer times throughout, so that arrivals tie with gets."""

    capacity: int
    latency: int
    gaps: List[int]              # between the sends of a run deposited at 0
    thinks: List[int]            # the consumer's pause after each get
    cut_at: Optional[int]        # when the unsent tail is withdrawn, and...
    regaps: List[int]            # ...the gaps at which it is sent again

    def arrivals(self) -> list:
        """(arrival time, item), as finally delivered, and how many
        deposits the cut withdraws."""
        sends, now = [], 0
        for gap in self.gaps:
            now += gap
            sends.append(now)
        if self.cut_at is None:
            kept = len(sends)
        else:
            kept = sum(sent <= self.cut_at for sent in sends)
            now = self.cut_at
            for index in range(kept, len(sends)):
                now += self.regaps[index % len(self.regaps)]
                sends[index] = now
        return ([(sent + self.latency, item)
                 for item, sent in enumerate(sends)], len(sends) - kept)


SCRIPTS = st.builds(
    Script,
    capacity=st.integers(1, 3),
    latency=st.integers(1, 4),
    gaps=st.lists(st.integers(0, 3), min_size=1, max_size=14),
    thinks=st.lists(st.integers(0, 5), min_size=1, max_size=5),
    cut_at=st.integers(0, 8) | st.none(),
    regaps=st.lists(st.integers(0, 4), min_size=1, max_size=4),
)


def reference(script: Script) -> dict:
    """What the delivery processes did: each element's deliverer sleeps
    until its arrival time, then puts; one that finds the buffer full
    counts a stall and queues; each get wakes the first in the queue,
    which puts once the consumer's step is over.  An arrival and a get at
    the same time: the arrival goes first."""
    pending = deque(script.arrivals()[0])
    items: deque = deque()
    blocked: deque = deque()
    seen = {"got": [], "occupancy": [], "producer_stalls": 0,
            "consumer_stalls": 0, "ties": 0}

    def put(item) -> None:
        items.append(item)
        seen["occupancy"].append(len(items))

    def deliver(now: int) -> None:
        while pending and pending[0][0] <= now:
            item = pending.popleft()[1]
            if blocked or len(items) >= script.capacity:
                seen["producer_stalls"] += 1
                blocked.append(item)
            else:
                put(item)

    woken = 0

    def consumer_yields() -> None:
        nonlocal woken
        for _ in range(woken):
            put(blocked.popleft())
        woken = 0

    now = 0
    for turn in range(len(pending)):
        seen["ties"] += any(at == now for at, _ in pending)
        deliver(now)
        if not items:
            seen["consumer_stalls"] += 1
            consumer_yields()
            if not items:
                now = pending[0][0]
                deliver(now)
        seen["got"].append((now, items.popleft()))
        if len(blocked) > woken:
            woken += 1
        pause = script.thinks[turn % len(script.thinks)]
        if pause:
            consumer_yields()
            now += pause
    consumer_yields()
    return seen


def timed_hand_off(script: Script, buffer_class=StreamBuffer) -> dict:
    """The same script against the real buffer on the real kernel: the
    run is deposited whole at time 0, the clock-out's way; what a cut
    withdraws is deposited again one send at a time, the per-element
    way."""
    with scoped() as obs:
        sim = Simulator()
        buffer = buffer_class(sim, script.capacity)
        arrivals, withdrawn = script.arrivals()
        first, now = [], 0
        for gap in script.gaps:
            now += gap
            first.append(now + script.latency)
        got = []

        def producer():
            for item, at in enumerate(first):
                buffer.deposit(item, at)
            if script.cut_at is None:
                return
            yield Delay(script.cut_at)
            buffer.withdraw(withdrawn)
            for at, item in arrivals[len(first) - withdrawn:]:
                yield Delay(at - script.latency - sim.now.seconds)
                buffer.deposit(item, at)

        def consumer():
            for turn in range(len(first)):
                item = yield from buffer.get()
                got.append((sim.now.seconds, item))
                pause = script.thinks[turn % len(script.thinks)]
                if pause:
                    yield Delay(pause)

        sim.spawn(producer(), "producer")
        sim.spawn(consumer(), "consumer")
        sim.run()
        occupancy = obs.metrics.snapshot()["stream.buffer_occupancy"]
        return {"got": got, "occupancy": (occupancy["count"], occupancy["sum"]),
                "high_watermark": buffer.high_watermark,
                "total_put": buffer.total_put,
                "producer_stalls": buffer.producer_stalls,
                "consumer_stalls": buffer.consumer_stalls,
                "left": (len(buffer._arrivals), len(buffer._blocked),
                         sim.live_processes)}


def _assert_hand_off_matches(script: Script, buffer_class=StreamBuffer) -> None:
    model = reference(script)
    real = timed_hand_off(script, buffer_class)
    samples = model.pop("occupancy")
    del model["ties"]
    model.update(occupancy=(len(samples), sum(samples)),
                 high_watermark=max(samples), total_put=len(samples),
                 left=(0, 0, 0))
    assert real == model


class TestTimedHandOffModel:
    @settings(SETTINGS, max_examples=300)
    @given(script=SCRIPTS)
    def test_matches_the_delivery_processes(self, script):
        _assert_hand_off_matches(script)

    def test_ties_and_a_full_buffer_are_driven(self):
        # The strategy above is only worth its name if it reaches the
        # cases the model exists for.
        tied = full = rearmed = 0

        @settings(SETTINGS, max_examples=300)
        @given(script=SCRIPTS)
        def survey(script):
            nonlocal tied, full, rearmed
            model = reference(script)
            tied += model["ties"] > 0       # a get at an arrival's time
            full += model["producer_stalls"] > 0
            rearmed += script.arrivals()[1] > 0

        survey()
        assert min(tied, full, rearmed) >= 40


class _ForgetsToRearm(StreamBuffer):
    """Re-plant: a cut withdraws the arrival the waiting consumer was to
    wake for, and the buffer goes on believing that wake-up is armed."""

    def withdraw(self, count: int) -> None:
        timer = self._timer
        super().withdraw(count)
        self._timer = timer


def test_a_forgotten_rearm_is_found():
    @settings(SETTINGS, max_examples=300, phases=[Phase.generate])
    @given(script=SCRIPTS)
    def check(script):
        _assert_hand_off_matches(script, _ForgetsToRearm)

    with pytest.raises(AssertionError):
        check()
