"""Cross-cutting property-based tests on core invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.avtime import Interval, ObjectTime, TimeMapping, WorldTime
from repro.codecs import JPEGCodec, MPEGCodec, RLECodec
from repro.sim import Delay, Simulator
from repro.streams.buffer import StreamBuffer
from repro.values import RawVideoValue


# -- codec roundtrips over arbitrary (small) frame content ----------------

frame_strategy = st.integers(0, 255).flatmap(
    lambda fill: st.tuples(
        st.integers(2, 4),     # frames
        st.integers(8, 24),    # height
        st.integers(8, 24),    # width
        st.just(fill),
        st.integers(0, 2**31 - 1),
    )
)


@given(frame_strategy)
@settings(max_examples=15)
def test_rle_lossless_on_any_video(params):
    n, h, w, fill, seed = params
    rng = np.random.default_rng(seed)
    # A mix of flat fill and sparse noise: exercises run boundaries.
    frames = np.full((n, h, w), fill, dtype=np.uint8)
    mask = rng.random((n, h, w)) < 0.1
    frames[mask] = rng.integers(0, 255, int(mask.sum()), dtype=np.uint8)
    video = RawVideoValue(frames)
    codec = RLECodec()
    assert np.array_equal(codec.decode_value(codec.encode_value(video)), frames)


@given(st.integers(1, 100), st.integers(2, 10), st.integers(0, 2**31 - 1))
@settings(max_examples=10)
def test_mpeg_decode_order_independent(quality_seed, gop, seed):
    """Random access equals sequential decode for every frame."""
    rng = np.random.default_rng(seed)
    frames = (rng.integers(0, 64, (6, 16, 16), dtype=np.uint8) * 4)
    video = RawVideoValue(frames)
    codec = MPEGCodec(75, gop=gop)
    encoded = codec.encode_value(video)
    sequential = codec.decode_value(encoded)
    for i in range(6):
        assert np.array_equal(encoded.frame(i), sequential[i])


@given(st.integers(1, 100))
@settings(max_examples=20)
def test_jpeg_error_bounded_at_any_quality(quality):
    y, x = np.mgrid[0:16, 0:16]
    frame = ((x * 8 + y * 4) % 256).astype(np.uint8)
    codec = JPEGCodec(quality)
    decoded = codec.decode_frame(codec.encode_frame(frame), 16, 16, 8)
    error = np.abs(decoded.astype(int) - frame.astype(int)).mean()
    assert error < 64.0  # even quality=1 stays in the ballpark


# -- temporal invariants -------------------------------------------------

@given(st.floats(1.0, 120.0), st.floats(0.1, 8.0), st.floats(0.0, 100.0),
       st.integers(0, 10_000))
@settings(max_examples=50)
def test_mapping_monotone(rate, scale, start, index):
    mapping = TimeMapping(rate, WorldTime(start), scale)
    t1 = mapping.object_to_world(ObjectTime(index))
    t2 = mapping.object_to_world(ObjectTime(index + 1))
    assert t2 > t1
    assert (t2 - t1).seconds == pytest.approx(mapping.element_period().seconds)
    assert mapping.element_period().seconds == pytest.approx(scale / rate)


@given(st.floats(0, 50), st.floats(0.1, 20), st.floats(0, 0.99),
       st.floats(0.1, 20), st.booleans())
@settings(max_examples=50)
def test_interval_intersection_inside_both(s1, d1, inside, d2, swap):
    # The second interval starts inside the first one's span, so the two
    # always intersect and no draw is filtered out.
    a = Interval(WorldTime(s1), WorldTime(d1))
    b = Interval(WorldTime(s1 + inside * d1), WorldTime(d2))
    if swap:
        a, b = b, a
    inter = a.intersection(b)
    assert inter is not None
    # Intervals store (start, duration), so reconstructing `end` can round
    # up by one ulp; bounds hold to float tolerance.
    eps = 1e-9
    assert inter.start.seconds >= a.start.seconds - eps
    assert inter.start.seconds >= b.start.seconds - eps
    assert inter.end.seconds <= a.end.seconds + eps
    assert inter.end.seconds <= b.end.seconds + eps
    assert inter.duration.seconds <= min(d1, d2) + eps


@given(st.floats(0, 50), st.floats(0.1, 20), st.floats(0.25, 4.0),
       st.floats(-10, 10))
@settings(max_examples=50)
def test_value_scale_translate_algebra(start, dur_frames, factor, delta):
    """duration(scale(v, f)) == f * duration(v); translate preserves it."""
    n = max(1, int(dur_frames))
    video = RawVideoValue(np.zeros((n, 8, 8), dtype=np.uint8), rate=10.0)
    positioned = video.translate(WorldTime(start))
    scaled = positioned.scale(factor)
    assert scaled.duration.seconds == pytest.approx(
        positioned.duration.seconds * factor
    )
    moved = scaled.translate(WorldTime(delta))
    assert moved.duration.seconds == pytest.approx(scaled.duration.seconds)
    assert (moved.start - scaled.start).seconds == pytest.approx(delta)


# -- stream buffer conservation --------------------------------------------

@given(st.lists(st.integers(0, 1000), min_size=1, max_size=60),
       st.integers(1, 8), st.integers(0, 3))
@settings(max_examples=30)
def test_buffer_conserves_and_orders(items, capacity, consumer_delay_ticks):
    """Everything put is got, exactly once, in order, under any timing."""
    sim = Simulator()
    buffer = StreamBuffer(sim, capacity)
    received = []

    def producer():
        for item in items:
            yield from buffer.put(item)

    def consumer():
        for _ in items:
            if consumer_delay_ticks:
                yield Delay(consumer_delay_ticks * 0.01)
            value = yield from buffer.get()
            received.append(value)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert received == items
    assert len(buffer) == 0
    assert buffer.high_watermark <= capacity


# -- query/index agreement under random data --------------------------------

@given(st.lists(st.tuples(st.integers(0, 20), st.text("abc", min_size=1, max_size=3)),
                min_size=1, max_size=40),
       st.integers(0, 20))
@settings(max_examples=25)
def test_indexed_query_matches_scan(rows, pivot):
    from repro.db import AttributeSpec, ClassDef, Database, Q
    db = Database()
    db.define_class(ClassDef("Row", attributes=[
        AttributeSpec("n", int, indexed=True),
        AttributeSpec("tag", str),
    ]))
    for n, tag in rows:
        db.insert("Row", n=n, tag=tag)
    predicate = Q.le("n", pivot)
    via_index = db.select("Row", predicate)
    by_scan = [oid for oid in db.select("Row")
               if db.get(oid).n <= pivot]
    assert via_index == by_scan


# -- simulation determinism under random workloads ------------------------

@given(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=10),
       st.integers(1, 5))
@settings(max_examples=20)
def test_simulation_deterministic(delays, processes):
    def trace_run():
        sim = Simulator()
        trace = []

        def proc(pid):
            for i, d in enumerate(delays):
                yield Delay(d * (pid + 1))
                trace.append((pid, i, sim.now.seconds))

        for pid in range(processes):
            sim.spawn(proc(pid))
        sim.run()
        return trace

    assert trace_run() == trace_run()
