"""Exp. O1 — observability overhead.

The metrics layer is on by default, so its cost must be negligible: this
bench runs the Fig. 2 pipeline (read -> decode -> display) under three
regimes and compares wall time:

* ``disabled()``  — NULL_OBS: no-op metrics, no tracer (the un-instrumented
  baseline);
* default         — live metrics registry, null tracer (what every user
  gets);
* ``scoped(tracing=True)`` — metrics plus a recording tracer.

The gate is on the default regime: always-on metrics must stay within
10% of the null baseline.  Tracing is opt-in, so its cost is reported
but not gated.

Exp. O2 extends the measurement to the supervision layer: the stream
dataplane (the kernel-throughput hot path) runs with a
:class:`~repro.watch.Watchdog` armed — invariant probes on a virtual-time
cadence, SLO engine, flight recorder tracking the channel — and the
*total* observability bill (metrics + watch vs the null baseline) must
stay under 10%.
"""

from __future__ import annotations

import time

from repro.activities import ActivityGraph
from repro.activities.library import VideoDecoder, VideoReader, VideoWindow
from repro.avtime import WorldTime
from repro.codecs import JPEGCodec
from repro.net.channel import Channel
from repro.obs import disabled, scoped
from repro.sim import Simulator
from repro.streams.buffer import StreamBuffer
from repro.streams.element import END_OF_STREAM, StreamElement
from repro.synth import moving_scene
from repro.values.mediatype import standard_type
from repro.watch import Watchdog, default_slos

FRAMES = 30
W, H = 64, 48
REPEATS = 9


def make_encoded():
    return JPEGCodec(80).encode_value(moving_scene(FRAMES, W, H))


def run_pipeline(encoded) -> int:
    """Build and run the Fig. 2 chain inside the ambient obs scope."""
    sim = Simulator()
    graph = ActivityGraph(sim)
    reader = graph.add(VideoReader(sim, name="read"))
    reader.bind(encoded)
    decoder = graph.add(VideoDecoder(sim, encoded.codec, W, H, 8, name="decode"))
    window = graph.add(VideoWindow(sim, name="display"))
    graph.connect(reader.port("video_out"), decoder.port("video_in"))
    graph.connect(decoder.port("video_out"), window.port("video_in"))
    graph.run_to_completion()
    return len(window.presented)


def best_of(repeats, fn) -> float:
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        frames = fn()
        elapsed = time.perf_counter() - start
        assert frames == FRAMES
        best = min(best, elapsed)
    return best


def test_obs_overhead_within_budget(exhibit):
    encoded = make_encoded()

    def run_disabled():
        with disabled():
            return run_pipeline(encoded)

    def run_default():
        return run_pipeline(encoded)

    def run_traced():
        with scoped(tracing=True):
            return run_pipeline(encoded)

    # Warm-up (imports, JIT-ish caches) then interleaved best-of-N.
    run_disabled(), run_default(), run_traced()
    base = best_of(REPEATS, run_disabled)
    default = best_of(REPEATS, run_default)
    traced = best_of(REPEATS, run_traced)

    metrics_overhead = default / base - 1
    tracing_overhead = traced / base - 1
    exhibit("obs_overhead", "\n".join([
        "Exp. O1 — observability overhead on the Fig. 2 pipeline",
        f"({FRAMES} frames, best of {REPEATS} runs each)",
        "",
        f"  null obs (baseline)      : {base * 1000:8.2f} ms",
        f"  metrics on, no tracer    : {default * 1000:8.2f} ms  "
        f"({metrics_overhead * 100:+.1f}%)",
        f"  metrics + tracing        : {traced * 1000:8.2f} ms  "
        f"({tracing_overhead * 100:+.1f}%)",
        "",
        "gate: always-on metrics must cost < 10% over the null baseline",
    ]))
    assert metrics_overhead < 0.10, (
        f"default metrics overhead {metrics_overhead * 100:.1f}% exceeds 10%"
    )


# ---------------------------------------------------------------------------
# Exp. O2 — supervision (watch) overhead on the stream dataplane
# ---------------------------------------------------------------------------

ELEMENTS = 4_000
ELEMENT_BITS = 8_000
WATCH_CADENCE_S = 0.002


def run_stream(watch: bool) -> int:
    """The kernel-throughput stream hot path, optionally supervised.

    Producer serializes elements over a channel reservation into a
    bounded buffer; consumer drains it.  With ``watch=True`` a Watchdog
    arms the channel (reservation + bit conservation + process
    accounting probes) and ticks on a virtual-time cadence throughout.
    """
    sim = Simulator()
    channel = Channel(sim, capacity_bps=1e9, latency_s=0.0, name="bench")
    reservation = channel.reserve(1e9, label="bench")
    buffer = StreamBuffer(sim, capacity=64, name="bench")
    raw = standard_type("video/raw")
    payload = b"\x00" * 1000
    horizon_s = ELEMENTS * ELEMENT_BITS / 1e9  # virtual run length

    dog = None
    if watch:
        dog = Watchdog(sim, slos=default_slos())
        dog.arm(channels=[channel], channels_complete=True)
        dog.start(cadence_s=WATCH_CADENCE_S, horizon_s=horizon_s)

    def producer():
        for i in range(ELEMENTS):
            element = StreamElement(
                payload, i, WorldTime(i * 1e-4), raw, ELEMENT_BITS)
            yield from reservation.serialize(element.size_bits)
            yield from buffer.put(element)
        yield from buffer.put(END_OF_STREAM)

    def consumer():
        count = 0
        while True:
            element = yield from buffer.get()
            if element is END_OF_STREAM:
                return count
            count += 1

    sim.spawn(producer(), name="producer")
    proc = sim.spawn(consumer(), name="consumer")
    got = sim.run_until_complete(proc)
    sim.run()  # drain the watchdog ticker to its horizon
    if dog is not None:
        reservation.release()
        dog.teardown(strict=True)
        assert dog.ticks > 0, "watchdog never ticked during the run"
    return got


def test_watch_overhead_within_budget(exhibit):
    def run_null():
        with disabled():
            return run_stream(watch=False)

    def run_default():
        return run_stream(watch=False)

    def run_watched():
        with scoped():
            return run_stream(watch=True)

    for fn in (run_null, run_default, run_watched):  # warm-up
        assert fn() == ELEMENTS

    # Round-robin inside the repeat loop: a neighbour's slow phase on a
    # shared machine then lands on every leg, not on whichever leg was
    # being timed (timed one after the other, the gate read +11 % one
    # run in three on an unchanged tree).  Still the fastest of k each.
    legs = (run_null, run_default, run_watched)
    fastest = [float("inf")] * len(legs)
    for _ in range(REPEATS):
        for leg, fn in enumerate(legs):
            start = time.perf_counter()
            got = fn()
            elapsed = time.perf_counter() - start
            assert got == ELEMENTS
            fastest[leg] = min(fastest[leg], elapsed)
    base, default, watched = fastest

    metrics_overhead = default / base - 1
    watch_overhead = watched / base - 1
    ticks = int(ELEMENTS * ELEMENT_BITS / 1e9 / WATCH_CADENCE_S)
    exhibit("obs_overhead_watch", "\n".join([
        "Exp. O2 — supervision overhead on the stream dataplane",
        f"({ELEMENTS} elements, ~{ticks} invariant checks, "
        f"best of {REPEATS} runs each)",
        "",
        f"  null obs (baseline)      : {base * 1000:8.2f} ms",
        f"  metrics on               : {default * 1000:8.2f} ms  "
        f"({metrics_overhead * 100:+.1f}%)",
        f"  metrics + watchdog armed : {watched * 1000:8.2f} ms  "
        f"({watch_overhead * 100:+.1f}%)",
        "",
        "gate: total observability bill (metrics + watch) must cost",
        "      < 10% over the null baseline",
    ]))
    assert watch_overhead < 0.10, (
        f"watch-armed overhead {watch_overhead * 100:.1f}% exceeds 10%"
    )
