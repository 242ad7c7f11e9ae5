"""Exp. F1 — Fig. 1: the Newscast.clip timeline diagram.

Regenerates the figure (ASCII timeline of the 4-track composite) and
plays the composite back through a synchronized MultiSource/MultiSink
pair, measuring inter-track presentation skew — the property temporal
composition exists to guarantee.
"""

from __future__ import annotations

import pytest

from repro.activities import ActivityGraph, MultiSink, MultiSource
from repro.activities.library import (
    AudioReader,
    Speaker,
    SubtitleWindow,
    TextReader,
    VideoReader,
    VideoWindow,
)
from repro.avtime import WorldTime
from repro.sim import Simulator
from repro.streams.clock import skew_between
from repro.synth import fig1_timeline, newscast_clip

VIDEO_FRAMES = 30
AUDIO_SECONDS = 1.0
PROBE_S = 0.5


def build_playback(clip):
    sim = Simulator()
    graph = ActivityGraph(sim)
    source = MultiSource(sim, name="dbSource")
    sink = MultiSink(sim, name="appSink")
    sinks = {}
    for track in clip.track_names:
        if track == "videoTrack":
            reader = VideoReader(sim, name=f"read.{track}")
            consumer = VideoWindow(sim, name=f"play.{track}", keep_payloads=False)
        elif track == "subtitleTrack":
            reader = TextReader(sim, name=f"read.{track}")
            consumer = SubtitleWindow(sim, name=f"play.{track}")
        else:
            reader = AudioReader(sim, name=f"read.{track}")
            consumer = Speaker(sim, name=f"play.{track}", keep_payloads=False)
        source.install(reader, track=track)
        sink.install(consumer, track=track)
        sinks[track] = consumer
    source.bind(clip)  # each installed reader gets its track's value
    graph.add(source)
    graph.add(sink)
    graph.connect_composites(source, sink)
    return sim, graph, sinks


def test_fig1_timeline_reproduction(benchmark, exhibit):
    # The figure's exact shape: video on [t0, t1), other tracks [t1, t2).
    diagram = fig1_timeline(t0=0.0, t1=1.0, t2=3.0)
    clip = newscast_clip(video_frames=VIDEO_FRAMES, audio_seconds=AUDIO_SECONDS)

    def run():
        sim, graph, sinks = build_playback(clip)
        graph.run_to_completion()
        return sinks

    sinks = benchmark(run)
    video_log = sinks["videoTrack"].log
    english_log = sinks["englishTrack"].log
    skew = skew_between(video_log, english_log, samples=20)
    lines = [
        "Fig. 1 — Timeline diagram for a Newscast.clip value",
        "",
        diagram.render_ascii(width=50),
        "",
        "Playback of the composite (all tracks from t0):",
        f"  video frames presented : {len(video_log)}",
        f"  audio blocks presented : {len(english_log)}",
        f"  max |video-audio skew| : {max(abs(s) for s in skew) * 1000:.3f} ms",
        f"  mean video latency     : {video_log.mean_latency() * 1000:.3f} ms",
        "",
        f"Element(WorldTime {PROBE_S} s) of each track:",
    ]
    for track in clip.track_names:
        value = clip.value(track)
        element = value.element(WorldTime(PROBE_S))
        shown = (f"{element.dtype}{list(element.shape)}"
                 if hasattr(element, "shape") else repr(element))
        lines.append(f"  {track:<14} @ {value.rate:>7g}/s : {shown}")
    # The paper's signature returns the element as a media value: for
    # video, a still image shown for one frame period.
    video = clip.value("videoTrack")
    still = video.element_value(WorldTime(PROBE_S))
    lines.append(f"  videoTrack as a value     : {still.media_type.name} "
                 f"{still.width}x{still.height}, {still.data_size_bits()} bits, "
                 f"shown {still.duration.seconds * 1000:.1f} ms")
    exhibit("fig1_timeline", "\n".join(lines))
    assert len(video_log) == VIDEO_FRAMES
    assert max(abs(s) for s in skew) < 0.005  # jitter-free: sub-frame sync
    assert (still.pixels == video.element(WorldTime(PROBE_S))).all()


def test_fig1_delayed_video_placement(benchmark, exhibit):
    """The figure's asymmetric placement: video occupies a different span.

    A video track translated to start 0.5 s late begins presentation 0.5 s
    after the audio — timeline placement drives the schedule.
    """
    clip = newscast_clip(video_frames=VIDEO_FRAMES, audio_seconds=AUDIO_SECONDS,
                         video_delay_s=0.5)

    def run():
        sim, graph, sinks = build_playback(clip)
        graph.run_to_completion()
        return sim, sinks

    sim, sinks = benchmark(run)
    video_log = sinks["videoTrack"].log
    audio_log = sinks["englishTrack"].log
    video_first = video_log.records[0].actual.seconds
    audio_first = audio_log.records[0].actual.seconds
    exhibit("fig1_delayed_video", "\n".join([
        "Timeline with videoTrack translated +0.5 s (Fig. 1 asymmetric shape):",
        f"  first audio presentation : {audio_first:.3f} s",
        f"  first video presentation : {video_first:.3f} s",
        f"  measured offset          : {video_first - audio_first:.3f} s (expected 0.5)",
    ]))
    assert video_first - audio_first == pytest.approx(0.5, abs=1e-6)
