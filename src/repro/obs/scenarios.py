"""Named scenarios for the ``python -m repro trace`` CLI.

Each scenario builds a fresh :class:`~repro.avdb.AVDatabaseSystem` inside
the caller's ambient observability scope (the CLI installs one with a
live tracer), drives it to completion in virtual time, and returns a
small dict of headline facts for the console.  Because the systems are
constructed *inside* the scope, every layer binds its instruments to the
scoped registry and its spans to the scoped tracer.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import AdmissionError
from repro.scenarios import FAMILIES


def _base_system():
    """A system with one disk and the paper's newscast schema."""
    from repro.avdb import AVDatabaseSystem
    from repro.db import AttributeSpec, ClassDef
    from repro.storage import MagneticDisk
    from repro.synth import NEWSCAST_CLIP_SPEC
    from repro.values import VideoValue

    system = AVDatabaseSystem()
    system.add_storage(MagneticDisk(system.simulator, "disk0"))
    system.db.define_class(ClassDef("SimpleNewscast", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("whenBroadcast", str, indexed=True),
        AttributeSpec("videoTrack", VideoValue),
    ]))
    system.db.define_class(ClassDef("Newscast", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("whenBroadcast", str, indexed=True),
    ], tcomps=[NEWSCAST_CLIP_SPEC]))
    return system


def quickstart() -> Dict[str, object]:
    """The paper's six-statement example: one video stream, db to window."""
    from repro.db import Q
    from repro.synth import moving_scene

    system = _base_system()
    video = moving_scene(30, 64, 48)
    system.store_value(video, "disk0")
    system.db.insert("SimpleNewscast", title="60 Minutes",
                     whenBroadcast="1992-11-01", videoTrack=video)
    with system.open_session("quickstart") as session:
        ref = session.select_one("SimpleNewscast", Q.eq("title", "60 Minutes"))
        source = session.new_db_source((ref, "videoTrack"))
        window = session.new_video_window("320x240x8@30")
        stream = session.connect(source, window)
        stream.start()
        end = session.run()
        frames = len(window.presented)
        bits = stream.bits_transferred
    return {
        "frames_presented": frames,
        "virtual_seconds": round(end.seconds, 3),
        "bytes_on_channel": bits // 8,
    }


def newscast() -> Dict[str, object]:
    """The multi-track example: MultiSource/MultiSink over a 4-track clip."""
    from repro.activities.library import Speaker, SubtitleWindow, VideoWindow
    from repro.db import Q
    from repro.synth import newscast_clip

    system = _base_system()
    clip = newscast_clip(video_frames=20, audio_seconds=0.7)
    for track in clip.track_names:
        system.store_value(clip.value(track), "disk0")
    system.db.insert("Newscast", title="60 Minutes",
                     whenBroadcast="1992-11-01", clip=clip)
    with system.open_session("newscast") as session:
        my_news = session.select_one("Newscast", Q.eq("title", "60 Minutes"))
        source = session.new_db_source((my_news, "clip"))
        sink = session.new_multi_sink()
        sink.install(VideoWindow(system.simulator, name="window"),
                     track="videoTrack")
        sink.install(Speaker(system.simulator, name="english"),
                     track="englishTrack")
        sink.install(Speaker(system.simulator, name="french"),
                     track="frenchTrack")
        sink.install(SubtitleWindow(system.simulator, name="subtitles"),
                     track="subtitleTrack")
        stream = session.connect(source, sink)
        stream.start()
        end = session.run()
        frames = len(sink.components["window"].presented)
        skew = source.max_skew()
    return {
        "tracks": len(clip.track_names),
        "frames_presented": frames,
        "max_skew_s": round(skew, 6),
        "virtual_seconds": round(end.seconds, 3),
    }


def contention() -> Dict[str, object]:
    """Storage contention: a saturated device forces the §3.3 copy fallback.

    Two uncompressed streams cannot share the small disk, so the second
    value is copied to a spare device first — the trace shows the
    admission failure, the ``placement.copy`` span, and both streams.
    """
    from repro.db import Q
    from repro.storage import MagneticDisk
    from repro.synth import moving_scene

    system = _base_system()
    # A second, initially idle device to copy onto.
    system.add_storage(MagneticDisk(system.simulator, "disk1"))
    # Size the first disk so one stream fits and two do not.
    video_a = moving_scene(24, 160, 120, seed=1)
    video_b = moving_scene(24, 160, 120, seed=2)
    rate = video_a.data_rate_bps()
    # Room for one read-ahead stream (2x rate) but not a second (needs
    # at least 1x more); the leftover half-rate is what the copy gets.
    system.placement.device("disk0").bandwidth_bps = rate * 2.5
    for i, video in enumerate((video_a, video_b)):
        system.store_value(video, "disk0")
        system.db.insert("SimpleNewscast", title=f"clip-{i}",
                         whenBroadcast="1993-01-01", videoTrack=video)
    admission_failed = False
    with system.open_session("contention") as session:
        source_a = session.new_db_source(video_a)
        window_a = session.new_video_window(name="contention.window-a")
        session.connect(source_a, window_a).start()
        try:
            session.new_db_source(video_b)
        except AdmissionError:
            admission_failed = True
            # Physical-data-independence fallback: copy, then stream.
            system.simulator.spawn(
                system.placement.copy(video_b, "disk1"), name="copy-fallback"
            )
            system.simulator.run()
        source_b = session.new_db_source(video_b)
        window_b = session.new_video_window(name="contention.window-b")
        session.connect(source_b, window_b).start()
        end = session.run()
        frames = len(window_a.presented) + len(window_b.presented)
    return {
        "admission_failed_first": admission_failed,
        "copies": system.placement.copy_count,
        "frames_presented": frames,
        "virtual_seconds": round(end.seconds, 3),
    }


#: Its own three scenarios, then ``trace <family>`` for every family
#: that declares a preset in :mod:`repro.scenarios`.
SCENARIOS: Dict[str, Callable[[], Dict[str, object]]] = {
    "quickstart": quickstart,
    "newscast": newscast,
    "contention": contention,
    **{family.name: family.run_preset
       for family in FAMILIES.values() if family.preset},
}
