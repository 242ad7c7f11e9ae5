"""Delivering a compressed Newscast raw: the database decodes (paper §4.3).

A stored value is delivered in its stored form or raw.  Raw delivery is
the paper's dynamic configuration: the database builds the source out of
a reader and a decoder in one composite (Fig. 2), so only decoded frames
cross the network.  This plays the paper's Newscast.clip, its video
stored MPEG-coded, raw:

1. to the end, over a link with room for the decoded frames;
2. with frames four times as large, which the same link carries more
   slowly than they are due: the decoder at the database falls behind,
   its input buffer fills and the reader waits on it (§3.3: buffers are
   limited, and a slow consumer stalls its source);
3. stopped by the viewer at several points of that playback;
4. watched by a viewer that counts each frame as it is shown (a handler
   on the window's each-element event).

Run:  python examples/raw_delivery.py
"""

from repro import AVDatabaseSystem, MagneticDisk, WorldTime
from repro.activities import EVENT_EACH_ELEMENT
from repro.activities.library import (PacedSource, Speaker, SubtitleWindow,
                                      VideoWindow)
from repro.codecs import MPEGCodec
from repro.synth import NEWSCAST_CLIP_SPEC, moving_scene, newscast_clip
from repro.temporal import TemporalComposite

FRAMES = 30


def stored_clip(width: int, height: int) -> TemporalComposite:
    """The Newscast clip as the database keeps it: video MPEG-coded."""
    clip = newscast_clip(video_frames=FRAMES, audio_seconds=FRAMES / 30.0)
    values = {track: clip.value(track) for track in clip.track_names}
    values["videoTrack"] = MPEGCodec(75).encode_value(
        moving_scene(FRAMES, width, height))
    return TemporalComposite(NEWSCAST_CLIP_SPEC, values)


def play(width: int, height: int, stop_at=None, on_frame=None):
    """Play the clip raw; return what the viewer and the database saw."""
    clip = stored_clip(width, height)
    system = AVDatabaseSystem()
    system.add_storage(MagneticDisk(system.simulator, "disk0"))
    for track in clip.track_names:
        system.store_value(clip.value(track), "disk0")
    sim = system.simulator
    session = system.open_session("viewer")
    source = session.new_db_source(clip, deliver="raw")
    sink = session.new_multi_sink()
    window = sink.install(VideoWindow(sim, keep_payloads=False,
                                      presentation_delay=0.1),
                          track="videoTrack")
    if on_frame is not None:
        window.catch(EVENT_EACH_ELEMENT, on_frame)
    for track in ("englishTrack", "frenchTrack"):
        sink.install(Speaker(sim, keep_payloads=False,
                             presentation_delay=0.1), track=track)
    sink.install(SubtitleWindow(sim, presentation_delay=0.1),
                 track="subtitleTrack")
    stream = session.connect(source, sink)
    stream.start()
    if stop_at is not None:
        # "At any point the application may stop the transfer."
        sim.run(until=WorldTime(stop_at))
        shown = window.elements_consumed
        stream.stop()
    session.run()
    reader = next(leaf for leaf in system.graph._flatten(source)
                  if isinstance(leaf, PacedSource) and leaf.name.endswith(".read"))
    inner = reader.out_ports()[0].connection.buffer
    late = max(((r.actual - r.ideal).seconds for r in window.log.records),
               default=0.0)
    session.close()
    seen = {"frames": window.elements_consumed, "late_s": late,
            "reader_stalls": inner.producer_stalls,
            "most_buffered": inner.high_watermark,
            "end_s": sim.now.seconds}
    if stop_at is not None:
        seen["shown_at_stop"] = shown
    return seen


def main() -> None:
    print("Newscast.clip delivered raw (reader + decoder at the database):")
    for label, size in (("64x48", (64, 48)), ("128x96", (128, 96))):
        seen = play(*size)
        print(f"  {label} frames: {seen['frames']} of {FRAMES} presented, "
              f"the latest {seen['late_s'] * 1000:.1f} ms after its time "
              f"(0.1 s prebuffer); the reader stalled "
              f"{seen['reader_stalls']} times on the decoder's input, "
              f"which held up to {seen['most_buffered']} frames")
    print("\nthe 128x96 playback, stopped by the viewer:")
    for stop_at in (0.02, 0.45, 0.8, 1.3, 2.2, 2.6):
        seen = play(128, 96, stop_at=stop_at)
        print(f"  at {stop_at:.2f} s: {seen['shown_at_stop']} frames shown, "
              f"{seen['frames']} in all once the stream drained "
              f"(done at {seen['end_s']:.3f} s)")
    counted = []
    seen = play(64, 48, on_frame=lambda *event: counted.append(event[-1]))
    print(f"\na viewer counting the 64x48 frames as they are shown: "
          f"{len(counted)} counted, {seen['frames']} presented, the latest "
          f"{seen['late_s'] * 1000:.1f} ms after its time")


if __name__ == "__main__":
    main()
