"""Authoring and playing a temporally composed Newscast (paper §4.1, Fig. 1).

Builds the paper's Newscast.clip — a video track, two language audio
tracks and a subtitle track — positions the tracks on a timeline with the
exact Fig. 1 shape (video on [t0, t1), the other tracks on [t1, t2)),
prints the timeline diagram, slots a half-speed replay of it in later
(scale and translate keep the tracks aligned), compresses the video
track for storage, and plays the whole composite back with injected
latency jitter, with and without resynchronization, reporting the
measured inter-track skew, and previews its first half second from disk,
the database decoding the stored video (the §4.3 dynamic configuration
that delivers raw), stopping the transfer there.

Run:  python examples/newscast_authoring.py
"""

from repro import AVDatabaseSystem, AttributeSpec, ClassDef, MagneticDisk, Q, WorldTime
from repro.avtime import ObjectTime
from repro.activities.library import Speaker, SubtitleWindow, VideoWindow
from repro.codecs import JPEGCodec
from repro.streams.sync import RandomWalkJitter
from repro.synth import NEWSCAST_CLIP_SPEC, moving_scene, subtitle_track, tone
from repro.temporal import TemporalComposite


def author_clip() -> TemporalComposite:
    """Author the Fig. 1 composite: video first, then audio + subtitles."""
    t0, t1, t2 = 0.0, 1.0, 3.0
    video = moving_scene(num_frames=int((t1 - t0) * 30), width=64, height=48)
    english = tone(t2 - t1, 440.0).translate(WorldTime(t1))
    french = tone(t2 - t1, 330.0).translate(WorldTime(t1))
    subtitles = subtitle_track(
        ["Good evening.", "Top story tonight.", "That's all."],
        rate=3.0 / (t2 - t1),
    ).translate(WorldTime(t1))
    return TemporalComposite(NEWSCAST_CLIP_SPEC, {
        "videoTrack": video,
        "englishTrack": english,
        "frenchTrack": french,
        "subtitleTrack": subtitles,
    })


def play(system, clip, jitter_step, resync_interval, stop_at=None,
         deliver="stored"):
    session = system.open_session()
    source = system.make_multisource(
        clip, deliver=deliver, name=None,
        jitter_factory=None if jitter_step is None else (
            lambda track: RandomWalkJitter(
                step=jitter_step, bias=2.5, seed=sum(map(ord, track)) % 997)),
        resync_interval=resync_interval,
    )
    session._activities.append(source)
    sink = session.new_multi_sink()
    window = sink.install(VideoWindow(system.simulator, keep_payloads=False),
                          track="videoTrack")
    sink.install(Speaker(system.simulator, keep_payloads=False),
                 track="englishTrack")
    sink.install(Speaker(system.simulator, keep_payloads=False),
                 track="frenchTrack")
    sink.install(SubtitleWindow(system.simulator), track="subtitleTrack")
    stream = session.connect(source, sink)
    stream.start()
    if stop_at is not None:
        # "At any point the application may stop the transfer."
        simulator = system.simulator
        simulator.schedule_at(WorldTime(simulator.now_s + stop_at), stream.stop)
    session.run()
    return source, window


def main() -> None:
    clip = author_clip()
    clip.validate_alignment()
    print("Fig. 1 — the authored Newscast.clip timeline:\n")
    print(clip.timeline.render_ascii(width=50))
    print(f"\ncomposite duration: {clip.duration.seconds:.1f}s; "
          f"tracks active at t=2.0s: {clip.active_tracks(WorldTime(2.0))}; "
          f"video frame 15 at t="
          f"{clip.value('videoTrack').object_to_world(ObjectTime(15)).seconds:.1f}s")
    # Scale and translate apply to the whole composite, so its tracks stay
    # correlated: a half-speed replay slotted in at t=10 s still aligns.
    replay = clip.scale(2.0).translate(WorldTime(10.0))
    replay.validate_alignment()
    print(f"half-speed replay from t=10 s: {replay.duration.seconds:.1f}s; "
          f"tracks active at t=14.0s: {replay.active_tracks(WorldTime(14.0))}")

    # Compress the video track for storage (the DB keeps the composite).
    compressed = JPEGCodec(80).encode_value(clip.value("videoTrack"))
    print(f"video track stored as {compressed.media_type.name}: "
          f"{compressed.compression_ratio():.1f}x compression")

    system = AVDatabaseSystem()
    system.add_storage(MagneticDisk(system.simulator, "disk0"))
    system.db.define_class(ClassDef("Newscast", attributes=[
        AttributeSpec("title", str, indexed=True),
    ], tcomps=[NEWSCAST_CLIP_SPEC]))
    system.db.insert("Newscast", title="Evening News", clip=clip)
    found = system.db.select("Newscast", Q.eq("title", "Evening News"))
    print(f"stored and queried back: {found}")

    print("\nsynchronized playback with injected jitter "
          "(random-walk latency, 4 ms steps):")
    for resync in (None, 10):
        source, _ = play(system, clip, jitter_step=0.004,
                         resync_interval=resync)
        skew = source.max_skew()
        label = "no resynchronization " if resync is None \
            else f"resync every {resync} elems"
        print(f"  {label}: max inter-track skew = {skew * 1000:7.2f} ms")

    # Place the tracks on disk, the video compressed (client-visible
    # placement), then preview the first half second from there, decoded
    # at the database, and stop the transfer.
    stored = TemporalComposite(NEWSCAST_CLIP_SPEC, {
        track: compressed if track == "videoTrack" else clip.value(track)
        for track in clip.track_names})
    for track in stored.track_names:
        system.store_value(stored.value(track), "disk0")
    _, window = play(system, stored, jitter_step=None, resync_interval=None,
                     stop_at=0.5, deliver="raw")
    print(f"\npreview from disk0 stopped at 0.5 s: {window.elements_consumed} of "
          f"{clip.value('videoTrack').num_frames} video frames presented")


if __name__ == "__main__":
    main()
