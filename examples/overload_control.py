"""Admission control on a shared trunk: admit, degrade, shed.

The paper makes resource allocation client-visible — "this statement
would fail if insufficient network bandwidth were available" (§4.3).
This example puts an :class:`AdmissionController` in front of that
decision so three competing sessions on one under-provisioned trunk get
three different answers instead of first-come-first-served exceptions:

1. the first stream is admitted at its full rate;
2. the second declares a degradation floor and is admitted at the
   leftover bandwidth (the session records the renegotiated QoS);
3. the third is background work past the utilization high-watermark
   and is shed outright.

Then a composite (a four-track newscast clip) is refused whole twice:
its source, by an archive disk that can stream only the video track,
and its connection, by a trunk that can carry only two of its tracks.
Each refusal gives back what the tracks before the refused one took.

Afterwards the trunk's and the archive's reservation ledgers read
zero — nothing leaks. For the full multi-client overload harness
(Poisson arrivals, preemption, circuit breakers) see
``python -m repro overload`` and EXPERIMENTS.md Exp. R2.

Run:  python examples/overload_control.py
"""

from repro import AVDatabaseSystem, AttributeSpec, ClassDef, MagneticDisk, Q, VideoValue
from repro.activities.library import Speaker, SubtitleWindow, VideoWindow
from repro.admission import Priority
from repro.errors import AdmissionError
from repro.net import Channel
from repro.synth import moving_scene, newscast_clip


def main() -> None:
    system = AVDatabaseSystem()
    video = moving_scene(num_frames=15, width=64, height=48)
    rate = video.data_rate_bps()
    system.add_storage(
        MagneticDisk(system.simulator, "disk0", bandwidth_bps=rate * 10)
    )
    system.db.define_class(ClassDef("Clip", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("video", VideoValue),
    ]))
    system.store_value(video, "disk0")
    system.db.insert("Clip", title="shared", video=video)

    # One trunk sized for 1.5 streams, shared by every session below.
    trunk = Channel(system.simulator, rate * 1.5, latency_s=0.001,
                    name="trunk")
    system.enable_admission(trunk)
    clip = Q.eq("title", "shared")

    # 1. Full-rate admission while capacity lasts.
    first = system.open_session("first", channel=trunk)
    ref = first.select_one("Clip", clip)
    first.connect(first.new_db_source((ref, "video")),
                  first.new_video_window(name="w1")).start()
    print(f"first:  admitted at full rate ({rate / 1e6:.1f} Mb/s)")

    # 2. The leftover half-stream is below nominal, but the client
    #    declared it would rather degrade than fail.
    second = system.open_session("second", channel=trunk)
    second.connect(second.new_db_source((ref, "video")),
                   second.new_video_window(name="w2"),
                   degrade=True, min_degraded_fraction=0.25).start()
    print(f"second: degraded admission "
          f"({second.degraded_streams} renegotiated stream)")

    # 3. Background work past the high-watermark is shed, not queued.
    third = system.open_session("third", channel=trunk)
    try:
        third.connect(third.new_db_source((ref, "video")),
                      third.new_video_window(name="w3"),
                      priority=Priority.BACKGROUND, degrade=True)
    except AdmissionError as error:
        print(f"third:  shed ({error})")

    system.run()
    for session in (first, second, third):
        session.close()
    metrics = system.metrics
    print(f"admission.admitted = "
          f"{metrics.counter('admission.admitted').value}, "
          f"degraded = {metrics.counter('admission.degraded').value}, "
          f"shed = {metrics.counter('admission.shed').value}")

    # 4. A composite source takes device bandwidth track by track; an
    #    archive disk with room for the video alone refuses the clip whole.
    archive = system.add_storage(
        MagneticDisk(system.simulator, "archive", bandwidth_bps=rate * 2.2)
    )
    archived = newscast_clip(15, 0.5, seed=1)
    news = newscast_clip(15, 0.5, seed=2)
    for composite, device in ((archived, "archive"), (news, "disk0")):
        for track in composite.track_names:
            system.store_value(composite.value(track), device)
    fourth = system.open_session("fourth", channel=trunk)
    try:
        fourth.new_db_source(archived)
    except AdmissionError as error:
        print(f"fourth: composite source refused ({error})")

    # 5. A composite connection takes trunk bandwidth the same way: the
    #    trunk carries the video and one audio track, not the second.
    sim = system.simulator
    sink = fourth.new_multi_sink()
    for track, activity in zip(news.track_names, (
            VideoWindow(sim, name="w4"), Speaker(sim, name="en"),
            Speaker(sim, name="fr"), SubtitleWindow(sim, name="subs"))):
        sink.install(activity, track=track)
    try:
        fourth.connect(fourth.new_db_source(news), sink)
    except AdmissionError as error:
        print(f"fourth: composite connection refused ({error})")
    print(f"reserved after the refusals: trunk {trunk.reserved_bps:.0f} bps, "
          f"archive {archive.reserved_bps:.0f} bps")
    assert trunk.reserved_bps == 0 and archive.reserved_bps == 0
    fourth.close()


if __name__ == "__main__":
    main()
