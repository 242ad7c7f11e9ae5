"""A newsroom's day against the AV database — the extension features.

Builds on Scenario I with the capabilities the paper's survey section
wishes for but 1993 systems lacked:

1. per-class access control (the "security ... never really addressed"
   gap of §2) for chief / producer / intern roles: the intern reads, the
   producer retitles and retires footage, the chief revokes;
2. live capture recorded through an MPEG encoder into the archive;
3. textual queries in the paper's own ``select ... where`` syntax;
4. REDI-style query-by-example over a feature index ("avoid retrieval
   and processing of the originals");
5. striped placement to stream a hot clip no single disk could sustain.

Run:  python examples/newsroom_workflow.py
"""

from repro import AVDatabaseSystem, AttributeSpec, ClassDef, MagneticDisk, Q
from repro.activities import ActivityGraph
from repro.activities.library import VideoReader, VideoWindow
from repro.activities.live import LiveCamera
from repro.codecs import MPEGCodec
from repro.db.access import AccessController, AccessDeniedError, GuardedDatabase, Permission
from repro.retrieval import SimilarityRetrieval
from repro.storage.striping import StripingManager
from repro.synth import flat_video, moving_scene, noise_video
from repro.values import VideoValue


def main() -> None:
    system = AVDatabaseSystem()
    system.add_storage(MagneticDisk(system.simulator, "archive-0"))
    system.add_storage(MagneticDisk(system.simulator, "archive-1"))
    system.db.define_class(ClassDef("Footage", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("kind", str, indexed=True),
        AttributeSpec("keywords", list, keyword_indexed=True),
        AttributeSpec("video", VideoValue),
    ]))

    # -- 1. roles ----------------------------------------------------------
    control = AccessController()
    control.grant("chief", "*", Permission.READ | Permission.WRITE | Permission.ADMIN)
    control.grant("producer", "Footage", Permission.READ | Permission.WRITE,
                  granted_by="chief")
    control.grant("intern", "Footage", Permission.READ, granted_by="chief")
    producer_db = GuardedDatabase(system.db, control, "producer")
    intern_db = GuardedDatabase(system.db, control, "intern")
    try:
        intern_db.insert("Footage", title="forged")
    except AccessDeniedError as error:
        print(f"access control works: {error}")

    # -- 2. live capture into the archive -------------------------------
    session = system.open_session("studio-floor")
    camera = session.new_activity(LiveCamera(
        system.simulator, width=64, height=48, rate=30.0, max_elements=24,
    ))
    recording = session.record(camera, codec=MPEGCodec(80, gop=6),
                               geometry=(64, 48, 8))
    recording.start()
    session.run()
    oid, captured = recording.store("Footage", "video", device="archive-0",
                                    title="studio feed", kind="live")
    print(f"recorded {captured.num_frames} frames from the studio camera "
          f"as {captured.media_type.name} -> {oid}")

    # -- 3. archive some library footage, query textually -----------------
    retrieval = SimilarityRetrieval(system.db, sample_every=3)
    retrieval.ingest(oid, "video")
    library = {
        "weather map": flat_video(18, 64, 48, level=70),
        "stadium crowd": noise_video(18, 64, 48, seed=4),
        "city traffic": moving_scene(18, 64, 48, seed=9),
    }
    refs = {}
    for title, video in library.items():
        system.store_value(video, "archive-1")
        refs[title] = producer_db.insert("Footage", title=title, kind="stock",
                                         keywords=title.split(), video=video)
        retrieval.ingest(refs[title], "video")
    hits = system.db.query('select Footage where kind = "stock"')
    print(f"textual query found {len(hits)} stock clips")

    # -- 4. query by example ----------------------------------------------
    example = moving_scene(1, 64, 48, seed=10).frame(0)  # looks like traffic
    matches = retrieval.query_by_example(example, limit=2)
    best = system.db.get(matches[0].ref)
    print(f"query-by-example: best match is {best.title!r} "
          f"(distance {matches[0].distance:.3f})")

    # -- the desk: the intern reads, the producer edits, the chief revokes --
    stock = intern_db.select("Footage", Q.eq("kind", "stock"))
    print(f"intern sees {len(stock)} stock clips, first "
          f"{intern_db.get(stock[0]).title!r}")
    producer_db.update(refs["city traffic"], title="city traffic (dusk)")
    # Retiring a clip deletes its object, forgets its features and frees
    # its disk extent.
    archive = system.placement.device("archive-1")
    free_before = archive.free_bytes
    producer_db.delete(refs["weather map"])
    retrieval.forget(refs["weather map"], "video")
    system.placement.remove(library["weather map"])
    print(f"producer retitled one clip and retired another; "
          f"{len(system.db.select('Footage', Q.contains('keywords', 'map')))} "
          f"clips still tagged 'map', "
          f"{archive.free_bytes - free_before:,} bytes freed on archive-1")
    control.revoke("intern", "Footage", Permission.READ, revoked_by="chief")
    try:
        intern_db.get(stock[0])
    except AccessDeniedError:
        print(f"chief revoked the intern's read; intern now holds "
              f"{control.permissions_of('intern')}")

    # -- 5. striping a hot clip across both archive disks ------------------
    hot = moving_scene(30, 128, 96)  # too fast for either disk alone?
    rate = hot.data_rate_bps()
    slow_disks = [
        MagneticDisk(system.simulator, f"slow-{i}", bandwidth_bps=rate * 0.7)
        for i in range(2)
    ]
    for disk in slow_disks:
        system.placement.add_device(disk)
    striping = StripingManager(system.placement)
    striping.place_striped(hot, ["slow-0", "slow-1"])
    print(f"hot clip needs {rate / 1e6:.1f} Mb/s; each slow disk offers "
          f"{slow_disks[0].bandwidth_bps / 1e6:.1f} Mb/s -> striped across both")
    reservation = striping.reserve(hot, readahead=1.3)
    graph = ActivityGraph(system.simulator, "hot-playback")
    reader = graph.add(VideoReader(system.simulator, name="hot-reader"))
    reader.bind(hot)
    reader.io_stream = reservation
    window = graph.add(VideoWindow(system.simulator, name="hot-window",
                                   keep_payloads=False))
    graph.connect(reader.port("video_out"), window.port("video_in"))
    graph.run_to_completion()
    print(f"striped playback presented {window.elements_consumed} frames; "
          f"disk shares: "
          + ", ".join(f"{d.name}={d.total_bits_read // 8:,}B" for d in slow_disks))
    striping.remove(hot)  # the clip has cooled: its stripes are dropped
    print("stripes dropped; slow disks free again: "
          + ", ".join(f"{d.name}={d.free_bytes:,}B" for d in slow_disks))


if __name__ == "__main__":
    main()
