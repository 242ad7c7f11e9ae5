"""Scenario I — the corporate AV database (paper §3.2).

"A professional in-house production group prepares product announcements
and other promotional videos.  Important project presentations ... are
also recorded and edited.  Various public broadcasts are captured and
archived.  The entire video collection is managed by an AV database
system.  The video material is accessible through a hypermedia interface
... Users modify the database, either through the hypermedia interface or
other specialized applications such as workstation-based video editors."

This example exercises that whole workflow end to end:

1. schema definition with a tcomp (the Newscast class);
2. archiving captured broadcasts under transactions;
3. hypermedia links from project documents into the video collection;
4. non-linear editing of a promotional video (EDL) and a derivation
   record connecting the cut to its master;
5. a synchronized composite playback session;
6. durability: checkpoint, 'crash', recovery.

Run:  python examples/corporate_av_database.py
"""

import shutil
import tempfile

from repro import AVDatabaseSystem, AttributeSpec, ClassDef, Database, MagneticDisk, Q
from repro.activities.library import Speaker, SubtitleWindow, VideoWindow
from repro.avtime import WorldTime
from repro.codecs import MPEGCodec
from repro.editing import EditDecisionList
from repro.hypermedia import Anchor, HypermediaBase
from repro.synth import NEWSCAST_CLIP_SPEC, newscast_clip
from repro.values import VideoValue


def define_schema(db) -> None:
    db.define_class(ClassDef("Document", attributes=[
        AttributeSpec("name", str, indexed=True),
        AttributeSpec("body", str),
    ]))
    db.define_class(ClassDef("Newscast", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("broadcastSource", str),
        AttributeSpec("keywords", list, keyword_indexed=True),
        AttributeSpec("whenBroadcast", str, indexed=True),
    ], tcomps=[NEWSCAST_CLIP_SPEC]))
    db.define_class(ClassDef("PromoVideo", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("video", VideoValue),
        AttributeSpec("status", str),
    ]))


def archive_broadcasts(system) -> list:
    """Capture three nightly broadcasts in one transaction each."""
    oids = []
    for day in ("1992-11-01", "1992-11-02", "1992-11-03"):
        clip = newscast_clip(video_frames=20, audio_seconds=0.7,
                             seed=sum(map(ord, day)) % 100)
        for track in clip.track_names:
            system.store_value(clip.value(track))
        with system.db.begin() as tx:
            oid = tx.insert("Newscast", title="Evening News",
                            broadcastSource="Channel 4",
                            keywords=["news", "evening", day],
                            whenBroadcast=day, clip=clip)
        oids.append(oid)
    return oids


def main() -> None:
    directory = tempfile.mkdtemp(prefix="corporate-avdb-")
    try:
        system = AVDatabaseSystem(database=Database(directory))
        system.add_storage(MagneticDisk(system.simulator, "archive-disk"))
        system.add_storage(MagneticDisk(system.simulator, "production-disk"))
        define_schema(system.db)

        # -- archive captured broadcasts -------------------------------
        broadcasts = archive_broadcasts(system)
        print(f"archived {len(broadcasts)} broadcasts")
        hits = system.db.select("Newscast", Q.contains("keywords", "news"))
        print(f"keyword query 'news' -> {len(hits)} newscasts")

        # -- production: edit a promo from the first broadcast ------------
        master_clip = system.db.get(broadcasts[0]).clip.value("videoTrack")
        edl = EditDecisionList()
        edl.append(master_clip, 2, 10)   # the good take
        edl.append(master_clip, 14, 20)  # the closing shot
        promo = edl.render()
        encoded_promo = MPEGCodec(80).encode_value(promo)
        system.store_value(encoded_promo, "production-disk")
        promo_oid = system.db.insert("PromoVideo", title="Product Announcement",
                                     video=encoded_promo, status="rough-cut")
        print(f"promo rendered: {promo.num_frames} frames, stored as "
              f"{encoded_promo.media_type.name} "
              f"({encoded_promo.compression_ratio():.1f}x compression)")

        # -- hypermedia: link the project plan to the footage -------------
        hypermedia = HypermediaBase(system.db)
        plan = system.db.insert("Document", name="Launch Plan",
                                body="The announcement builds on the "
                                     "Nov 1 evening broadcast.")
        hypermedia.link(plan, Anchor("Nov 1 evening broadcast"),
                        broadcasts[0], media_path="clip.videoTrack",
                        cue=WorldTime(0.1))
        hypermedia.link(plan, Anchor("the announcement"), promo_oid,
                        media_path="video")
        print(f"linked document {plan} to the archive "
              f"({len(hypermedia.links_from(plan))} links)")
        cited_by = [str(link.source) for link in hypermedia.links_to(promo_oid)]
        print(f"documents citing the promo: {cited_by}")

        # -- a user follows a link and watches, synchronized --------------
        session = system.open_session("hypermedia-browser")
        link = hypermedia.follow(plan, "Nov 1 evening broadcast")
        source = system.make_multisource(session.fetch(link.target).clip)
        source.cue(link.cue)
        sink = session.new_multi_sink()
        sink.install(VideoWindow(system.simulator, name="viewer",
                                 keep_payloads=False), track="videoTrack")
        sink.install(Speaker(system.simulator, name="speaker",
                             keep_payloads=False), track="englishTrack")
        sink.install(Speaker(system.simulator, name="speaker-fr",
                             keep_payloads=False), track="frenchTrack")
        sink.install(SubtitleWindow(system.simulator, name="captions"),
                     track="subtitleTrack")
        stream = session.connect(source, sink)
        stream.start()
        session.run()
        viewer = sink.components["viewer"]
        print(f"playback from link cue {link.cue.seconds:.1f}s: "
              f"{viewer.elements_consumed} frames, "
              f"max sync skew {source.max_skew() * 1000:.2f} ms")

        # -- durability: checkpoint, 'crash', recover ----------------------
        system.db.checkpoint()
        system.db.update(promo_oid, status="approved")
        system.db.close()  # the 'crash' boundary: nothing flushed beyond WAL

        recovered = Database(directory)
        define_schema(recovered)
        HypermediaBase(recovered)  # re-register the link class
        recovered.rebuild_indexes()
        promo_after = recovered.get(promo_oid)
        print(f"after recovery: promo status = {promo_after.status!r}, "
              f"{len(recovered)} objects restored "
              f"({recovered._store.recovered_records} WAL records replayed)")
        recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
