"""Quickstart: store a video in an AV database and play it back.

Covers the core loop of the framework in ~40 lines: create a system with
a storage device, store a value (client-visible placement), open a client
session, query by attribute, build the Fig. 3 source -> window stream
across the database/application channel, and run it in virtual time.

Run:  python examples/quickstart.py
"""

from repro import AVDatabaseSystem, AttributeSpec, ClassDef, MagneticDisk, Q, VideoValue
from repro.activities import EVENT_LAST_FRAME
from repro.synth import moving_scene


def main() -> None:
    # 1. An AV database system with one storage device.
    system = AVDatabaseSystem()
    system.add_storage(MagneticDisk(system.simulator, "disk0"))

    # 2. A schema with a video-valued attribute, and one stored object.
    system.db.define_class(ClassDef("Clip", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("video", VideoValue),
    ]))
    video = moving_scene(num_frames=30, width=64, height=48)
    system.store_value(video, "disk0")  # data placement is client-visible
    system.db.insert("Clip", title="demo reel", video=video)

    # 3. A client session: query (returns references), wire the stream.
    session = system.open_session("quickstart-app")
    clip_ref = session.select_one("Clip", Q.eq("title", "demo reel"))
    print(f"query returned a reference: {clip_ref}")

    source = session.new_db_source((clip_ref, "video"))
    window = session.new_video_window("320x240x8@30")
    stream = session.connect(source, window)

    # 4. Ask to be notified asynchronously, then start and run.
    session.notify_on(source, EVENT_LAST_FRAME)
    stream.start()
    end = session.run()
    (last,) = session.notifications_for(source)
    print(f"last frame ({last.payload}) produced at {last.at.seconds:.3f}s")

    print(f"presented {len(window.presented)} frames "
          f"in {end.seconds:.3f}s of virtual time")
    print(f"transferred {stream.bits_transferred / 8 / 1024:.1f} KiB "
          f"over {session.channel.name}")
    print(f"mean presentation latency: {window.log.mean_latency() * 1000:.2f} ms")


if __name__ == "__main__":
    main()
