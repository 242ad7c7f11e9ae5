"""Hypermedia links over the object database (Scenario I)."""

import pytest

from repro.avtime import WorldTime
from repro.db import AttributeSpec, ClassDef, Database
from repro.errors import DatabaseError
from repro.hypermedia import Anchor, HypermediaBase


@pytest.fixture
def db():
    database = Database()
    database.define_class(ClassDef("Document", attributes=[
        AttributeSpec("name", str, indexed=True),
    ]))
    database.define_class(ClassDef("Video", attributes=[
        AttributeSpec("title", str, indexed=True),
    ]))
    return database


@pytest.fixture
def hm(db):
    return HypermediaBase(db)


class TestLinking:
    def test_document_to_video_link(self, db, hm):
        """'links ... the documents describing a project to the video of a
        presentation by the project leader'."""
        doc = db.insert("Document", name="project plan")
        video = db.insert("Video", title="project presentation")
        link = hm.link(doc, Anchor("watch the presentation"), video,
                       media_path="clip.videoTrack", cue=WorldTime(30.0))
        assert link.source == doc
        assert link.target == video
        assert link.media_path == "clip.videoTrack"
        assert link.cue == WorldTime(30.0)

    def test_follow_by_anchor(self, db, hm):
        doc = db.insert("Document", name="d")
        video = db.insert("Video", title="v")
        hm.link(doc, "demo", video)
        followed = hm.follow(doc, "demo")
        assert followed.target == video
        with pytest.raises(DatabaseError, match="no link"):
            hm.follow(doc, "nonexistent anchor")

    def test_links_from_and_backlinks(self, db, hm):
        doc_a = db.insert("Document", name="a")
        doc_b = db.insert("Document", name="b")
        video = db.insert("Video", title="v")
        hm.link(doc_a, "x", video)
        hm.link(doc_b, "y", video)
        assert len(hm.links_from(doc_a)) == 1
        assert {l.source for l in hm.links_to(video)} == {doc_a, doc_b}

    def test_dangling_endpoints_rejected(self, db, hm):
        from repro.db.objects import OID
        doc = db.insert("Document", name="d")
        with pytest.raises(DatabaseError, match="does not exist"):
            hm.link(doc, "x", OID("Video", 404))
        with pytest.raises(DatabaseError, match="does not exist"):
            hm.link(OID("Document", 404), "x", doc)

    def test_unlink(self, db, hm):
        doc = db.insert("Document", name="d")
        video = db.insert("Video", title="v")
        link = hm.link(doc, "x", video)
        db.delete(link.oid)
        assert hm.links_from(doc) == []

    def test_negative_cue_rejected(self, db, hm):
        doc = db.insert("Document", name="d")
        video = db.insert("Video", title="v")
        with pytest.raises(DatabaseError, match="cue"):
            hm.link(doc, "x", video, cue=-1.0)

    def test_empty_anchor_rejected(self):
        with pytest.raises(DatabaseError):
            Anchor("   ")

    def test_links_are_transactional_objects(self, db, hm):
        """Links live in the database: they survive via the same WAL path
        and show up in class queries."""
        doc = db.insert("Document", name="d")
        video = db.insert("Video", title="v")
        hm.link(doc, "x", video)
        from repro.hypermedia.links import LINK_CLASS
        assert len(db.select(LINK_CLASS)) == 1

    def test_link_cue_drives_playback_position(self, db, hm):
        """Following a link yields a cue usable with MediaActivity.cue."""
        from repro.activities import ActivityGraph
        from repro.activities.library import VideoReader, VideoWindow
        from repro.sim import Simulator
        from repro.synth import moving_scene
        doc = db.insert("Document", name="d")
        video_obj = db.insert("Video", title="v")
        hm.link(doc, "jump", video_obj, cue=WorldTime(0.2))
        followed = hm.follow(doc, "jump")

        sim = Simulator()
        video = moving_scene(12, 32, 24)  # 0.4 s at 30 fps
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim))
        reader.bind(video)
        reader.cue(followed.cue)
        window = graph.add(VideoWindow(sim))
        graph.connect(reader.port("video_out"), window.port("video_in"))
        graph.run_to_completion()
        assert len(window.presented) == 6  # frames 6..11
