"""Quality factors and representation negotiation (paper §3.3, §4.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import QualityError
from repro.quality import (
    AUDIO_QUALITIES,
    Negotiator,
    VideoQuality,
    parse_quality,
    scale_video_quality,
)


class TestVideoQuality:
    def test_paper_syntax_parses(self):
        """The paper's literal examples: '640 x 480 x 8 @ 30', '320x240x8@30'."""
        q1 = parse_quality("640 x 480 x 8 @ 30")
        assert (q1.width, q1.height, q1.depth, q1.rate) == (640, 480, 8, 30.0)
        q2 = parse_quality("320x240x8@30")
        assert (q2.width, q2.height) == (320, 240)

    def test_malformed_rejected(self):
        for bad in ("640x480@30", "640x480x8", "x@x", "640x480x9@30"):
            with pytest.raises(QualityError):
                parse_quality(bad)

    def test_str_roundtrip(self):
        q = VideoQuality(640, 480, 8, 30.0)
        assert VideoQuality.parse(str(q)) == q

    def test_raw_bps(self):
        q = VideoQuality(640, 480, 8, 30.0)
        assert q.raw_bps == 640 * 480 * 8 * 30

    def test_dominates_partial_order(self):
        big = VideoQuality(640, 480, 8, 30.0)
        small = VideoQuality(320, 240, 8, 15.0)
        assert big.dominates(small)
        assert not small.dominates(big)
        # Incomparable: more pixels but lower rate.
        odd = VideoQuality(1280, 960, 8, 5.0)
        assert not big.dominates(odd)
        assert not odd.dominates(big)

    def test_total_order_by_raw_rate(self):
        qualities = [VideoQuality(640, 480, 8, 30.0), VideoQuality(320, 240, 8, 30.0),
                     VideoQuality(160, 120, 8, 15.0)]
        assert sorted(qualities)[0].width == 160


class TestAudioQuality:
    def test_named_levels(self):
        """The paper's voice / FM / CD quality names."""
        assert parse_quality("voice").sample_rate == 8000.0
        assert parse_quality("FM-quality").sample_rate == 22050.0
        cd = parse_quality("CD")
        assert cd.sample_rate == 44100.0 and cd.channels == 2

    def test_ordering(self):
        assert AUDIO_QUALITIES["voice"] < AUDIO_QUALITIES["fm"] < AUDIO_QUALITIES["cd"]

    def test_dominates(self):
        assert AUDIO_QUALITIES["cd"].dominates(AUDIO_QUALITIES["voice"])
        assert not AUDIO_QUALITIES["voice"].dominates(AUDIO_QUALITIES["cd"])

    def test_unknown_name_rejected(self):
        with pytest.raises(QualityError):
            parse_quality("studio")


def test_qualities_order_only_among_their_kind():
    video, audio = parse_quality("320x240x8@30"), AUDIO_QUALITIES["cd"]
    with pytest.raises(TypeError):
        video < audio
    with pytest.raises(TypeError):
        audio < video


class TestNegotiator:
    def test_video_plan_prefers_compression(self):
        plan = Negotiator().plan(VideoQuality(320, 240, 8, 30.0))
        assert plan.representation.codec_name == "mpeg"
        assert plan.storage_bps < VideoQuality(320, 240, 8, 30.0).raw_bps

    def test_video_plan_raw_when_preferred_and_budget_allows(self):
        quality = VideoQuality(64, 48, 8, 10.0)
        plan = Negotiator(prefer_compressed=False).plan(quality)
        assert plan.representation.codec_name == "raw"
        assert plan.decode_cost == 1.0

    def test_budget_forces_compression(self):
        quality = VideoQuality(320, 240, 8, 30.0)
        raw_bps = quality.raw_bps
        plan = Negotiator(prefer_compressed=False).plan(
            quality, bandwidth_budget_bps=raw_bps / 3
        )
        assert plan.representation.codec_name != "raw"
        assert plan.bandwidth_bps <= raw_bps / 3

    def test_impossible_budget_fails(self):
        with pytest.raises(QualityError, match="no video representation"):
            Negotiator().plan(VideoQuality(640, 480, 24, 30.0),
                              bandwidth_budget_bps=100.0)

    def test_audio_plans(self):
        voice = Negotiator().plan(AUDIO_QUALITIES["voice"])
        assert voice.representation.codec_name == "mulaw"
        cd = Negotiator().plan(AUDIO_QUALITIES["cd"])
        assert cd.representation.media_type_name == "audio/cd"

    def test_audio_budget_enforced(self):
        with pytest.raises(QualityError):
            Negotiator().plan(AUDIO_QUALITIES["cd"], bandwidth_budget_bps=1000.0)

    def test_plan_params_carry_geometry(self):
        plan = Negotiator().plan(VideoQuality(320, 240, 8, 30.0))
        params = plan.representation.params_dict()
        assert params["width"] == 320 and params["rate"] == 30.0


class TestScalableVideo:
    def test_downscale_by_frame_dropping_and_subsampling(self):
        stored = VideoQuality(640, 480, 8, 30.0)
        requested = VideoQuality(320, 240, 8, 15.0)
        plan = scale_video_quality(stored, requested)
        assert plan.frame_keep_every == 2
        assert plan.spatial_divisor == 2
        assert plan.delivered.width == 320
        assert plan.delivered.rate == 15.0

    def test_requesting_higher_serves_stored(self):
        """Upscaling 'does not add information': stored is delivered as-is."""
        stored = VideoQuality(320, 240, 8, 15.0)
        plan = scale_video_quality(stored, VideoQuality(640, 480, 8, 30.0))
        assert plan.frame_keep_every == 1
        assert plan.spatial_divisor == 1
        assert plan.delivered == stored

    def test_delivered_never_exceeds_requested_rate_much(self):
        stored = VideoQuality(640, 480, 8, 30.0)
        plan = scale_video_quality(stored, VideoQuality(640, 480, 8, 10.0))
        assert plan.frame_keep_every == 3
        assert plan.delivered.rate == pytest.approx(10.0)

    @given(st.sampled_from([15.0, 30.0, 60.0]), st.sampled_from([1, 2, 4]),
           st.sampled_from([160, 320, 640]))
    def test_scaling_is_data_dropping_only(self, rate, divisor, width):
        """Delivered quality never exceeds stored in any dimension."""
        stored = VideoQuality(width, width * 3 // 4, 8, rate)
        requested = VideoQuality(width // divisor, (width * 3 // 4) // divisor,
                                 8, rate / divisor)
        plan = scale_video_quality(stored, requested)
        assert stored.dominates(plan.delivered)
