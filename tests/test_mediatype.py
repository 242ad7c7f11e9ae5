"""Media data types: registry, wildcard acceptance, analog isolation."""

import pytest

from repro.errors import MediaTypeError
from repro.values.mediatype import (
    MediaKind,
    MediaType,
    MediaTypeRegistry,
    STANDARD_TYPES,
    standard_type,
)


class TestRegistry:
    def test_standard_types_present(self):
        for name in ("video/raw", "video/jpeg", "video/mpeg", "video/dvi",
                     "video/ccir601", "video/lv-analog", "audio/pcm",
                     "audio/cd", "audio/mulaw", "audio/adpcm",
                     "text/stream", "image/raster", "midi/events",
                     "geometry/pose"):
            assert name in STANDARD_TYPES

    def test_unknown_type_raises(self):
        with pytest.raises(MediaTypeError, match="unknown media type"):
            standard_type("video/quicktime")

    def test_duplicate_registration_rejected(self):
        registry = MediaTypeRegistry()
        mt = MediaType("x/y", MediaKind.VIDEO, "y")
        registry.register(mt)
        with pytest.raises(MediaTypeError, match="already registered"):
            registry.register(MediaType("x/y", MediaKind.VIDEO, "y"))

    def test_iteration_and_len(self):
        assert len(STANDARD_TYPES) >= 14
        assert all(isinstance(t, MediaType) for t in STANDARD_TYPES)


class TestCompatibility:
    def test_exact_match_accepts(self):
        jpeg = standard_type("video/jpeg")
        assert jpeg.accepts(jpeg)

    def test_wildcard_accepts_same_kind(self):
        any_video = standard_type("video/*")
        assert any_video.accepts(standard_type("video/jpeg"))
        assert any_video.accepts(standard_type("video/raw"))

    def test_wildcard_rejects_other_kind(self):
        any_video = standard_type("video/*")
        assert not any_video.accepts(standard_type("audio/pcm"))

    def test_concrete_rejects_different_encoding(self):
        assert not standard_type("video/jpeg").accepts(standard_type("video/mpeg"))
        assert not standard_type("video/raw").accepts(standard_type("video/jpeg"))

    def test_analog_never_matches_wildcard(self):
        # Analog values must pass through a digitizer, not a generic port.
        any_video = standard_type("video/*")
        assert not any_video.accepts(standard_type("video/lv-analog"))

    def test_analog_exact_match_still_works(self):
        lv = standard_type("video/lv-analog")
        assert lv.accepts(lv)

    def test_compressed_flags(self):
        assert standard_type("video/jpeg").compressed
        assert standard_type("video/mpeg").compressed
        assert not standard_type("video/raw").compressed
        assert not standard_type("audio/cd").compressed

    def test_native_rates(self):
        assert standard_type("audio/cd").native_rate == 44100.0
        assert standard_type("video/mpeg").native_rate is None  # spans a range
