"""Striped placement: aggregating device bandwidth for hot values."""

import pytest

from repro.activities import ActivityGraph
from repro.activities.library import VideoReader, VideoWindow
from repro.errors import AdmissionError, OutOfSpaceError, PlacementError
from repro.storage import MagneticDisk, PlacementManager
from repro.storage.striping import StripingManager
from repro.synth import moving_scene


def make_pool(sim, bandwidth_factor=0.75, devices=2):
    """Devices each too slow for one full stream, jointly fast enough."""
    video = moving_scene(15, 64, 48)
    rate = video.data_rate_bps()
    placement = PlacementManager(sim)
    for i in range(devices):
        placement.add_device(MagneticDisk(
            sim, f"d{i}", bandwidth_bps=rate * bandwidth_factor
        ))
    return placement, StripingManager(placement), video


class TestPlacement:
    def test_place_allocates_on_every_member(self, sim):
        placement, striping, video = make_pool(sim)
        stripe = striping.place_striped(video, ["d0", "d1"])
        assert stripe.stripe_count == 2
        for name in ("d0", "d1"):
            assert placement.device(name).allocator.used_bytes > 0

    def test_requires_two_distinct_devices(self, sim):
        placement, striping, video = make_pool(sim)
        with pytest.raises(PlacementError, match=">= 2 devices"):
            striping.place_striped(video, ["d0"])
        with pytest.raises(PlacementError, match="distinct"):
            striping.place_striped(video, ["d0", "d0"])

    def test_double_placement_rejected(self, sim):
        placement, striping, video = make_pool(sim)
        striping.place_striped(video, ["d0", "d1"])
        with pytest.raises(PlacementError, match="already placed"):
            striping.place_striped(video, ["d0", "d1"])

    def test_allocation_failure_rolls_back(self, sim):
        placement, striping, video = make_pool(sim)
        # Fill d1 completely so its allocation fails.
        d1 = placement.device("d1")
        d1.allocate(d1.allocator.free_bytes)
        with pytest.raises(OutOfSpaceError):
            striping.place_striped(video, ["d0", "d1"])
        # d0's share was rolled back.
        assert placement.device("d0").allocator.used_bytes == 0

    def test_remove_frees_all_extents(self, sim):
        placement, striping, video = make_pool(sim)
        striping.place_striped(video, ["d0", "d1"])
        striping.remove(video)
        for name in ("d0", "d1"):
            assert placement.device(name).allocator.used_bytes == 0


class TestAdmission:
    def test_single_device_cannot_sustain_but_stripe_can(self, sim):
        """The point of striping: 0.75x devices jointly serve a 1x stream."""
        placement, striping, video = make_pool(sim, bandwidth_factor=0.75)
        # A single device would refuse the full rate...
        assert not placement.device("d0").can_admit(video.data_rate_bps())
        # ...but the stripe admits it.
        striping.place_striped(video, ["d0", "d1"])
        reservation = striping.reserve(video, readahead=1.0)
        assert reservation.bps >= video.data_rate_bps() * 0.99

    def test_saturated_member_fails_all_or_nothing(self, sim):
        placement, striping, video = make_pool(sim, bandwidth_factor=0.75)
        striping.place_striped(video, ["d0", "d1"])
        # Saturate d1 with a foreign stream.
        d1 = placement.device("d1")
        d1.reserve(d1.available_bps)
        with pytest.raises(AdmissionError, match="stripe member"):
            striping.reserve(video)
        # No leaked reservation on d0.
        assert placement.device("d0").reserved_bps == 0

    def test_released_reservation_frees_members(self, sim):
        placement, striping, video = make_pool(sim)
        striping.place_striped(video, ["d0", "d1"])
        reservation = striping.reserve(video, readahead=1.0)
        reservation.release()
        for name in ("d0", "d1"):
            assert placement.device(name).reserved_bps == 0


class TestStripedPlayback:
    def test_real_time_playback_from_stripe(self, sim):
        """End to end: a stream no single device could sustain plays in
        real time from the stripe."""
        placement, striping, video = make_pool(sim, bandwidth_factor=0.75)
        striping.place_striped(video, ["d0", "d1"])
        reservation = striping.reserve(video, readahead=1.4)
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim))
        reader.bind(video)
        reader.io_stream = reservation
        window = graph.add(VideoWindow(sim, keep_payloads=False))
        graph.connect(reader.port("video_out"), window.port("video_in"))
        graph.run_to_completion()
        assert window.elements_consumed == 15
        # The 1.4x read-ahead drains the seek+first-read warmup within a
        # few frames; from then on latency is zero (sustainable stream).
        latencies = [r.latency.seconds for r in window.log.records]
        assert latencies == sorted(latencies, reverse=True)  # monotone catch-up
        steady = latencies[6:]
        assert max(steady) - min(steady) < 0.001
        # Both devices really served bits.
        for name in ("d0", "d1"):
            assert placement.device(name).total_bits_read > 0

    def test_each_device_counter_reads_its_total_bits_read(self, sim):
        placement, striping, video = make_pool(sim, bandwidth_factor=0.75)
        striping.place_striped(video, ["d0", "d1"])
        graph = ActivityGraph(sim)
        reader = graph.add(VideoReader(sim))
        reader.bind(video)
        reader.io_stream = striping.reserve(video, readahead=1.4)
        window = graph.add(VideoWindow(sim, keep_payloads=False))
        graph.connect(reader.port("video_out"), window.port("video_in"))
        graph.run_to_completion()
        for name in ("d0", "d1"):
            device = placement.device(name)
            assert device.total_bits_read > 0
            assert sim.obs.metrics.counter(
                f"storage.device.{name}.bits_read").value \
                == device.total_bits_read
