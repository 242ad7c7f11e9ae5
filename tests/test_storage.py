"""Storage substrate: extents, device models, placement, the copy fallback."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AdmissionError,
    FaultError,
    OutOfSpaceError,
    PlacementError,
    StorageError,
)
from repro.avtime import WorldTime
from repro.storage import (
    ExtentAllocator,
    JukeboxDevice,
    MagneticDisk,
    PlacementManager,
    WritableCD,
)
from repro.synth import moving_scene


class TestExtentAllocator:
    def test_first_fit_and_exhaustion(self):
        allocator = ExtentAllocator("d", 100)
        a = allocator.allocate(60)
        b = allocator.allocate(40)
        assert a.offset == 0 and b.offset == 60
        with pytest.raises(OutOfSpaceError):
            allocator.allocate(1)

    def test_free_coalesces_neighbours(self):
        allocator = ExtentAllocator("d", 100)
        a = allocator.allocate(30)
        b = allocator.allocate(30)
        c = allocator.allocate(30)
        allocator.free(a)
        allocator.free(c)
        assert allocator.largest_free_extent == 40  # tail gap 90..100 + c
        allocator.free(b)
        assert allocator.largest_free_extent == 100  # fully coalesced

    def test_fragmentation_blocks_large_allocations(self):
        allocator = ExtentAllocator("d", 100)
        extents = [allocator.allocate(10) for _ in range(10)]
        for extent in extents[1::2]:  # free the odd slots afterwards
            allocator.free(extent)
        # 50 bytes free but fragmented into alternating 10-byte holes.
        assert allocator.free_bytes == 50
        assert allocator.largest_free_extent == 10
        with pytest.raises(OutOfSpaceError):
            allocator.allocate(20)

    def test_double_free_rejected(self):
        allocator = ExtentAllocator("d", 100)
        extent = allocator.allocate(10)
        allocator.free(extent)
        with pytest.raises(StorageError, match="not allocated"):
            allocator.free(extent)

    def test_invalid_sizes(self):
        with pytest.raises(StorageError):
            ExtentAllocator("d", 0)
        allocator = ExtentAllocator("d", 100)
        with pytest.raises(StorageError):
            allocator.allocate(0)

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_alloc_free_conservation(self, sizes):
        """Allocating then freeing everything restores full capacity."""
        allocator = ExtentAllocator("d", 1000)
        extents = []
        for size in sizes:
            try:
                extents.append(allocator.allocate(size))
            except OutOfSpaceError:
                break
        assert allocator.used_bytes == sum(e.length for e in extents)
        for extent in extents:
            allocator.free(extent)
        assert allocator.free_bytes == 1000
        assert allocator.largest_free_extent == 1000

    @given(st.lists(st.integers(1, 50), min_size=2, max_size=20))
    @settings(max_examples=50)
    def test_no_overlapping_extents(self, sizes):
        allocator = ExtentAllocator("d", 2000)
        extents = []
        for size in sizes:
            try:
                extents.append(allocator.allocate(size))
            except OutOfSpaceError:
                break
        spans = sorted((e.offset, e.end) for e in extents)
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b


class TestDevices:
    def test_streaming_admission(self, sim):
        disk = MagneticDisk(sim, bandwidth_bps=10_000_000)
        r1 = disk.reserve(6_000_000)
        assert disk.available_bps == pytest.approx(4_000_000)
        with pytest.raises(AdmissionError):
            disk.reserve(5_000_000)
        r1.release()
        disk.reserve(5_000_000)  # now fits
        assert disk.admission_failures == 1

    def test_reserved_bps_memo_equals_the_sum_after_every_change(self, sim):
        disk = MagneticDisk(sim, bandwidth_bps=10e6)
        assert disk.reserved_bps == 0 and type(disk.reserved_bps) is int
        rng = random.Random(0)
        held = []
        for _ in range(4_000):
            if held and rng.random() < 0.5:
                held.pop(rng.randrange(len(held))).release()
            else:
                try:
                    held.append(disk.reserve(rng.uniform(0.05e6, 1.7e6)))
                except AdmissionError:
                    pass
            assert disk.reserved_bps == sum(
                r.bps for r in disk._reservations.values())
        assert disk.admission_failures > 50 and held

    def test_read_pays_seek_then_transfer(self, sim):
        disk = MagneticDisk(sim, bandwidth_bps=1_000_000, seek_s=0.5)
        reservation = disk.reserve(1_000_000)

        def reader():
            yield from reservation.read(1_000_000)  # 1 s at reserved rate

        proc = sim.spawn(reader())
        sim.run_until_complete(proc)
        assert sim.now.seconds == pytest.approx(1.5)  # 0.5 seek + 1.0 transfer
        assert disk.total_bits_read == 1_000_000

    def test_released_reservation_unusable(self, sim):
        disk = MagneticDisk(sim)
        reservation = disk.reserve(1000)
        reservation.release()

        def reader():
            yield from reservation.read(100)

        sim.spawn(reader())
        with pytest.raises(StorageError, match="released"):
            sim.run()

    def test_cd_slower_than_disk(self, sim):
        disk, cd = MagneticDisk(sim), WritableCD(sim)
        assert cd.bandwidth_bps < disk.bandwidth_bps / 5
        assert cd.seek_s > disk.seek_s

    def test_jukebox_single_stream(self, sim):
        jukebox = JukeboxDevice(sim)
        jukebox.reserve(1000)
        with pytest.raises(AdmissionError, match="one stream"):
            jukebox.reserve(1000)

    def test_jukebox_disc_swap_latency(self, sim):
        jukebox = JukeboxDevice(sim, swap_s=5.0, seek_s=0.5)
        jukebox.load_disc(3)
        reservation = jukebox.reserve(1_000_000)

        def reader():
            yield from reservation.read(0)

        proc = sim.spawn(reader())
        sim.run_until_complete(proc)
        assert sim.now.seconds == pytest.approx(5.5)  # swap + seek
        assert jukebox.load_disc(3) == 0.0  # already loaded
        assert jukebox.load_disc(4) == 5.0
        with pytest.raises(StorageError):
            jukebox.load_disc(1000)


class TestPlacement:
    def make_pool(self, sim):
        manager = PlacementManager(sim)
        manager.add_device(MagneticDisk(sim, "d0", bandwidth_bps=20_000_000))
        manager.add_device(MagneticDisk(sim, "d1", bandwidth_bps=20_000_000))
        return manager

    def test_place_and_lookup(self, sim):
        manager = self.make_pool(sim)
        video = moving_scene(10)
        manager.place(video, "d0")
        assert manager.device_of(video).name == "d0"
        assert manager.is_placed(video)

    def test_double_place_rejected(self, sim):
        manager = self.make_pool(sim)
        video = moving_scene(10)
        manager.place(video, "d0")
        with pytest.raises(PlacementError, match="already placed"):
            manager.place(video, "d1")

    def test_auto_place_picks_most_free(self, sim):
        manager = self.make_pool(sim)
        filler = moving_scene(10)
        manager.place(filler, "d0")
        video = moving_scene(10, seed=5)
        placement = manager.place_auto(video)
        assert placement.device_name == "d1"

    def test_co_location_and_stream_admission(self, sim):
        manager = PlacementManager(sim)
        # Device that can stream exactly one raw clip in real time.
        video_a = moving_scene(10, 64, 48)
        video_b = moving_scene(10, 64, 48, seed=9)
        rate = video_a.data_rate_bps()
        manager.add_device(MagneticDisk(sim, "slow", bandwidth_bps=rate * 1.5))
        manager.add_device(MagneticDisk(sim, "other", bandwidth_bps=rate * 4))
        manager.place(video_a, "slow")
        manager.place(video_b, "slow")
        assert manager.device_of(video_a) is manager.device_of(video_b)
        assert not manager.can_stream_together([video_a, video_b])
        # Split placement fixes admission — the §3.3 resolution.
        proc = sim.spawn(manager.copy(video_b, "other"))
        sim.run_until_complete(proc)
        assert manager.device_of(video_b).name == "other"
        assert manager.can_stream_together([video_a, video_b])
        assert sim.now.seconds > 0  # the copy took real (virtual) time

    def test_copy_frees_source_extent(self, sim):
        manager = self.make_pool(sim)
        video = moving_scene(10)
        manager.place(video, "d0")
        used_before = manager.device("d0").allocator.used_bytes
        proc = sim.spawn(manager.copy(video, "d1"))
        sim.run_until_complete(proc)
        assert manager.device("d0").allocator.used_bytes < used_before
        assert manager.copy_count == 1

    def test_copy_interrupted_mid_transfer_releases_destination(self, sim):
        """A fault during the copy must not leak the destination extent."""
        manager = self.make_pool(sim)
        video = moving_scene(10)
        manager.place(video, "d0")
        src_used = manager.device("d0").allocator.used_bytes
        proc = sim.spawn(manager.copy(video, "d1"))
        # Inject a fault while the transfer is in flight (after the
        # 15 ms seek, before the ~27 ms copy completes).
        sim.schedule_at(WorldTime(0.02),
                        lambda: proc.interrupt(FaultError("mid-copy fault")))
        sim.run()
        assert manager.device("d1").allocator.used_bytes == 0  # no leak
        assert manager.device("d0").allocator.used_bytes == src_used
        assert manager.device_of(video).name == "d0"  # placement untouched
        assert manager.copy_count == 0
        # Both sides' bandwidth reservations were released too.
        assert manager.device("d0").reserved_bps == 0
        assert manager.device("d1").reserved_bps == 0

    def test_copy_to_same_device_rejected(self, sim):
        manager = self.make_pool(sim)
        video = moving_scene(10)
        manager.place(video, "d0")
        with pytest.raises(PlacementError, match="already resides"):
            next(manager.copy(video, "d0"))

    def test_remove_frees_space(self, sim):
        manager = self.make_pool(sim)
        video = moving_scene(10)
        manager.place(video, "d0")
        manager.remove(video)
        assert not manager.is_placed(video)
        assert manager.device("d0").allocator.used_bytes == 0

    def test_pick_device_for_copy_avoids_source(self, sim):
        manager = self.make_pool(sim)
        video = moving_scene(10)
        manager.place(video, "d0")
        target = manager.pick_device_for_copy(video, avoid="d0")
        assert target.name == "d1"

    def test_unplaced_value_errors(self, sim):
        manager = self.make_pool(sim)
        with pytest.raises(PlacementError, match="no placement"):
            manager.device_of(moving_scene(2))
