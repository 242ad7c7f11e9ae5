"""Non-linear editing: clip/cut/splice/mix/dissolve, EDLs, and the §3.3
placement interaction of the Editor facade."""

import numpy as np
import pytest

from repro.codecs import JPEGCodec, MPEGCodec
from repro.editing import (
    EditDecisionList,
    Editor,
    clip_range,
    cut,
    dissolve,
    overlay_mix,
    splice,
)
from repro.errors import DataModelError, PlacementError
from repro.sim import Simulator
from repro.storage import MagneticDisk, PlacementManager
from repro.synth import moving_scene, noise_video
from repro.values import JPEGVideoValue, MPEGVideoValue, RawVideoValue


class TestClipAndCut:
    def test_raw_clip_is_zero_copy_view(self, small_video):
        clipped = clip_range(small_video, 2, 5)
        assert clipped.num_frames == 5
        assert np.shares_memory(clipped.frames_array, small_video.frames_array)
        assert np.array_equal(clipped.frame(0), small_video.frame(2))

    def test_intraframe_clip_slices_chunks(self, small_video):
        encoded = JPEGCodec(80).encode_value(small_video)
        clipped = clip_range(encoded, 3, 4)
        assert isinstance(clipped, JPEGVideoValue)
        assert clipped.num_frames == 4
        assert clipped.chunks[0] is encoded.chunks[3]  # shared chunk objects

    def test_interframe_clip_reencodes_self_contained(self, small_video):
        codec = MPEGCodec(80, gop=5)
        encoded = codec.encode_value(small_video)
        clipped = clip_range(encoded, 3, 4)  # spans a delta-frame region
        assert isinstance(clipped, MPEGVideoValue)
        # First frame must decode standalone (keyframe), close to source.
        error = np.abs(clipped.frame(0).astype(int)
                       - small_video.frame(3).astype(int)).mean()
        assert error < 12.0

    def test_cut_partitions_exactly(self, small_video):
        head, tail = cut(small_video, 4)
        assert head.num_frames == 4
        assert tail.num_frames == 6
        assert np.array_equal(tail.frame(0), small_video.frame(4))

    def test_invalid_ranges(self, small_video):
        with pytest.raises(DataModelError):
            clip_range(small_video, -1, 3)
        with pytest.raises(DataModelError):
            clip_range(small_video, 8, 5)
        with pytest.raises(DataModelError):
            cut(small_video, 0)
        with pytest.raises(DataModelError):
            cut(small_video, 10)


class TestSpliceMixDissolve:
    def test_splice_concatenates(self, small_video, small_noise):
        result = splice([small_video, small_noise])
        assert result.num_frames == 20
        assert np.array_equal(result.frame(10), small_noise.frame(0))

    def test_splice_cut_roundtrip(self, small_video):
        head, tail = cut(small_video, 6)
        rejoined = splice([head, tail])
        assert np.array_equal(rejoined.frames_array, small_video.frames_array)

    def test_splice_rejects_mismatched_geometry(self, small_video):
        other = moving_scene(4, 64, 48)
        with pytest.raises(DataModelError, match="geometry"):
            splice([small_video, other])

    def test_overlay_mix_blends(self):
        a = RawVideoValue(np.full((4, 8, 8), 100, dtype=np.uint8))
        b = RawVideoValue(np.full((4, 8, 8), 200, dtype=np.uint8))
        mixed = overlay_mix(a, b, alpha=0.5)
        assert int(mixed.frame(0)[0, 0]) == 150
        with pytest.raises(DataModelError):
            overlay_mix(a, b, alpha=1.5)

    def test_dissolve_transitions_monotonically(self):
        a = RawVideoValue(np.full((6, 8, 8), 0, dtype=np.uint8))
        b = RawVideoValue(np.full((6, 8, 8), 240, dtype=np.uint8))
        result = dissolve(a, b, transition_frames=4)
        assert result.num_frames == 6 + 6 - 4
        means = [float(result.frame(i).mean()) for i in range(result.num_frames)]
        transition = means[2:6]
        assert transition == sorted(transition)  # ramps up
        assert means[0] == 0.0 and means[-1] == 240.0

    def test_dissolve_longer_than_clips_rejected(self, small_video):
        with pytest.raises(DataModelError, match="exceeds"):
            dissolve(small_video, small_video, transition_frames=11)


class TestEDL:
    def test_program_assembly_and_render(self, small_video, small_noise):
        edl = EditDecisionList()
        edl.append(small_video, 0, 4)
        edl.append(small_noise, 2, 8)
        edl.append(small_video, 6)
        assert edl.total_frames() == 4 + 6 + 4
        program = edl.render()
        assert program.num_frames == 14
        assert np.array_equal(program.frame(4), small_noise.frame(2))

    def test_rearrangement_is_cheap_and_correct(self, small_video, small_noise):
        edl = EditDecisionList()
        edl.append(small_video, 0, 3)
        edl.append(small_noise, 0, 3)
        edl.move(1, 0)  # swap order
        program = edl.render()
        assert np.array_equal(program.frame(0), small_noise.frame(0))

    def test_remove(self, small_video):
        edl = EditDecisionList()
        edl.append(small_video, 0, 5)
        edl.append(small_video, 5, 10)
        edl.remove(0)
        assert len(edl) == 1
        assert edl.total_frames() == 5

    def test_duration(self, small_video):
        edl = EditDecisionList()
        edl.append(small_video)  # 10 frames at 30 fps
        assert edl.duration().seconds == pytest.approx(1 / 3)

    def test_empty_render_rejected(self):
        with pytest.raises(DataModelError, match="empty"):
            EditDecisionList().render()

    def test_segment_validation(self, small_video):
        from repro.editing import Segment
        with pytest.raises(DataModelError):
            Segment(small_video, 5, 5)
        with pytest.raises(DataModelError):
            Segment(small_video, 0, 99)


class TestEditorPlacement:
    def make_env(self, bandwidth_factor=1.5):
        sim = Simulator()
        manager = PlacementManager(sim)
        a = moving_scene(15, 64, 48)
        b = noise_video(15, 64, 48)
        rate = a.data_rate_bps()
        manager.add_device(MagneticDisk(sim, "slow",
                                        bandwidth_bps=rate * bandwidth_factor))
        manager.add_device(MagneticDisk(sim, "spare", bandwidth_bps=rate * 4))
        manager.place(a, "slow")
        manager.place(b, "slow")
        return sim, manager, a, b

    def test_same_device_mix_triggers_copy_fallback(self):
        sim, manager, a, b = self.make_env()
        editor = Editor(manager)
        assert not editor.can_mix_interactively(a, b)
        proc = sim.spawn(editor.mix(a, b))
        outcome = sim.run_until_complete(proc)
        assert outcome.copied
        assert outcome.copy_seconds > 0
        assert outcome.start_delay_seconds >= outcome.copy_seconds
        assert outcome.result.num_frames == 15

    def test_split_placement_mixes_immediately(self):
        sim, manager, a, b = self.make_env()
        # Pre-place b on the spare device: no copy needed.
        proc = sim.spawn(manager.copy(b, "spare"))
        sim.run_until_complete(proc)
        editor = Editor(manager)
        assert editor.can_mix_interactively(a, b)
        start = sim.now.seconds
        proc = sim.spawn(editor.mix(a, b))
        outcome = sim.run_until_complete(proc)
        assert not outcome.copied
        # Start delay is just device positioning, far below a copy.
        assert outcome.start_delay_seconds < 0.1

    def test_each_device_counter_reads_its_total_bits_read(self):
        sim, manager, a, b = self.make_env(bandwidth_factor=5.0)
        sim.run_until_complete(sim.spawn(Editor(manager).mix(a, b)))
        slow = manager.device("slow")
        assert sim.obs.metrics.counter("storage.device.slow.bits_read").value \
            == slow.total_bits_read
        assert slow.total_bits_read \
            == a.data_size_bits() + b.data_size_bits()

    def test_strict_placement_fails_instead_of_copying(self):
        sim, manager, a, b = self.make_env()
        editor = Editor(manager, strict_placement=True)
        proc = sim.spawn(editor.mix(a, b))
        with pytest.raises(PlacementError, match="strict placement"):
            sim.run_until_complete(proc)

    def test_plentiful_bandwidth_needs_no_copy(self):
        sim, manager, a, b = self.make_env(bandwidth_factor=5.0)
        editor = Editor(manager)
        assert editor.can_mix_interactively(a, b)  # same device but fast
        proc = sim.spawn(editor.mix(a, b))
        outcome = sim.run_until_complete(proc)
        assert not outcome.copied
