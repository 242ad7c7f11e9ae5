"""The 3D rendering substrate and the Fig. 4 virtual-world configurations."""

import numpy as np
import pytest

from repro.codecs import MPEGCodec
from repro.errors import MediaTypeError, RenderError
from repro.render import (
    CameraPath,
    CameraPose,
    MoveSource,
    Rasterizer,
    RenderActivity,
    Scene,
    client_side_rendering,
    database_side_rendering,
    museum_room,
    walk_path,
)
from repro.synth import moving_scene


class TestCameraPath:
    def test_walk_path_interpolates(self):
        path = walk_path(steps=5, start=(0, 1, -10), end=(0, 1, -2))
        assert path.element_count == 5
        assert path.pose(0).z == -10
        assert path.pose(4).z == -2
        assert path.pose(2).z == pytest.approx(-6)

    def test_media_value_interface(self):
        path = walk_path(steps=30)
        assert path.media_type.name == "geometry/pose"
        assert path.duration.seconds == pytest.approx(1.0)

    def test_empty_path_rejected(self):
        with pytest.raises(RenderError):
            CameraPath([])
        with pytest.raises(RenderError):
            walk_path(steps=0)

    def test_basis_orthonormal(self):
        pose = CameraPose(1, 2, 3, yaw=0.7, pitch=0.2)
        right, up, forward = pose.basis()
        for v in (right, up, forward):
            assert np.linalg.norm(v) == pytest.approx(1.0)
        assert abs(right @ forward) < 1e-9


class TestRasterizer:
    def test_renders_scene_content(self):
        scene = museum_room()
        rasterizer = Rasterizer(80, 60)
        frame = rasterizer.render(scene, CameraPose(0, 1.6, -6))
        assert frame.shape == (60, 80)
        # The scene fills most of the view: not just background.
        assert (frame != scene.background).mean() > 0.3

    def test_video_texture_appears_on_wall(self):
        scene = museum_room()
        rasterizer = Rasterizer(80, 60)
        bright = np.full((48, 64), 250, dtype=np.uint8)
        dark = np.full((48, 64), 5, dtype=np.uint8)
        pose = CameraPose(0, 1.6, -4)
        frame_bright = rasterizer.render(scene, pose, bright)
        frame_dark = rasterizer.render(scene, pose, dark)
        # Same geometry, different texture: frames must differ on the wall.
        assert (frame_bright.astype(int) - frame_dark.astype(int)).max() > 200

    def test_moving_camera_changes_view(self):
        scene = museum_room()
        rasterizer = Rasterizer(64, 48)
        far = rasterizer.render(scene, CameraPose(0, 1.6, -8))
        near = rasterizer.render(scene, CameraPose(0, 1.6, -2.5))
        assert not np.array_equal(far, near)

    def test_surfaces_behind_camera_culled(self):
        scene = Scene()
        scene.add_quad([[-1, 0, -5], [1, 0, -5], [1, 2, -5], [-1, 2, -5]],
                       shade=200)
        rasterizer = Rasterizer(32, 32)
        # The quad sits behind the camera (z=-5 < camera z=0 looking +z).
        frame = rasterizer.render(scene, CameraPose(0, 1, 0))
        assert (frame == scene.background).all()

    def test_invalid_parameters(self):
        with pytest.raises(RenderError):
            Rasterizer(0, 10)
        with pytest.raises(RenderError):
            Rasterizer(10, 10, fov_degrees=5.0)


class TestRenderActivities:
    def test_move_source_streams_poses(self, sim):
        from repro.activities import ActivityGraph
        from repro.activities.library import VideoReader, VideoWindow
        path = walk_path(steps=6)
        move = MoveSource(sim)
        move.bind(path)
        video = moving_scene(6, 32, 24)
        reader = VideoReader(sim)
        reader.bind(video)
        render = RenderActivity(sim, museum_room(), Rasterizer(48, 36))
        window = VideoWindow(sim)
        graph = ActivityGraph(sim)
        for activity in (move, reader, render, window):
            graph.add(activity)
        graph.connect(move.port("pose_out"), render.port("pose_in"))
        graph.connect(reader.port("video_out"), render.port("video_in"))
        graph.connect(render.port("video_out"), window.port("video_in"))
        graph.run_to_completion()
        assert len(window.presented) == 6
        assert render.frames_rendered == 6
        assert window.presented[0].shape == (36, 48)

    def test_move_source_rejects_video(self, sim):
        with pytest.raises(MediaTypeError):
            MoveSource(sim).bind(moving_scene(2))

    def test_render_survives_short_video(self, sim):
        """Navigation outlives the video: the wall keeps the last frame."""
        from repro.activities import ActivityGraph
        from repro.activities.library import VideoReader, VideoWindow
        move = MoveSource(sim)
        move.bind(walk_path(steps=10))
        reader = VideoReader(sim)
        reader.bind(moving_scene(3, 32, 24))  # shorter than the walk
        render = RenderActivity(sim, museum_room(), Rasterizer(32, 24))
        window = VideoWindow(sim)
        graph = ActivityGraph(sim)
        for activity in (move, reader, render, window):
            graph.add(activity)
        graph.connect(move.port("pose_out"), render.port("pose_in"))
        graph.connect(reader.port("video_out"), render.port("video_in"))
        graph.connect(render.port("video_out"), window.port("video_in"))
        graph.run_to_completion()
        assert len(window.presented) == 10


class TestFig4Configurations:
    @pytest.fixture(scope="class")
    def stored(self):
        return MPEGCodec(75).encode_value(moving_scene(12, 64, 48))

    def test_both_configurations_present_all_frames(self, stored):
        path = walk_path(steps=12)
        fat = client_side_rendering(stored, path, rasterizer=Rasterizer(64, 48))
        thin = database_side_rendering(stored, path, rasterizer=Rasterizer(64, 48))
        assert fat.frames_presented == 12
        assert thin.frames_presented == 12
        assert fat.render_location == "client"
        assert thin.render_location == "database"

    def test_fat_client_with_compressed_video_saves_network(self, stored):
        """Fig. 4 shape: a GPU client pulling compressed video uses far
        less network than a thin client receiving rendered rasters."""
        path = walk_path(steps=12)
        fat = client_side_rendering(stored, path, rasterizer=Rasterizer(64, 48))
        thin = database_side_rendering(stored, path, rasterizer=Rasterizer(64, 48))
        assert fat.network_bits < thin.network_bits / 5

    def test_crossover_with_tiny_rasters_and_raw_video(self):
        """The trade-off reverses when the source video is raw/large and
        the rendered view is tiny — DB-side rendering then wins."""
        big_raw = moving_scene(12, 128, 96)
        path = walk_path(steps=12)
        fat = client_side_rendering(big_raw, path, rasterizer=Rasterizer(32, 24))
        thin = database_side_rendering(big_raw, path, rasterizer=Rasterizer(32, 24))
        assert thin.network_bits < fat.network_bits

    def test_identical_imagery_regardless_of_placement(self, stored):
        """Where rendering runs must not change what the user sees."""
        path = walk_path(steps=8)
        fat = client_side_rendering(stored, path, rasterizer=Rasterizer(48, 36))
        thin = database_side_rendering(stored, path, rasterizer=Rasterizer(48, 36))
        assert all(
            np.array_equal(a, b) for a, b in zip(fat.frames, thin.frames)
        )
