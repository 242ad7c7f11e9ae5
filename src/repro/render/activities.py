"""The Fig. 4 activities: ``move`` and ``render``.

"The essential component is render, which processes two streams — one
coming from the user driven activity, move, the other from a video source
— and generates a stream of raster images."
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.activities.base import Location, MediaActivity
from repro.activities.library import PacedSource
from repro.activities.ports import Direction
from repro.errors import MediaTypeError
from repro.render.camera import CameraPath
from repro.render.rasterizer import Rasterizer
from repro.render.scene import Scene
from repro.sim import Delay, Simulator
from repro.streams.element import END_OF_STREAM, EndOfStream
from repro.streams.sync import JitterModel
from repro.values.mediatype import standard_type


class MoveSource(PacedSource):
    """The ``move`` activity: streams camera poses from a bound path.

    The paper's move stream is user-driven (a live source); a scripted
    :class:`CameraPath` is the deterministic stand-in.
    """

    TABLE_ROW = ("move", "source", "(user input)", "pose")

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 jitter: Optional[JitterModel] = None) -> None:
        super().__init__(simulator, name, location, jitter)
        self.add_port("pose_out", Direction.OUT, standard_type("geometry/pose"))

    def _validate_binding(self, value, port_name) -> None:
        if not isinstance(value, CameraPath):
            raise MediaTypeError(
                f"move source {self.name!r} requires a CameraPath, "
                f"got {type(value).__name__}"
            )


class RenderActivity(MediaActivity):
    """The ``render`` activity: (pose, video frame) -> raster frame.

    Consumes one pose and one video frame per output element and projects
    the video frame onto the scene's textured wall.  ``render_seconds``
    models the per-frame rendering cost (3D hardware vs software).
    """

    TABLE_ROW = ("render", "transformer", "pose + raw", "raw")

    def __init__(self, simulator: Simulator, scene: Scene,
                 rasterizer: Optional[Rasterizer] = None,
                 name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 render_seconds: float = 0.0) -> None:
        super().__init__(simulator, name, location)
        self.scene = scene
        self.rasterizer = rasterizer or Rasterizer()
        self.render_seconds = render_seconds
        self.frames_rendered = 0
        self.add_port("pose_in", Direction.IN, standard_type("geometry/pose"))
        self.add_port("video_in", Direction.IN, standard_type("video/raw"))
        self.add_port("video_out", Direction.OUT, standard_type("video/raw"))

    def _process(self) -> Generator:
        pose_port = self.port("pose_in")
        video_port = self.port("video_in")
        out_port = self.port("video_out")
        latest_texture = None
        video_done = False
        while True:
            pose_element = yield from pose_port.receive()
            if isinstance(pose_element, EndOfStream) or self._stop_requested:
                break
            # The wall shows the most recent video frame; video may run at
            # a different rate (or end) without stalling navigation.
            if not video_done:
                element = yield from video_port.receive()
                if isinstance(element, EndOfStream):
                    video_done = True
                else:
                    latest_texture = element.payload
            if self.render_seconds > 0:
                yield Delay(self.render_seconds)
            frame = self.rasterizer.render(
                self.scene, pose_element.payload, latest_texture
            )
            self.frames_rendered += 1
            yield from out_port.send(pose_element.with_payload(
                frame, standard_type("video/raw"), self.rasterizer.frame_bits()
            ))
        # Drain the video stream if navigation ended first.
        while not video_done:
            element = yield from video_port.receive()
            if isinstance(element, EndOfStream):
                video_done = True
        yield from out_port.send(END_OF_STREAM)
