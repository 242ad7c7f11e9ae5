"""3D rendering substrate for the virtual-world scenario (§3.2, §4.3, Fig. 4).

"An AV database supporting 'virtual worlds' is provided as a network
service. ... As the user changes position, a new visualization of the
world is rendered ..., resulting in a sequence of images (an AV value)
being sent to the user."

* :mod:`repro.render.scene` — scene graph: triangles, quads, a video
  wall surface;
* :mod:`repro.render.camera` — camera poses and scripted camera paths
  (the ``move`` activity's value);
* :mod:`repro.render.rasterizer` — software perspective projection and
  z-sorted triangle rasterization with affine texture mapping;
* :mod:`repro.render.activities` — the Fig. 4 activities: ``move``
  (pose source) and ``render`` (pose + video in, raster stream out);
* :mod:`repro.render.virtualworld` — the two Fig. 4 configurations:
  client-side vs database-side rendering.
"""

from repro.render.camera import CameraPath, CameraPose, walk_path
from repro.render.rasterizer import Rasterizer
from repro.render.scene import Scene, Surface, museum_room
from repro.render.activities import MoveSource, RenderActivity
from repro.render.virtualworld import (
    VirtualWorldResult,
    client_side_rendering,
    database_side_rendering,
)

__all__ = [
    "CameraPose",
    "CameraPath",
    "walk_path",
    "Scene",
    "Surface",
    "museum_room",
    "Rasterizer",
    "MoveSource",
    "RenderActivity",
    "client_side_rendering",
    "database_side_rendering",
    "VirtualWorldResult",
]
