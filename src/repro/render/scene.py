"""Scene description: triangles, quads and the video wall.

A :class:`Scene` is a list of :class:`Surface` objects.  A surface is a
triangle with either a flat shade or (for the video wall) per-vertex UV
coordinates into a dynamic texture slot.  ``museum_room`` builds the
virtual-museum set of Scenario II: floor, back wall, two pedestals and a
video wall "project[ing] the video material on a wall in the virtual
world".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import RenderError


@dataclass(frozen=True)
class Surface:
    """One triangle: three 3D vertices, flat shade, optional texture UVs."""

    vertices: np.ndarray  # (3, 3) float
    shade: int = 128  # 0..255 flat luminance
    uv: Optional[np.ndarray] = None  # (3, 2) in [0,1]; None = untextured
    textured: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.shape != (3, 3):
            raise RenderError(f"a surface needs (3,3) vertices, got {v.shape}")
        object.__setattr__(self, "vertices", v)
        if self.textured:
            if self.uv is None:
                raise RenderError("textured surfaces need UV coordinates")
            uv = np.asarray(self.uv, dtype=np.float64)
            if uv.shape != (3, 2):
                raise RenderError(f"UVs must be (3,2), got {uv.shape}")
            object.__setattr__(self, "uv", uv)
        if not 0 <= self.shade <= 255:
            raise RenderError(f"shade must be in [0,255], got {self.shade}")

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


def quad(corners: np.ndarray, shade: int = 128,
         textured: bool = False) -> List[Surface]:
    """Split a planar quad (4 corners, CCW) into two surfaces.

    Textured quads get the full [0,1]x[0,1] UV square mapped across,
    with v=0 at the top edge (image row 0).
    """
    c = np.asarray(corners, dtype=np.float64)
    if c.shape != (4, 3):
        raise RenderError(f"a quad needs (4,3) corners, got {c.shape}")
    if textured:
        uvs = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        return [
            Surface(c[[0, 1, 2]], shade, uvs[[0, 1, 2]], textured=True),
            Surface(c[[0, 2, 3]], shade, uvs[[0, 2, 3]], textured=True),
        ]
    return [Surface(c[[0, 1, 2]], shade), Surface(c[[0, 2, 3]], shade)]


@dataclass
class Scene:
    """A static scene plus one dynamic texture slot (the video wall)."""

    surfaces: List[Surface] = field(default_factory=list)
    background: int = 20

    def add_quad(self, corners, shade: int = 128, textured: bool = False) -> None:
        self.surfaces.extend(quad(corners, shade, textured))


def museum_room(wall_width: float = 4.0, wall_height: float = 3.0) -> Scene:
    """The virtual-museum room: floor, back wall, pedestals, video wall.

    Coordinates: +Y up, +Z into the scene; the camera walks along -Z
    toward the video wall at z=0.
    """
    scene = Scene(background=15)
    # Floor (y=0), large and dim.
    scene.add_quad(
        [[-8, 0, -8], [8, 0, -8], [8, 0, 4], [-8, 0, 4]], shade=60
    )
    # Back wall behind the video wall.
    scene.add_quad(
        [[-8, 0, 2.0], [8, 0, 2.0], [8, 6, 2.0], [-8, 6, 2.0]], shade=90
    )
    # Two pedestals flanking the video wall.
    for x in (-3.0, 3.0):
        scene.add_quad(
            [[x - 0.4, 0, -0.4], [x + 0.4, 0, -0.4],
             [x + 0.4, 1.2, -0.4], [x - 0.4, 1.2, -0.4]], shade=170
        )
    # The video wall: a textured quad facing the camera (normal along -Z).
    hw = wall_width / 2
    scene.add_quad(
        [[-hw, wall_height, 0.0], [hw, wall_height, 0.0],
         [hw, 0.0, 0.0], [-hw, 0.0, 0.0]],
        shade=255, textured=True,
    )
    return scene
