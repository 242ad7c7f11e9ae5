"""Camera poses and scripted camera paths.

A :class:`CameraPose` is a position plus yaw/pitch look direction.  A
:class:`CameraPath` is a ``MediaValue`` whose elements are poses at a
pose rate — the value bound to the ``move`` activity of Fig. 4.  (In the
paper the move stream is user-driven/live; a scripted path is the
deterministic equivalent, per the substitution rule.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.avtime import TimeMapping
from repro.errors import RenderError
from repro.values.base import MediaValue
from repro.values.mediatype import MediaType, standard_type


@dataclass(frozen=True, slots=True)
class CameraPose:
    """Position + orientation (yaw about +Y, pitch about the right axis)."""

    x: float
    y: float
    z: float
    yaw: float = 0.0
    pitch: float = 0.0

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(right, up, forward) unit vectors of the camera frame."""
        cy, sy = math.cos(self.yaw), math.sin(self.yaw)
        cp, sp = math.cos(self.pitch), math.sin(self.pitch)
        forward = np.array([sy * cp, sp, cy * cp])
        right = np.array([cy, 0.0, -sy])
        up = np.cross(forward, right)
        return right, up, forward


_POSE_BITS = 5 * 32  # five float32 fields on the wire


class CameraPath(MediaValue):
    """A sequence of camera poses at a fixed pose rate."""

    def __init__(self, poses: Sequence[CameraPose], rate: float = 30.0,
                 mapping: TimeMapping | None = None) -> None:
        if not poses:
            raise RenderError("a camera path needs at least one pose")
        super().__init__(mapping or TimeMapping(rate))
        self._poses = tuple(poses)

    @property
    def media_type(self) -> MediaType:
        return standard_type("geometry/pose")

    @property
    def element_count(self) -> int:
        return len(self._poses)

    def pose(self, index: int) -> CameraPose:
        self._check_index(index)
        return self._poses[index]

    def element_payload(self, index: int) -> Any:
        return self.pose(index)

    def element_size_bits(self, index: int) -> int:
        self._check_index(index)
        return _POSE_BITS

    def data_size_bits(self) -> int:
        return _POSE_BITS * len(self._poses)


def walk_path(steps: int = 30, start: tuple = (0.0, 1.6, -6.0),
              end: tuple = (0.0, 1.6, -2.5), rate: float = 30.0) -> CameraPath:
    """A straight walk toward the scene (the interactive walkthrough)."""
    if steps < 1:
        raise RenderError(f"walk needs >= 1 step, got {steps}")
    poses = []
    for i in range(steps):
        t = i / max(1, steps - 1)
        x = start[0] + (end[0] - start[0]) * t
        y = start[1] + (end[1] - start[1]) * t
        z = start[2] + (end[2] - start[2]) * t
        poses.append(CameraPose(x, y, z, yaw=0.0))
    return CameraPath(poses, rate=rate)
