"""Still raster images.

The paper's ``VideoValue`` is declared as ``ImageValue frame[numFrame]`` —
video frames *are* images.  ``ImageValue`` is a single raster; it is also
the element type of the rendered image streams of Scenario II ("a new
visualization of the world is rendered ... resulting in a sequence of
images (an AV value) being sent to the user").

As a ``MediaValue`` an image is a one-element sequence whose presentation
duration defaults to one second (a still shown for a configurable span).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.avtime import TimeMapping
from repro.errors import DataModelError
from repro.values.base import MediaValue
from repro.values.mediatype import MediaType, standard_type
from repro.values.video import validate_frame


class ImageValue(MediaValue):
    """A single raster image (grayscale uint8 or RGB uint8)."""

    def __init__(self, pixels: np.ndarray, display_seconds: float = 1.0) -> None:
        pixels = np.asarray(pixels, dtype=np.uint8)
        if pixels.ndim == 2:
            depth = 8
            height, width = pixels.shape
        elif pixels.ndim == 3 and pixels.shape[2] == 3:
            depth = 24
            height, width, _ = pixels.shape
        else:
            raise DataModelError(f"image must be (h,w) or (h,w,3) uint8, got {pixels.shape}")
        if display_seconds <= 0:
            raise DataModelError(f"display span must be positive, got {display_seconds}")
        super().__init__(TimeMapping(rate=1.0 / display_seconds))
        validate_frame(pixels, width, height, depth)
        self._pixels = pixels
        self.width = width
        self.height = height
        self.depth = depth

    @property
    def media_type(self) -> MediaType:
        return standard_type("image/raster")

    @property
    def element_count(self) -> int:
        return 1

    @property
    def pixels(self) -> np.ndarray:
        return self._pixels

    def element_payload(self, index: int) -> Any:
        self._check_index(index)
        return self._pixels

    def element_size_bits(self, index: int) -> int:
        self._check_index(index)
        return self.width * self.height * self.depth

    def data_size_bits(self) -> int:
        return self.width * self.height * self.depth
