"""Live sources (paper §4, footnote 1).

"Examples of live sources include video cameras, microphones, and values
that are changing due to interaction with the client."

A live source has no stored value to bind: frames/samples are produced by
a capture callback *at the wall-clock (virtual) rate of the medium* and
cannot be read ahead — which is exactly why "it is impossible to compress
the entire value prior to exchange" (benchmark C2's live case).  Live
sources run until stopped or until ``max_elements`` is reached.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

import numpy as np

from repro.activities.base import Location, MediaActivity
from repro.activities.events import (
    EVENT_EACH_ELEMENT,
    EVENT_EACH_FRAME,
    EVENT_LAST_ELEMENT,
)
from repro.activities.ports import Direction
from repro.avtime import WorldTime
from repro.errors import ActivityError, ActivityStateError
from repro.sim import Delay, Simulator
from repro.streams.element import END_OF_STREAM, StreamElement
from repro.streams.sync import JitterModel, NoJitter
from repro.values.mediatype import standard_type


class LiveSource(MediaActivity):
    """Base for live capture activities.

    Parameters
    ----------
    capture:
        Callable ``capture(index) -> payload`` invoked at each element
        period; models the camera/microphone/interaction.
    rate:
        Elements per second of the live medium.
    max_elements:
        Stop after this many elements (a bounded recording); ``None``
        runs until ``stop()``.
    """

    EVENT_NAMES = MediaActivity.EVENT_NAMES + (EVENT_EACH_ELEMENT, EVENT_LAST_ELEMENT)

    def __init__(self, simulator: Simulator, capture: Callable[[int], object],
                 rate: float, element_bits: int,
                 name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 jitter: Optional[JitterModel] = None,
                 max_elements: Optional[int] = None) -> None:
        super().__init__(simulator, name, location)
        if rate <= 0:
            raise ActivityError(f"live rate must be positive, got {rate}")
        if element_bits <= 0:
            raise ActivityError(f"element size must be positive, got {element_bits}")
        if max_elements is not None and max_elements < 1:
            raise ActivityError(f"max_elements must be >= 1, got {max_elements}")
        self.capture = capture
        self.rate = rate
        self.element_bits = element_bits
        self.jitter = jitter or NoJitter()
        self.max_elements = max_elements
        self.elements_produced = 0

    # Live sources cannot be bound or cued: there is no stored value.
    def bind(self, value, port_name=None) -> None:
        raise ActivityStateError(
            f"live source {self.name!r} has no stored value to bind"
        )

    def cue(self, when: WorldTime) -> None:
        raise ActivityStateError(
            f"live source {self.name!r} cannot be cued: live data has no past"
        )

    def _media_type(self):
        return self.out_ports()[0].media_type

    def _process(self) -> Generator:
        port = self.out_ports()[0]
        t_start = self.simulator.now_s
        media_type = self._media_type()
        index = 0
        while not self._stop_requested:
            if self.max_elements is not None and index >= self.max_elements:
                break
            ideal = WorldTime(t_start + index / self.rate)
            target = ideal.seconds + self.jitter.offset(index)
            wait = target - self.simulator.now_s
            if wait > 0:
                yield Delay(wait)
            payload = self.capture(index)
            element = StreamElement(payload, index, ideal, media_type,
                                    self.element_bits)
            yield from port.send(element)
            self.elements_produced += 1
            self._emit(EVENT_EACH_ELEMENT, index)
            index += 1
        yield from port.send(END_OF_STREAM)
        self._emit(EVENT_LAST_ELEMENT, self.elements_produced)


class LiveCamera(LiveSource):
    """A live video camera producing raw frames.

    The default capture synthesizes a drifting-gradient scene with a
    frame counter burned in, so recordings are verifiable.
    """

    TABLE_ROW = ("live camera", "source", "(optics)", "raw")
    EVENT_NAMES = LiveSource.EVENT_NAMES + (EVENT_EACH_FRAME,)

    def __init__(self, simulator: Simulator, width: int = 64, height: int = 48,
                 rate: float = 30.0, capture: Optional[Callable] = None,
                 name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 jitter: Optional[JitterModel] = None,
                 max_elements: Optional[int] = None) -> None:
        self.width = width
        self.height = height
        super().__init__(
            simulator, capture or self._default_capture, rate,
            element_bits=width * height * 8, name=name, location=location,
            jitter=jitter, max_elements=max_elements,
        )
        self.add_port("video_out", Direction.OUT, standard_type("video/raw"))

    def _default_capture(self, index: int) -> np.ndarray:
        y, x = np.mgrid[0:self.height, 0:self.width]
        frame = ((x * 2 + y + index * 5) % 256).astype(np.uint8)
        # Burn a frame-counter block into the corner.
        size = max(2, min(self.height, self.width) // 8)
        frame[:size, :size] = index % 256
        return frame

    def _emit(self, event_name, payload=None) -> None:
        super()._emit(event_name, payload)
        if event_name == EVENT_EACH_ELEMENT:
            super()._emit(EVENT_EACH_FRAME, payload)


class LiveMicrophone(LiveSource):
    """A live microphone producing PCM blocks."""

    TABLE_ROW = ("live microphone", "source", "(acoustics)", "pcm")

    def __init__(self, simulator: Simulator, sample_rate: float = 8000.0,
                 block_samples: int = 512,
                 capture: Optional[Callable] = None,
                 name: Optional[str] = None,
                 location: Location = Location.APPLICATION,
                 jitter: Optional[JitterModel] = None,
                 max_elements: Optional[int] = None) -> None:
        self.sample_rate = sample_rate
        self.block_samples = block_samples
        super().__init__(
            simulator, capture or self._default_capture,
            rate=sample_rate / block_samples,
            element_bits=block_samples * 16, name=name, location=location,
            jitter=jitter, max_elements=max_elements,
        )
        self.add_port("audio_out", Direction.OUT, standard_type("audio/pcm"))

    def _default_capture(self, index: int) -> np.ndarray:
        t = (np.arange(self.block_samples)
             + index * self.block_samples) / self.sample_rate
        wave = 0.4 * np.sin(2 * np.pi * 440.0 * t)
        return np.round(wave * 32767).astype(np.int16)[np.newaxis, :]
