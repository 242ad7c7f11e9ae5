"""Shared fixtures: a DES kernel and small synthetic media values."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.sim import Simulator
from repro.synth import moving_scene, newscast_clip, noise_video, tone
from repro.values import RawAudioValue, RawVideoValue

# The suite's discipline is rerun == run, so every property draws from a
# seed fixed by the test's own source, and none is failed by the wall
# clock of a shared machine.
settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_video() -> RawVideoValue:
    """10 frames of 32x24 coherent video at 30 fps."""
    return moving_scene(num_frames=10, width=32, height=24, seed=1)


@pytest.fixture
def small_noise() -> RawVideoValue:
    return noise_video(num_frames=10, width=32, height=24, seed=1)


@pytest.fixture
def small_audio() -> RawAudioValue:
    """Half a second of 8 kHz mono tone."""
    return tone(seconds=0.5, frequency_hz=440.0, sample_rate=8000.0)


@pytest.fixture
def clip():
    """A small 4-track Newscast clip."""
    return newscast_clip(video_frames=10, audio_seconds=0.4, seed=2)


@pytest.fixture
def gradient_frame() -> np.ndarray:
    y, x = np.mgrid[0:24, 0:32]
    return ((x * 8 + y) % 256).astype(np.uint8)
