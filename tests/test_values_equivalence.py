"""Every concrete ``MediaValue`` answers ``data_size_bits()`` without the
per-element loop; the base-class loop is the reference it must equal.

The classes are found by walking ``MediaValue.__subclasses__()``, so a
new value class without a fixture here fails instead of going untested.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.avtime import WorldTime
from repro.codecs import (ADPCMCodec, DVICodec, JPEGCodec, MPEGCodec,
                          MuLawCodec, RLECodec)
from repro.codecs.rle import RLEVideoValue
from repro.render.camera import CameraPath, walk_path
from repro.synth import moving_scene, tone
from repro.values import (ADPCMAudioValue, CCIRVideoValue, DVIVideoValue,
                          EncodedVideoValue, ImageValue, JPEGVideoValue,
                          LVVideoValue, MIDIEvent, MIDIValue, MPEGVideoValue,
                          MuLawAudioValue, RawAudioValue, RawVideoValue,
                          TextStreamValue)
from repro.values.audio import EncodedAudioValue
from repro.values.base import MediaValue


def _video() -> RawVideoValue:
    return moving_scene(num_frames=7, width=32, height=24, seed=3)


def _audio() -> RawAudioValue:
    return tone(seconds=0.07, frequency_hz=440.0, sample_rate=8000.0)


def _stereo() -> RawAudioValue:
    left = _audio().samples()[0]
    return RawAudioValue(np.stack([left, -left]), sample_rate=8000.0)


def _generic_encoded_audio() -> EncodedAudioValue:
    encoded = MuLawCodec().encode_value(_audio())
    return EncodedAudioValue(encoded.blocks, encoded.codec, 1,
                             encoded.num_samples, encoded.sample_rate)


def _generic_encoded_video() -> EncodedVideoValue:
    codec = RLECodec()
    return EncodedVideoValue(codec.encode_frames(list(_video().frames_array)),
                             codec, 32, 24, 8)


def _midi() -> MIDIValue:
    # A chord, a silent gap, a note overlapping the chord's tail.
    return MIDIValue([MIDIEvent(0, 60, 100, 40), MIDIEvent(0, 64, 90, 40),
                      MIDIEvent(0, 67, 80, 40), MIDIEvent(25, 72, 70, 60),
                      MIDIEvent(90, 48, 60, 7)], ticks_per_second=96.0)


FIXTURES = {
    RawAudioValue: _stereo,
    EncodedAudioValue: _generic_encoded_audio,
    MuLawAudioValue: lambda: MuLawCodec().encode_value(_audio()),
    ADPCMAudioValue: lambda: ADPCMCodec().encode_value(_audio()),
    RawVideoValue: _video,
    CCIRVideoValue: lambda: CCIRVideoValue(_video().frames_array, rate=25.0),
    LVVideoValue: lambda: LVVideoValue(
        np.repeat(_video().frames_array[..., np.newaxis], 3, axis=3)),
    EncodedVideoValue: _generic_encoded_video,
    RLEVideoValue: lambda: RLECodec().encode_value(_video()),
    JPEGVideoValue: lambda: JPEGCodec(75).encode_value(_video()),
    MPEGVideoValue: lambda: MPEGCodec(75).encode_value(_video()),
    DVIVideoValue: lambda: DVICodec().encode_value(_video()),
    ImageValue: lambda: ImageValue(_video().frame(0), display_seconds=2.5),
    TextStreamValue: lambda: TextStreamValue(
        ["", "héllo wörld", "x", "字幕 — a longer subtitle line"], rate=0.75),
    MIDIValue: _midi,
    CameraPath: lambda: walk_path(steps=11, rate=24.0),
}


def _concrete_value_classes() -> list[type]:
    # The imports above already loaded the two layers that define value
    # classes outside repro.values (codecs: RLEVideoValue, render:
    # CameraPath), so the walk sees them.
    found: list[type] = []
    stack = [MediaValue]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    # Only the package's own classes: a test module elsewhere may define
    # a third-party subclass, which is what the base-class loop is for.
    return sorted((cls for cls in found
                   if not inspect.isabstract(cls)
                   and cls.__module__.startswith("repro.")),
                  key=lambda cls: (cls.__module__, cls.__qualname__))


def _presentations(value: MediaValue) -> list[MediaValue]:
    return [value, value.scale(2.5), value.translate(WorldTime(3.0)),
            value.scale(1 / 3).translate(WorldTime(0.125))]


def _reference_size_bits(value: MediaValue) -> int:
    if isinstance(value, EncodedAudioValue):
        # Blocks span many samples, so the per-sample size is the block
        # total amortised and floored: the loop cannot recover the total.
        # The stored blocks are the reference here, as at every revision.
        return sum(len(block) for block in value.blocks) * 8
    return MediaValue.data_size_bits(value)


@pytest.mark.parametrize("cls", _concrete_value_classes(),
                         ids=lambda cls: cls.__name__)
def test_size_and_rate_equal_the_per_element_reference(cls):
    assert cls in FIXTURES, (
        f"{cls.__module__}.{cls.__qualname__} has no fixture in FIXTURES: "
        f"add one so its data_size_bits() is checked against the loop")
    value = FIXTURES[cls]()
    assert type(value) is cls
    for shown in _presentations(value):
        reference = _reference_size_bits(shown)
        size = shown.data_size_bits()
        assert type(size) is int and size == reference
        seconds = shown.duration.seconds
        assert seconds > 0
        assert shown.data_rate_bps() == reference / seconds


def test_closed_forms_never_enter_the_loop(monkeypatch):
    def loop(self):
        raise AssertionError(f"{type(self).__name__} fell back to the loop")

    values = [FIXTURES[cls]() for cls in _concrete_value_classes()]
    monkeypatch.setattr(MediaValue, "data_size_bits", loop)
    for value in values:
        for shown in _presentations(value):
            shown.data_size_bits()


@pytest.mark.parametrize("cls", [EncodedAudioValue, MuLawAudioValue,
                                 ADPCMAudioValue],
                         ids=lambda cls: cls.__name__)
def test_encoded_audio_sample_size_is_the_amortised_block_total(cls):
    for shown in _presentations(FIXTURES[cls]()):
        per_sample = max(1, shown.data_size_bits() // shown.num_samples)
        assert {shown.element_size_bits(i)
                for i in range(shown.element_count)} == {per_sample}


def test_midi_buckets_equal_a_scan_of_the_track():
    for shown in _presentations(_midi()):
        for tick in range(shown.element_count):
            starting = tuple(e for e in shown.events if e.tick == tick)
            assert shown.element_payload(tick) == starting
            assert shown.element_size_bits(tick) == 24 * len(starting)
