"""The interactive editor facade and the §3.3 placement interaction.

``Editor.mix`` is the paper's video-mixing example made concrete: mixing
needs both sources streaming simultaneously.  If their devices can admit
both streams, the mix runs immediately; if the values share a saturated
device, the editor either fails fast (``strict_placement=True`` — the
client-visible-placement stance) or transparently copies one value to
another device first, paying the interactivity-destroying delay the paper
warns about.  Benchmark C1 measures both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.editing.ops import overlay_mix
from repro.errors import PlacementError
from repro.storage.placement import PlacementManager
from repro.values.video import RawVideoValue, VideoValue


@dataclass
class MixOutcome:
    """What a mix request did and cost."""

    result: RawVideoValue
    copied: bool
    copy_seconds: float
    start_delay_seconds: float


class Editor:
    """Non-linear editor bound to a placement manager."""

    def __init__(self, placement: PlacementManager,
                 strict_placement: bool = False) -> None:
        self.placement = placement
        self.strict_placement = strict_placement

    def can_mix_interactively(self, a: VideoValue, b: VideoValue) -> bool:
        """Would both sources stream simultaneously from where they sit?"""
        return self.placement.can_stream_together([a, b])

    def mix(self, a: VideoValue, b: VideoValue,
            alpha: float = 0.5) -> Generator:
        """DES subroutine mixing two placed values; returns a MixOutcome.

        Run it with ``simulator.run_until_complete(simulator.spawn(...))``.
        """
        simulator = self.placement.simulator
        started = simulator.now_s
        copied = False
        copy_seconds = 0.0
        if not self.can_mix_interactively(a, b):
            if self.strict_placement:
                device = self.placement.device_of(a).name
                raise PlacementError(
                    f"values on device {device!r} cannot stream together; "
                    f"strict placement forbids the copy fallback — "
                    f"re-place one value explicitly"
                )
            # Physical-data-independence fallback: move b elsewhere first.
            source_device = self.placement.device_of(b).name
            target = self.placement.pick_device_for_copy(b, avoid=source_device)
            copy_start = simulator.now_s
            yield from self.placement.copy(b, target.name)
            copy_seconds = simulator.now_s - copy_start
            copied = True
        # Both streams now admissible: reserve, stream, release.
        res_a = self.placement.device_of(a).reserve(a.data_rate_bps(), "mix-a")
        res_b = self.placement.device_of(b).reserve(b.data_rate_bps(), "mix-b")
        try:
            yield from res_a.open()
            yield from res_b.open()
            start_delay = simulator.now_s - started
            # Both reads proceed in parallel; the slower stream (here: the
            # longer read at its reserved rate) bounds the mix duration.
            yield from res_a.read(a.data_size_bits())
            res_b.bits_read += b.data_size_bits()
            res_b.device._account_read(b.data_size_bits())
        finally:
            res_a.release()
            res_b.release()
        result = overlay_mix(a, b, alpha)
        return MixOutcome(result, copied, copy_seconds, start_delay)
