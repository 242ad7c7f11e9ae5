"""Discrete-event simulation (DES) kernel.

Every temporal behaviour in this reproduction — stream pacing, device
transfers, network channels, synchronization jitter — runs in *virtual*
world time on this kernel.  That substitutes deterministically for the
real-time hardware the paper assumes (see DESIGN.md section 2) while
exercising identical scheduling logic.

The kernel is a generator-based coroutine scheduler: a *process* is a
Python generator that yields scheduling primitives (:class:`Delay`,
:class:`WaitEvent`, :class:`Acquire`...) and is resumed when they
complete.
"""

from repro.sim.kernel import (
    Acquire,
    Delay,
    EpochTicker,
    Process,
    Release,
    SimEvent,
    Simulator,
    Timeout,
    WaitEvent,
    WaitProcess,
)
from repro.sim.resource import SimResource
from repro.sim.settled import SettledCounter, cut_all

__all__ = [
    "Simulator",
    "Process",
    "SimEvent",
    "SimResource",
    "SettledCounter",
    "cut_all",
    "Delay",
    "EpochTicker",
    "WaitEvent",
    "WaitProcess",
    "Timeout",
    "Acquire",
    "Release",
]
