"""Counters that are settled when read.

A producer that knows a stretch of its future (a clocked-out stream run,
see :mod:`repro.activities.clockout`) does not touch its counters once per
element; it applies, on demand, everything that is due by the current
virtual time.  The objects whose counters it owns point at it through a
``clocked`` attribute, and expose those counters through this descriptor,
so a reader between two kernel events sees exactly what per-element
bookkeeping would have left there.  It is the per-object form of the
flush hooks of :class:`repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import Iterable


class SettledCounter:
    """Attribute backed by ``slot``; a read settles ``obj.clocked`` first."""

    __slots__ = ("slot",)

    def __init__(self, slot: str) -> None:
        self.slot = slot

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        clocked = obj.clocked
        if clocked is not None:
            clocked.settle()
        return getattr(obj, self.slot)

    def __set__(self, obj, value) -> None:
        setattr(obj, self.slot, value)


def cut_all(clocked: Iterable) -> None:
    """Cut several runs at once, as when a fault model is armed on the
    channel or device they share.

    Each cut re-queues its source's wake-up, so the order of the cuts is
    the order in which sources that next wake at the same instant will
    run (and draw from a shared seeded fault model).  Per element, that
    order is the one in which their current delays were queued.
    """
    for run in sorted(clocked, key=lambda run: run.asleep_since()):
        run.cut()
