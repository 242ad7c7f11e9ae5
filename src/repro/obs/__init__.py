"""Observability: virtual-time metrics and tracing for the whole stack.

Every runtime layer publishes metrics named ``<layer>.<name>``, decision
events and (when tracing is enabled) spans/instants stamped with both
virtual :class:`~repro.avtime.WorldTime` and wall-clock time; every
metric, decision kind and trace category is declared in
:mod:`repro.obs.catalog`.

An :class:`Obs` pairs one :class:`MetricsRegistry` with one tracer.
Instrumented constructors call :func:`attach` to find their ``Obs``:
an explicitly passed one wins, then the innermost :func:`scoped` /
:func:`disabled` ambient scope, else a fresh default (metrics on, null
tracer).  So by default metrics are always collected per simulator at
negligible cost, and::

    with repro.obs.scoped() as obs:
        system = AVDatabaseSystem()   # everything built here shares obs
        ...run...
    write_chrome_trace(obs.tracer, "out.trace.json")

turns on full tracing for everything constructed inside the scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.obs.catalog import DEPTH_BUCKETS, LATENCY_BUCKETS_MS, TIME_BUCKETS_S
from repro.obs.decisions import (
    NULL_DECISIONS,
    DecisionEvent,
    DecisionLog,
    NullDecisionLog,
)
from repro.obs.export import (
    canonical_trace_bytes,
    chrome_trace,
    chrome_trace_events,
    facts_line,
    text_summary,
    write_chrome_trace,
    write_jsonl,
    write_summary,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, TraceEvent, Tracer

__all__ = [
    "Obs", "attach", "current", "scoped", "disabled",
    "MetricsRegistry", "NullMetrics", "NULL_METRICS", "MetricError",
    "Counter", "Gauge", "Histogram",
    "TIME_BUCKETS_S", "LATENCY_BUCKETS_MS", "DEPTH_BUCKETS",
    "Tracer", "NullTracer", "NULL_TRACER", "Span", "TraceEvent",
    "DecisionLog", "NullDecisionLog", "NULL_DECISIONS", "DecisionEvent",
    "canonical_trace_bytes",
    "chrome_trace", "chrome_trace_events", "write_chrome_trace",
    "write_jsonl", "text_summary", "write_summary", "facts_line",
]


class Obs:
    """One observability context: metrics, a tracer, and a decision log."""

    __slots__ = ("metrics", "tracer", "decisions")

    def __init__(self, metrics=None, tracer=None, decisions=None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.decisions = decisions if decisions is not None else NULL_DECISIONS


#: the fully disabled context (null metrics + null tracer + null decisions).
NULL_OBS = Obs(NULL_METRICS, NULL_TRACER, NULL_DECISIONS)

_scopes: List[Obs] = []


def current() -> Optional[Obs]:
    """The innermost ambient scope's Obs, or None outside any scope."""
    return _scopes[-1] if _scopes else None


def attach(obs: Optional[Obs] = None) -> Obs:
    """Resolve the Obs an instrumented component should publish to.

    Precedence: explicit ``obs`` argument > innermost ambient scope >
    a fresh default (real metrics, null tracer).
    """
    if obs is not None:
        return obs
    ambient = current()
    if ambient is not None:
        return ambient
    return Obs()


@contextmanager
def scoped(tracing: bool = True) -> Iterator[Obs]:
    """Install an ambient Obs; components built inside share it.

    With ``tracing=True`` (default) the scope gets a live
    :class:`Tracer`; the first :class:`~repro.sim.Simulator` constructed
    inside binds its virtual clock to it.  The scope always records
    structured decision events (:mod:`repro.obs.decisions`):
    control-plane verdicts are rare next to data-plane events, so the
    log stays on even where tracing is off.
    """
    obs = Obs(MetricsRegistry(),
              Tracer() if tracing else NULL_TRACER,
              DecisionLog())
    _scopes.append(obs)
    try:
        yield obs
    finally:
        _scopes.remove(obs)


@contextmanager
def disabled() -> Iterator[Obs]:
    """Install the fully null ambient Obs (the un-instrumented baseline).

    Exists for overhead measurement (``bench_obs_overhead.py``): inside
    this scope, components bind no-op instruments, so runs approximate a
    build with no observability at all.
    """
    _scopes.append(NULL_OBS)
    try:
        yield NULL_OBS
    finally:
        _scopes.remove(NULL_OBS)
