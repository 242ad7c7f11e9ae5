"""Exporters: Chrome ``trace_event`` JSON, JSONL, and a text summary.

The Chrome export loads directly in ``chrome://tracing`` or
https://ui.perfetto.dev (open the ``.trace.json`` file).  The time axis
is *virtual* time (1 trace µs = 1 virtual µs); each event's wall-clock
stamp rides along in ``args.wall_s`` so CPU cost stays visible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

def chrome_trace_events(tracer: Tracer,
                        canonical: bool = False) -> List[Dict[str, Any]]:
    """The tracer's events as Chrome ``trace_event`` dicts.

    One virtual process (pid 1) with one thread lane per span track;
    metadata events name the process and threads so Perfetto shows
    readable lanes.

    With ``canonical=True`` the wall-clock stamps (``wall_s`` /
    ``wall_dur_s``) are omitted, leaving only virtual-time data — the
    export is then a pure function of the schedule, so byte-identical
    output across runs proves the kernel's (time, seq) determinism (the
    ``tests/test_determinism.py`` suite relies on this).
    """
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": "repro (virtual time)"},
    }]
    tids: Dict[str, int] = {}
    for event in tracer.events:
        tid = tids.get(event.track)
        if tid is None:
            tid = tids[event.track] = len(tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": event.track},
            })
        args = dict(event.args) if event.args else {}
        if not canonical:
            args["wall_s"] = round(event.wall, 6)
            if event.wall_dur is not None:
                args["wall_dur_s"] = round(event.wall_dur, 6)
        out: Dict[str, Any] = {
            "name": event.name,
            "cat": event.category or "repro",
            "ph": event.phase,
            "pid": 1,
            "tid": tid,
            "ts": event.ts * 1e6,
            "args": args,
        }
        if event.phase == "X":
            out["dur"] = (event.dur or 0.0) * 1e6
        elif event.phase == "i":
            out["s"] = "t"  # instant scoped to its thread lane
        events.append(out)
    return events


def chrome_trace(tracer: Tracer,
                 metrics: MetricsRegistry | None = None,
                 canonical: bool = False) -> Dict[str, Any]:
    """The full Chrome trace document (``json.dump``-able)."""
    doc: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(tracer, canonical=canonical),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "time_axis": "virtual"},
    }
    if metrics is not None:
        doc["otherData"]["metrics"] = metrics.snapshot()
    return doc


def canonical_trace_bytes(tracer: Tracer,
                          metrics: MetricsRegistry | None = None) -> bytes:
    """Deterministic serialization of a run's trace + metric state.

    Wall-clock stamps are excluded and keys are sorted, so two runs of
    the same scenario produce identical bytes if and only if their
    virtual schedules and metric totals are identical.
    """
    return json.dumps(chrome_trace(tracer, metrics, canonical=True),
                      sort_keys=True).encode()


def write_chrome_trace(tracer: Tracer, path: PathLike,
                       metrics: MetricsRegistry | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(tracer, metrics)))
    return path


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def write_jsonl(tracer: Tracer, path: PathLike) -> Path:
    """One JSON object per line per event (greppable / streamable)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for event in tracer.events:
            fh.write(json.dumps(event.to_dict()))
            fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# text summary
# ---------------------------------------------------------------------------

def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def text_summary(metrics: MetricsRegistry,
                 tracer: Tracer | None = None,
                 title: str = "observability summary") -> str:
    """A plain-text report: per-layer counters, gauges and histograms."""
    lines = [f"== {title} " + "=" * max(1, 64 - len(title))]

    counters = metrics.by_kind("counter")
    gauges = metrics.by_kind("gauge")
    histograms = metrics.by_kind("histogram")

    layers = sorted({_layer_of(n)
                     for n in (*counters, *gauges, *histograms)})
    for layer in layers:
        lines.append(f"\n[{layer}]")
        for name, c in counters.items():
            if _layer_of(name) == layer:
                lines.append(f"  {name:<46} {c.value:>14,}")
        for name, g in gauges.items():
            if _layer_of(name) == layer:
                lines.append(f"  {name:<46} {g.value:>14.4g}"
                             f"   (peak {g.high_watermark:.4g})")
        header_done = False
        for name, h in histograms.items():
            if _layer_of(name) != layer:
                continue
            if not header_done:
                lines.append(f"  {'histogram':<34} {'count':>7} {'sum':>10}"
                             f" {'mean':>9} {'min':>9} {'p50':>9} {'p95':>9}"
                             f" {'p99':>9} {'max':>9}")
                header_done = True
            if h.count:
                lines.append(
                    f"  {name:<34} {h.count:>7} {h.total:>10.5g}"
                    f" {h.mean:>9.4g} {h.min:>9.4g}"
                    f" {h.percentile(50):>9.4g} {h.percentile(95):>9.4g}"
                    f" {h.percentile(99):>9.4g} {h.max:>9.4g}"
                )
            else:
                lines.append(f"  {name:<34} {0:>7} {'-':>10} {'-':>9}"
                             f" {'-':>9} {'-':>9} {'-':>9} {'-':>9} {'-':>9}")
    if not layers:
        lines.append("  (no metrics recorded)")

    if tracer is not None:
        spans = sum(1 for e in tracer.events if e.phase == "X")
        instants = len(tracer.events) - spans
        lines.append(f"\ntrace: {spans} spans, {instants} instants"
                     if tracer.enabled else "\ntrace: disabled (null tracer)")
    return "\n".join(lines)


def facts_line(family: str, name: str, facts: Dict[str, Any]) -> str:
    """A scenario's facts as one deterministic line, keys sorted."""
    body = " ".join(f"{key}={facts[key]}" for key in sorted(facts))
    return f"{family} {name}: {body}"


def write_summary(metrics: MetricsRegistry, path: PathLike,
                  tracer: Tracer | None = None,
                  title: str = "observability summary") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text_summary(metrics, tracer, title) + "\n")
    return path
