"""Spans recorded by the benchmark itself, and the cProfile layer rollup.

Both sources sit *outside* the program: spans wrap the calls a workload
makes into a layer's public functions, and the profile is read after the
fact from ``pstats``.  Nothing here adds a timer to ``src/repro``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import re
import statistics
from time import perf_counter
from typing import Dict, List

#: the ``src/repro`` packages a profile is rolled up to; every other
#: package, the interpreter and this benchmark's own files are ``other``.
LAYERS = (
    "sim", "streams", "codecs", "values", "activities", "session", "avdb",
    "storage", "net", "db", "annotations", "admission", "cluster", "cache",
    "herd", "watch", "faults", "soak", "obs", "synth", "avtime", "other",
)

_PACKAGE = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\]")


class _Span:
    """One open span; ``name`` may be refined before the span closes."""

    __slots__ = ("spans", "name", "start", "parent")

    def __init__(self, spans: "Spans", name: str) -> None:
        self.spans = spans
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self.spans._stack
        self.parent = stack[-1] if stack else -1
        stack.append(len(self.spans.rows))
        self.spans.rows.append(None)  # slot reserved in start order
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = perf_counter()
        spans = self.spans
        spans.rows[spans._stack.pop()] = (
            self.name, self.start, end, self.parent, spans.iteration)


class _Round(_Span):
    __slots__ = ()

    def __enter__(self) -> "_Span":
        span = super().__enter__()
        if self.spans.profiler is not None:
            self.spans.profiler.enable()
        return span

    def __exit__(self, *exc_info) -> None:
        if self.spans.profiler is not None:
            self.spans.profiler.disable()
        super().__exit__(*exc_info)


class _NoSpan:
    name = ""

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NO_SPAN = _NoSpan()


class Spans:
    """In-memory span log: ``(name, start, end, parent, iteration)`` rows.

    ``op`` spans are the operations every run times (they carry the
    end-to-end numbers); ``span`` marks a call into one layer and is only
    recorded when ``detail`` is on, which is the traced run.
    """

    def __init__(self, detail: bool,
                 profiler: cProfile.Profile | None = None) -> None:
        self.detail = detail
        self.profiler = profiler
        self.rows: List[tuple] = []
        self.iteration = -1
        self._stack: List[int] = []

    def op(self, name: str) -> _Span:
        return _Span(self, name)

    def round(self) -> _Span:
        """The timed part of one round; the profiler, when one is
        attached, runs exactly as long as this span is open."""
        return _Round(self, "round")

    def span(self, name: str):
        return _Span(self, name) if self.detail else _NO_SPAN

    def durations(self, prefix: str, first: int = 0) -> List[float]:
        """Seconds of every closed span named ``prefix`` or ``prefix.*``
        from iteration ``first`` on (-1 is set-up and warm-up)."""
        dotted = prefix + "."
        return [row[2] - row[1] for row in self.rows
                if row[4] >= first
                and (row[0] == prefix or row[0].startswith(dotted))]

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "iteration")
        with open(path, "w") as out:
            json.dump([dict(zip(keys, row)) for row in self.rows], out)


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _layer_of(filename: str) -> str | None:
    """The layer a profiled Python file belongs to; None if not ours."""
    match = _PACKAGE.search(filename)
    if match is None:
        return None
    return match.group(1) if match.group(1) in LAYERS else "other"


def layer_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Roll ``tottime`` up by ``repro.<package>``; the shares sum to 1.

    Self time of a function outside ``src/repro`` (C, builtins, numpy,
    the standard library) is charged to the packages that called it, in
    proportion to the caller edges' own ``tottime``; what no repro
    package called directly goes to ``other``.
    """
    seconds = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, tottime, _, callers) in \
            pstats.Stats(profile).stats.items():
        layer = _layer_of(filename)
        if layer is not None:
            seconds[layer] += tottime
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0.0:
            seconds["other"] += tottime
            continue
        for (caller_file, _, _), edge in callers.items():
            seconds[_layer_of(caller_file) or "other"] += \
                tottime * edge[2] / edge_total
    total = sum(seconds.values())
    return {layer: (value / total if total else 0.0)
            for layer, value in seconds.items()}


