"""One workload, measured in this (fresh, single-threaded) process.

``run.py`` starts this file once per workload with the noise-discipline
environment already set, and reads the JSON document printed as the last
line of standard output.  Order of events:

1. imports, then ``setup()`` several times -> ``setup_s``, the fastest
   import (``run.py`` samples more in throwaway processes) plus the
   fastest ``setup()``;
2. one untimed warm-up round;
3. the round, repeated until the time budget is spent (at least
   ``min_rounds`` times), ``gc.collect()`` before each with the
   collector left on; every repeat must reproduce the first one's
   counts and summary lines, and each span's cost is its fastest repeat;
4. with tracing, the round once more under ``cProfile``;
5. output checks, outside every timed section.
"""

from __future__ import annotations

import sys
from time import perf_counter

_T_START = perf_counter()

import cProfile  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tracing import LAYERS, Spans, layer_shares, p50  # noqa: E402
from workloads import WORKLOADS, count_metrics  # noqa: E402  (repro, numpy)

_IMPORT_S = perf_counter() - _T_START



def calibration_score(rounds: int = 5) -> float:
    """Iterations/s of the fixed pure-Python loop BENCH_PERF.json is
    normalized by (the ``bench_kernel_throughput`` loop, verbatim).
    Recorded for provenance; no gated metric is divided by it."""
    n = 200_000
    best = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        acc = 0
        for i in range(n):
            acc += i & 7
        best = min(best, perf_counter() - t0)
    return n / best


def _run_rounds(workload, spans: Spans, min_rounds: int,
                budget_s: float) -> list:
    """Repeat the round: at least ``min_rounds`` times, then while the
    budget lasts."""
    rounds = []
    start = perf_counter()
    while True:
        done = len(rounds)
        elapsed = perf_counter() - start
        if done >= min_rounds and elapsed + elapsed / done > budget_s:
            return rounds
        gc.collect()
        spans.iteration = done
        rounds.append(workload.round())


def _quietest(spans: Spans, n: int) -> tuple:
    """Whether the rounds' spans line up, and per span of the round its
    name and its fastest repeat.

    Every round is the same work, so the spans of round ``r`` line up
    one to one with those of round 0.  Neighbours on a shared box only
    ever add time, in bursts from milliseconds to seconds, so the
    fastest of a span's repeats is the one least disturbed.
    """
    by_round: list = [[] for _ in range(n)]
    for row in spans.rows:
        if 0 <= row[4] < n:
            by_round[row[4]].append(row)
    names = [row[0] for row in by_round[0]]
    aligned = all([row[0] for row in rows] == names for rows in by_round)
    if not aligned:  # a failed run: report the first round as it was
        by_round = by_round[:1]
    return aligned, names, [min(rows[i][2] - rows[i][1] for rows in by_round)
                            for i in range(len(names))]


def measure(name: str, seed: int, seconds: float, trace: bool,
            min_rounds: int, setups: int, smoke: bool,
            scratch: str, import_s: list) -> dict:
    import_s = import_s + [_IMPORT_S]
    spans = Spans(detail=trace)
    workload = WORKLOADS[name](seed, spans, scratch, smoke)

    synth = []
    for _ in range(setups):
        gc.collect()
        t0 = perf_counter()
        workload.setup()
        synth.append(perf_counter() - t0)
    setup_s = min(import_s) + min(synth)

    workload.round()  # warm-up: caches fill, lazy imports finish
    # A traced run spends half its budget here and the rest profiling.
    rounds = _run_rounds(workload, spans, min_rounds,
                         seconds / 2 if trace else seconds)
    n = len(rounds)
    first = rounds[0]
    failures = []
    aligned, names, best = _quietest(spans, n)
    if not aligned or any(
            (r["counts"], r["lines"]) != (first["counts"], first["lines"])
            for r in rounds):
        failures.append("a round did not reproduce the first round's "
                        "spans, counts and summary lines")

    def timed(prefix: str) -> list:
        dotted = prefix + "."
        return [seconds for name, seconds in zip(names, best)
                if name == prefix or name.startswith(dotted)]

    ops = [seconds for op in workload.ops for seconds in timed(op)]
    quiet_round_s = sum(ops)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / quiet_round_s,
        "op_p50_ms": p50(timed(workload.primary_op)) * 1e3,
    }
    metrics.update(workload.metrics(timed))

    exact = first["counts"]
    events = exact.get("sim.events_dispatched", 0)
    if events:
        metrics["events_per_s"] = events / quiet_round_s
        metrics["sim.us_per_event"] = quiet_round_s / events * 1e6
    if first["virtual_s"]:
        metrics["virtual_s_per_wall_s"] = first["virtual_s"] / quiet_round_s
    if exact.get("herd.clients"):
        metrics["clients_per_s"] = exact["herd.clients"] / quiet_round_s
    metrics.update(count_metrics(exact))

    digest = hashlib.sha256()
    for line in first["lines"]:
        digest.update(line.encode() + b"\n")
    digest.update(json.dumps(exact, sort_keys=True).encode())

    walls = spans.durations("round")
    if trace:
        profiler = cProfile.Profile()
        quiet = Spans(detail=False, profiler=profiler)
        workload.spans = quiet
        gc.collect()
        workload.round()
        workload.spans = spans
        plain_s = min(walls)
        metrics["trace.overhead_ratio"] = (
            quiet.durations("round", -1)[0] / plain_s)
        shares = layer_shares(profiler)
        for layer in LAYERS:
            metrics[f"{layer}.share"] = shares[layer]
            # Scaled to an unprofiled round, so the split adds up to a
            # time the end-to-end run really took.
            metrics[f"{layer}.self_s"] = shares[layer] * plain_s

    failures += workload.check()
    wrong = sum(result["failed"] for result in rounds)
    failed = wrong + len(failures)
    if wrong:
        failures.append(f"{wrong} operations produced wrong output, see "
                        f"the summary lines: {first['lines'][0]}")
    # Read last, so the checks' allocations are part of every run's peak.
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if trace:
        spans.dump(Path(scratch) / f"{name}-seed{seed}.spans.json")
    return {
        "workload": name,
        "parameters": dict(workload.params, seconds=seconds,
                           min_rounds=min_rounds, setups=setups),
        "rounds": n,
        "wall_s": sum(walls),
        "attempted": len(ops) * n,
        "failed": failed,
        "failures": failures,
        "correct": failed == 0,
        "metrics": metrics,
        "exact_counts": exact,
        "facts_sha256": digest.hexdigest(),
        "summary_lines": first["lines"][:3],
        "calibration_score": calibration_score(),
    }


if __name__ == "__main__":
    if sys.argv[1] == "imports":  # one more sample of the import cost
        print(_IMPORT_S)
    else:
        print(json.dumps(measure(**json.loads(sys.argv[1]))))
