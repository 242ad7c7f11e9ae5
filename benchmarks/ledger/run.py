"""The perf ledger: four end-to-end workloads with a per-layer split.

    python3 benchmarks/ledger/run.py --seed N [--workload W]
        [--seconds S] [--trace [0|1]] [--smoke] [--agree]

Each workload runs in a fresh single-threaded subprocess (``child.py``).
This file prints every metric by name with its unit, appends one
provenance-carrying row per run to ``results/runs.jsonl``, and ends each
workload with one JSON line: the end-to-end metrics of ``BENCHMARK.json``
for ``--trace 0``, its per-layer metrics for ``--trace 1``.  The exit
code is non-zero when any output check fails.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
MANIFEST = ROOT / "BENCHMARK.json"

#: repeats of the round that always run, however slow the machine.
MIN_ROUNDS = 3
#: set-up repetitions; ``setup_s`` is the fastest of them.
SETUPS = 3
CHILD_TIMEOUT_S = 170

#: one thread, one hash seed: the child's timings and dict orders must
#: not depend on how the shell that launched us was configured.
NOISE_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _git_rev() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Measure one workload in a child process; returns its ledger row."""
    RESULTS.mkdir(exist_ok=True)
    request = {
        "name": name, "seed": seed, "seconds": seconds, "trace": trace,
        "min_rounds": MIN_ROUNDS,
        "setups": 1 if smoke else SETUPS,
        "smoke": smoke, "scratch": str(RESULTS),
    }
    env = {**os.environ, **NOISE_ENV}
    child = [sys.executable, str(HERE / "child.py")]
    started_at = _now()
    # Imports cannot be repeated inside one process, so the other
    # set-up samples come from throwaway children that only import.
    request["import_s"] = [
        float(subprocess.run([*child, "imports"], env=env, check=True,
                             stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT_S).stdout)
        for _ in range(request["setups"] - 1)]
    command = [*child, json.dumps(request)]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"ledger: workload {name!r} crashed "
                         f"(exit {done.returncode})")
    row = {
        "started_at": started_at,
        "ended_at": _now(),
        "executed_command": [sys.executable, *sys.argv],
        "child_command": command[:2],
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "environment": NOISE_ENV,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": os.cpu_count(),
    }
    row.update(json.loads(done.stdout.splitlines()[-1]))
    with open(RESULTS / "runs.jsonl", "a") as out:
        out.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def report(row: dict, manifest: dict) -> None:
    """Print every known metric by name with its unit, then the result
    line the contract asks for."""
    level = "per_layer" if row["trace"] else "end_to_end"
    units = {m["name"]: m["unit"]
             for key in ("end_to_end", "per_layer") for m in manifest[key]}
    measured = row["metrics"]
    missing = [m["name"] for m in manifest["end_to_end"]
               if m["name"] not in measured]
    if missing:
        raise SystemExit(f"ledger: {row['workload']} did not measure "
                         f"{missing}")
    print(f"== {row['workload']} seed={row['seed']} rounds={row['rounds']} "
          f"wall_s={row['wall_s']:.3f} attempted={row['attempted']} "
          f"failed={row['failed']} facts_sha256={row['facts_sha256'][:16]}")
    gated = {m["name"] for m in manifest["end_to_end"]}
    for name, unit in units.items():
        # A layer the workload never entered is left out of the table.
        if name in gated or measured.get(name):
            print(f"   {name:<34} {measured[name]:>18.6f} {unit}")
    for failure in row["failures"]:
        print(f"   CHECK FAILED: {failure}")
    # A layer a workload never enters measures 0, it is not left out.
    result = {
        "correct": row["correct"],
        "attempted": row["attempted"],
        "failed": row["failed"],
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0),
                                "unit": m["unit"]}
                    for m in manifest[level]},
    }
    print(json.dumps(result))


def agree(first: dict, second: dict, manifest: dict) -> list:
    """Differences between two runs of one workload that the benchmark's
    own bounds do not allow."""
    name = first["workload"]
    problems = []
    for metric in manifest["end_to_end"]:
        a = first["metrics"][metric["name"]]
        b = second["metrics"][metric["name"]]
        if abs(a - b) > metric["bound"] * a:
            problems.append(f"{name}: {metric['name']} {a:.6g} vs {b:.6g} "
                            f"differ by more than {metric['bound']:.0%}")
    for key in ("exact_counts", "facts_sha256", "failed"):
        if first[key] != second[key]:
            problems.append(f"{name}: {key} differs between the two runs")
    return problems


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not MANIFEST.is_file():
        print("ledger: no src/repro to measure (run from a full checkout)",
              file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text())
    names = [w["name"] for w in manifest["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest["run_seconds"]),
                        help="length of the timed section per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="per-layer run: spans plus a profiled pass")
    parser.add_argument("--smoke", action="store_true",
                        help="same shapes, a tenth of the repetitions")
    parser.add_argument("--agree", action="store_true",
                        help="run two sets back to back and compare them")
    args = parser.parse_args(argv)

    chosen = [args.workload] if args.workload else names
    seconds = 1.0 if args.smoke else args.seconds
    sets = []
    for _ in range(2 if args.agree else 1):
        rows = [run_workload(name, args.seed, seconds, bool(args.trace),
                             args.smoke) for name in chosen]
        for row in rows:
            report(row, manifest)
        sets.append(rows)

    status = 0 if all(row["correct"] for rows in sets for row in rows) else 1
    if args.agree:
        problems = [problem for first, second in zip(*sets)
                    for problem in agree(first, second, manifest)]
        for problem in problems:
            print(f"AGREE FAILED: {problem}")
        if problems:
            status = 1
        else:
            print("agree ok: every end-to-end metric within its bound, "
                  "counts and facts_sha256 identical")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
