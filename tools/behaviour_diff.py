"""Say how this tree's behaviour differs from a revision's.

Every run of :func:`runs` is captured (:func:`capture`) on the revision,
checked out with ``git worktree``, and on this working tree, in two
concurrent subprocesses.  A run's capture is its facts, its decision log,
its metric snapshot and its canonical trace; the golden hashes in
``tests/golden/trace_hashes.json`` pin the last three of the same
captures, so this is what explains a failing pin.  Per run it prints:

- the facts and metric keys that moved, ``a -> b``;
- the decision kinds whose counts moved and the first differing event;
- the trace events gained and lost, grouped by category and name stem
  (``deliver:<connection>`` counts under ``deliver:*``,
  ``<activity>:prefetch`` under ``*:prefetch``), compared as multisets
  without their lane ids (a ``tid`` is only the order in which lanes
  first appear);
- runs present in only one tree.

:func:`runs` and :func:`capture` use only ``repro.scenarios.table``,
``repro.obs.scoped`` and ``repro.obs.canonical_trace_bytes``, so this
file also captures revisions older than itself.

Usage::

    python tools/behaviour_diff.py <rev>

Exit status 0 when the two trees behave the same, 1 when they differ,
2 on error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
#: the crowd the ledger's ``herd_day`` runs; every ``herd-*`` scenario
#: runs its own 20k-30k.
CROWD = 1_000_000
ARTIFACTS = ("decisions", "metrics", "trace")

Run = Tuple[str, int, Dict[str, object]]


def runs() -> Dict[str, Run]:
    """Run id -> (qualified name, seed, keywords): every
    ``<family>-<name>`` of the table at seeds 0 and 1 (an unseeded
    ``trace`` preset once), and the herd day at the ledger's crowd."""
    from repro.scenarios import table

    out: Dict[str, Run] = {}
    for name, scenario in table().items():
        if name != f"{scenario.family.name}-{scenario.name}":
            continue
        if scenario.family.seeded:
            for seed in (0, 1):
                out[f"{name} --seed {seed}"] = (name, seed, {})
        else:
            out[name] = (name, 0, {})
    for seed in (0, 1):
        out[f"herd-day --seed {seed} --clients {CROWD}"] = (
            "herd-day", seed, {"clients": CROWD})
    return out


def capture(name: str, seed: int = 0, **params) -> Dict[str, object]:
    """Run the scenario ``name`` of the table at ``seed`` (and ``params``)
    in a fresh traced observability scope: its facts, and its decision
    log, metric snapshot (both sorted-key JSON) and canonical trace as
    bytes.  Tracing moves no decision and no metric."""
    from repro.obs import canonical_trace_bytes, scoped
    from repro.scenarios import table

    with scoped(tracing=True) as obs:
        scenario = table()[name]
        facts = (scenario.fn(seed=seed, **params) if scenario.family.seeded
                 else scenario.fn(**params))
        # The order the pins were taken in: the trace settles the
        # metrics before the log and the snapshot are read.
        trace = canonical_trace_bytes(obs.tracer, obs.metrics)
        return {
            "facts": facts,
            "decisions": json.dumps(
                [event.to_dict() for event in obs.decisions.events],
                sort_keys=True).encode(),
            "metrics": json.dumps(obs.metrics.snapshot(),
                                  sort_keys=True).encode(),
            "trace": trace,
        }


def dump(path: str) -> None:
    """Capture every run and write them to ``path`` as JSON, facts as
    their reprs."""
    out = {}
    for run_id, (name, seed, params) in runs().items():
        got = capture(name, seed, **params)
        out[run_id] = dict(
            {artifact: got[artifact].decode() for artifact in ARTIFACTS},
            facts={key: repr(value) for key, value in got["facts"].items()})
    Path(path).write_text(json.dumps(out))


def _stem(event: dict) -> str:
    meta = event["ph"] == "M"
    name = event["args"]["name"] if meta else event["name"]
    head, _, tail = name.partition(":")
    if tail:
        # "deliver:<connection>" -> "deliver:*"; "<activity>:prefetch"
        # -> "*:prefetch".
        name = f"{head}:*" if head.isalpha() else f"*:{tail}"
    kind = event["name"] if meta else event.get("cat", "repro")
    return f"{kind} {name}"


def _events(doc: dict) -> Counter:
    out: Counter = Counter()
    for event in doc["traceEvents"]:
        args = {k: v for k, v in event.get("args", {}).items()
                if k not in ("wall_s", "wall_dur_s")}
        body = {k: v for k, v in event.items() if k not in ("tid", "args")}
        out[(_stem(event), json.dumps([body, args], sort_keys=True))] += 1
    return out


def _moved(label: str, a: dict, b: dict) -> List[str]:
    return [f"{label} {key}: {a.get(key)} -> {b.get(key)}"
            for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]


def _decisions(a: list, b: list) -> List[str]:
    ka = Counter(event["kind"] for event in a)
    kb = Counter(event["kind"] for event in b)
    lines = [f"decisions {kind}: {ka[kind]} -> {kb[kind]}"
             for kind in sorted(set(ka) | set(kb)) if ka[kind] != kb[kind]]
    first = next(i for i, pair in enumerate(zip(a + [None], b + [None]))
                 if pair[0] != pair[1])
    pair = [events[first] if first < len(events) else None
            for events in (a, b)]
    kinds = " -> ".join(dict.fromkeys(event["kind"] for event in pair
                                      if event is not None))
    lines.append(f"decisions first difference, event {first} ({kinds}):")
    lines += [f"  {side} {json.dumps(event, sort_keys=True)}"
              for side, event in zip("-+", pair)]
    return lines


def _trace(a: dict, b: dict) -> List[str]:
    ea, eb = _events(a), _events(b)
    lines = []
    for label, gone in (("only in A", ea - eb), ("only in B", eb - ea)):
        stems: Counter = Counter()
        for (stem, _), count in gone.items():
            stems[stem] += count
        lines += [f"trace {label}: {count} x {stem}"
                  for stem, count in sorted(stems.items())]
    if lines:
        lines.insert(0, f"trace events: {sum(ea.values())} -> "
                        f"{sum(eb.values())}")
    oa, ob = a.get("otherData", {}), b.get("otherData", {})
    lines += [f"trace otherData.{key} differs"
              for key in sorted(set(oa) | set(ob))
              if oa.get(key) != ob.get(key)]
    return lines or ["trace differs in lane ids only"]


def compare(a: dict, b: dict) -> List[str]:
    """How one run's capture ``b`` differs from ``a``, a line a change."""
    lines = _moved("facts", a["facts"], b["facts"])
    for artifact, explain in (("metrics", partial(_moved, "metrics")),
                              ("decisions", _decisions), ("trace", _trace)):
        if a[artifact] != b[artifact]:
            lines += explain(json.loads(a[artifact]), json.loads(b[artifact]))
    return lines


def report(a: dict, b: dict, out: Callable[[str], None] = print) -> int:
    """Print how the captures ``b`` (run id -> capture) differ from ``a``;
    return the exit status, 0 when they are equal and 1 when not."""
    differs = False
    for run_id in sorted(set(a) | set(b)):
        if run_id not in b or run_id not in a:
            lines = [f"only in {'A' if run_id in a else 'B'}"]
        else:
            lines = compare(a[run_id], b[run_id])
        if lines:
            differs = True
            out(f"{run_id}:")
            for line in lines:
                out(f"  {line}")
    return int(differs)


#: What each tree's subprocess runs: the tool from this tree, ``repro``
#: from the tree under test (checked, lest an installed copy answer).
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import repro; "
         "assert repro.__file__.startswith(sys.argv[3]), repro.__file__; "
         "import behaviour_diff; behaviour_diff.dump(sys.argv[2])")


def _collect(trees: Dict[str, Path], scratch: str) -> Dict[str, dict]:
    """Capture every run on each tree, all trees at once."""
    procs = {}
    for label, tree in trees.items():
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        procs[label] = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(Path(__file__).parent),
             os.path.join(scratch, f"{label}.json"), env["PYTHONPATH"]],
            env=env, cwd=scratch)
    failed = [label for label, proc in procs.items() if proc.wait()]
    if failed:
        raise RuntimeError(f"capture failed on {', '.join(failed)}")
    return {label: json.loads(Path(scratch, f"{label}.json").read_text())
            for label in trees}


def main(argv: List[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    git = ["git", "-C", str(ROOT)]
    try:
        with tempfile.TemporaryDirectory() as scratch:
            tree = Path(scratch, "tree")
            subprocess.run(git + ["worktree", "add", "--quiet", "--detach",
                                  str(tree), argv[0]], check=True)
            try:
                got = _collect({"A": tree, "B": ROOT}, scratch)
            finally:
                subprocess.run(git + ["worktree", "remove", "--force",
                                      str(tree)], check=True)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"behaviour_diff: {exc}", file=sys.stderr)
        return 2
    print(f"A = {argv[0]}, B = the working tree ({ROOT})")
    return report(got["A"], got["B"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
