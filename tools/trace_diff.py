"""Say how two Chrome-trace exports of one scenario differ.

A canonical-trace hash (``tests/golden/trace_hashes.json``) says *that* a
schedule changed; this says *what* changed, so a re-pin can carry its
evidence.  Events are compared as multisets without their lane ids (a
``tid`` is only the order in which lanes first appear) and without
wall-clock stamps, and reported grouped by category and name stem
(``deliver:<connection>`` counts under ``deliver:*``,
``<activity>:prefetch`` under ``*:prefetch``); then the metrics whose
snapshots differ are listed.

Usage::

    python tools/trace_diff.py A.trace.json B.trace.json

Exit status 0 when the two exports are equal, 1 when they differ.
"""

from __future__ import annotations

import json
import sys
from collections import Counter


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


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.load(open(path)) for path in argv)
    ea, eb = _events(a), _events(b)
    print(f"events: {sum(ea.values())} -> {sum(eb.values())}")
    differs = False
    for label, gone in (("only in A", ea - eb), ("only in B", eb - ea)):
        stems = Counter()
        for (stem, _), count in gone.items():
            stems[stem] += count
        for stem, count in sorted(stems.items()):
            differs = True
            print(f"  {label}: {count:4d} x {stem}")
    ma = a["otherData"].get("metrics", {})
    mb = b["otherData"].get("metrics", {})
    for name in sorted(set(ma) | set(mb)):
        if ma.get(name) != mb.get(name):
            differs = True
            print(f"  metric {name}: {ma.get(name)} -> {mb.get(name)}")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
