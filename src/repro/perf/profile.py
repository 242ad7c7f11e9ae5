"""cProfile-based hotspot reporting over the scenario registry.

A scenario name is resolved through the name table in
:mod:`repro.scenarios`, so every scenario the CLI can run can also be
profiled.  Runs execute under the default observability configuration
(metrics on, tracing off), which is the hot path the optimization work
targets.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Tuple

from repro.scenarios import table

#: pstats sort keys accepted by the CLI.
SORT_KEYS = ("cumulative", "tottime", "ncalls")


def profile_scenario(name: str, top: int = 15,
                     sort: str = "cumulative") -> Tuple[str, object]:
    """Run a scenario under cProfile; return (report text, scenario facts).

    The report holds the top-``top`` entries sorted by ``sort``
    (one of ``cumulative``, ``tottime``, ``ncalls``).
    """
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")
    from repro.obs import scoped

    scenario = table()[name]
    profiler = cProfile.Profile()
    with scoped(tracing=False):
        profiler.enable()
        facts = scenario.run()
        profiler.disable()

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    header = (f"== profile: {name} ({scenario.family.name} scenario, "
              f"top {top} by {sort}) ==\n")
    return header + buf.getvalue(), facts
