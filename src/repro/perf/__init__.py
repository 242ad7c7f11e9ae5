"""Performance tooling: profiling and hotspot reporting.

``python -m repro profile <scenario>`` runs any scenario in the
:mod:`repro.scenarios` name table under :mod:`cProfile` and prints the
top-N hotspots, so optimization PRs can find their targets without
guessing.
The committed throughput trajectory lives in ``BENCH_PERF.json`` (repo
root); the gate test in ``benchmarks/bench_kernel_throughput.py`` reads
its smoke row, and nothing writes it.
"""

from repro.perf.profile import profile_scenario

__all__ = ["profile_scenario"]
