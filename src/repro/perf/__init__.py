"""Performance tooling: profiling and hotspot reporting.

``python -m repro profile <scenario>`` runs any scenario in the
:mod:`repro.scenarios` name table under :mod:`cProfile` and prints the
top-N hotspots, so optimization PRs can find their targets without
guessing.
The measured numbers live in ``BENCH_PERF.json`` (repo root) and are
produced by ``benchmarks/bench_kernel_throughput.py``.
"""

from repro.perf.profile import profile_scenario

__all__ = ["profile_scenario"]
