"""Deterministic fault injection and failure recovery.

Continuous media make failure *visible*: a crashed disk scheduler or a
lossy channel does not just slow a query down, it tears frames out of a
presentation the user is watching.  This package stress-tests the rest
of the repro under seeded, replayable adversity:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a declarative seeded
  schedule of device/scheduler/channel/process faults;
* :mod:`repro.faults.injector` — :class:`FaultInjector` arms a plan
  against live components and logs every injection;
* :mod:`repro.faults.recovery` — retry with exponential backoff,
  deadline guards, and process supervision, all in virtual time;
* :mod:`repro.faults.scenarios` — named demos for
  ``python -m repro faults <scenario>``.

Everything is deterministic: the same seed replays the identical fault
schedule, so recovery policies are compared under byte-identical
adversity (see ``benchmarks/bench_fault_recovery.py``).
"""

from repro.faults.injector import ChannelFaults, DeviceFaults, FaultInjector
from repro.faults.plan import KINDS, Fault, FaultPlan
from repro.faults.recovery import (
    TRANSIENT,
    RetryPolicy,
    supervised,
    with_retries,
)
from repro.faults.scenarios import SCENARIOS

__all__ = [
    "KINDS",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "DeviceFaults",
    "ChannelFaults",
    "TRANSIENT",
    "RetryPolicy",
    "with_retries",
    "supervised",
    "SCENARIOS",
]
