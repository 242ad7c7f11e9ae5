"""Failure-recovery policies, in virtual time.

Three composable defenses against the faults :mod:`repro.faults.plan`
injects:

* :func:`with_retries` — retry a failed DES subroutine with exponential
  backoff (virtual-time delays; attempt counts in ``faults.retries``);
* :func:`supervised` — restart a crashed/hung/timed-out process up to
  ``max_restarts`` times (``faults.restarts``).

All are generator subroutines for DES processes::

    request = yield from with_retries(sim, lambda: disk.read(pos, bits))
    result  = yield from supervised(sim, make_worker, deadline_s=2.0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.errors import DeadlineExceeded, FaultError, Interrupted
from repro.sim import Delay, Process, Simulator, Timeout, WaitProcess

#: what a recovery layer treats as transient: injected faults
#: (device/channel/scheduler) and guard-level timeouts.
TRANSIENT = (FaultError, DeadlineExceeded)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Exponential backoff: ``base * factor**attempt``, capped.

    ``max_attempts`` counts the first try, so ``max_attempts=4`` means
    one try plus up to three retries.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.01
    factor: float = 2.0
    max_delay_s: float = 10.0

    def delay_for(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (0-based)."""
        return min(self.base_delay_s * self.factor ** retry_index, self.max_delay_s)


def with_retries(simulator: Simulator,
                 make_attempt: Callable[[], Generator],
                 policy: RetryPolicy = RetryPolicy(),
                 label: Optional[str] = None) -> Generator:
    """DES subroutine: run ``make_attempt()`` until it succeeds or the
    policy is exhausted.

    ``make_attempt`` must build a *fresh* generator per call (a generator
    cannot be re-run).  On a retryable failure the subroutine sleeps the
    policy's backoff in virtual time and tries again; the final failure
    re-raises.  With ``label`` set, each retry (and a final exhaustion)
    is recorded as a decision event about that subject, tying recovery
    activity into the session's causal chain
    (:mod:`repro.obs.decisions`).
    """
    retries = simulator.obs.metrics.counter("faults.retries")
    decisions = simulator.obs.decisions
    attempt = 0
    while True:
        try:
            result = yield from make_attempt()
            return result
        except TRANSIENT as exc:
            attempt += 1
            if attempt >= policy.max_attempts:
                if label is not None and decisions.enabled:
                    decisions.emit("retries-exhausted", label,
                                   actor="recovery", attempts=attempt,
                                   error=type(exc).__name__)
                raise
            retries.inc()
            backoff = policy.delay_for(attempt - 1)
            if label is not None and decisions.enabled:
                decisions.emit("retry", label, actor="recovery",
                               attempt=attempt, error=type(exc).__name__,
                               backoff_s=backoff)
            yield Delay(backoff)


def supervised(simulator: Simulator,
               make_gen: Callable[[], Generator],
               max_restarts: int = 3,
               deadline_s: Optional[float] = None,
               backoff: RetryPolicy = RetryPolicy(),
               name: str = "supervised",
               first_process: Optional[Process] = None) -> Generator:
    """DES subroutine: run ``make_gen()`` as a process, restarting it when
    it crashes (``FaultError``/``Interrupted``), hangs past ``deadline_s``,
    or times out — up to ``max_restarts`` times, with backoff.

    Pass ``first_process`` to adopt an already-spawned process as the
    first attempt (useful when a fault injector must be armed against the
    process before the supervisor starts); restarts still come from
    ``make_gen()``.
    """
    restarts = simulator.obs.metrics.counter("faults.restarts")
    failures = 0
    while True:
        if failures == 0 and first_process is not None:
            proc = first_process
        else:
            attempt_name = f"{name}#{failures}" if failures else name
            proc = simulator.spawn(make_gen(), name=attempt_name)
        try:
            if deadline_s is not None:
                result = yield Timeout(proc, deadline_s)
            else:
                result = yield WaitProcess(proc)
            return result
        except DeadlineExceeded as exc:
            proc.interrupt()  # a hung attempt must not keep resources
            failure: BaseException = exc
        except (FaultError, Interrupted) as exc:
            failure = exc
        failures += 1
        if failures > max_restarts:
            raise failure
        restarts.inc()
        yield Delay(backoff.delay_for(failures - 1))
