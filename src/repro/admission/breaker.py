"""Circuit breakers over faulting components, in virtual time.

A :class:`CircuitBreaker` guards calls against a component that can
fault (a storage device, the disk scheduler).  While the component is
healthy the breaker is *closed* and calls pass through.  After
``failure_threshold`` consecutive faults it *opens*: further calls fail
fast with :class:`~repro.errors.CircuitOpenError` instead of queueing
behind a dead resource.  After ``reset_timeout_s`` of virtual time the
breaker goes *half-open* and lets exactly one probe through; a
successful probe closes the breaker, a faulting probe re-opens it.

The state machine is driven entirely by the simulator's virtual clock
(no wall time anywhere), so breaker transitions are as deterministic as
the fault plan that causes them.  Every transition is appended to
``breaker.transitions`` and published to ``admission.*`` metrics:

* ``admission.breaker.<name>.state`` — gauge: 0 closed, 0.5 half-open,
  1 open;
* ``admission.breaker_transitions`` — counter over all breakers;
* ``admission.breaker_fast_failures`` — calls rejected without being
  attempted.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Generator, List, Tuple, Type

from repro.errors import CircuitOpenError, FaultError, SimulationError
from repro.sim import Simulator


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: gauge encoding of the state (ordered by "how broken").
_STATE_LEVEL = {
    BreakerState.CLOSED: 0.0,
    BreakerState.HALF_OPEN: 0.5,
    BreakerState.OPEN: 1.0,
}

TransitionRecord = Tuple[float, str, str]


class CircuitBreaker:
    """Closed → open → half-open → closed, on a virtual-time timer."""

    def __init__(self, simulator: Simulator, name: str = "breaker",
                 failure_threshold: int = 3,
                 reset_timeout_s: float = 0.5,
                 trip_on: Tuple[Type[BaseException], ...] = (FaultError,)) -> None:
        if failure_threshold < 1:
            raise SimulationError(
                f"breaker failure threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise SimulationError(
                f"breaker reset timeout must be positive, got {reset_timeout_s}"
            )
        self.simulator = simulator
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.trip_on = trip_on
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.fast_failures = 0
        #: every state change: (virtual time, from-state, to-state).
        self.transitions: List[TransitionRecord] = []
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._decisions = simulator.obs.decisions
        metrics = simulator.obs.metrics
        self._m_state = metrics.gauge(f"admission.breaker.{name}.state")
        self._m_transitions = metrics.counter("admission.breaker_transitions")
        self._m_fast_failures = metrics.counter("admission.breaker_fast_failures")
        self._m_state.set(0.0)

    # -- state machine -----------------------------------------------------
    def _transition(self, to: BreakerState) -> None:
        if to is self.state:
            return
        now = self.simulator.now_s
        self.transitions.append((now, self.state.value, to.value))
        if self._decisions.enabled:
            self._decisions.emit("breaker", self.name, actor="breaker",
                                 state=to.value, prev=self.state.value)
        self.state = to
        self._m_state.set(_STATE_LEVEL[to])
        self._m_transitions.inc()
        tracer = self.simulator.obs.tracer
        if tracer.enabled:
            tracer.instant(f"breaker:{to.value}", "admission", breaker=self.name)

    def allow(self) -> bool:
        """Would a call be attempted right now?  (Advances open → half-open.)"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.simulator.now_s >= self._opened_at + self.reset_timeout_s:
                self._transition(BreakerState.HALF_OPEN)
                return True
            return False
        return not self._probe_in_flight  # half-open: one probe at a time

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._open()
        elif (self.state is BreakerState.CLOSED
              and self.consecutive_failures >= self.failure_threshold):
            self._open()

    def _open(self) -> None:
        self._opened_at = self.simulator.now_s
        self._transition(BreakerState.OPEN)

    # -- guarded calls -----------------------------------------------------
    def call(self, make_attempt: Callable[[], Generator]) -> Generator:
        """DES subroutine: run ``make_attempt()`` through the breaker.

        Fails fast with :class:`~repro.errors.CircuitOpenError` while
        open (or while a half-open probe is already in flight).  A fault
        from the attempt (per ``trip_on``) counts against the breaker and
        re-raises; any other outcome counts as success.
        """
        if not self.allow():
            self.fast_failures += 1
            self._m_fast_failures.inc()
            raise CircuitOpenError(
                f"breaker {self.name!r} is {self.state.value} "
                f"({self.consecutive_failures} consecutive faults); failing fast"
            )
        probing = self.state is BreakerState.HALF_OPEN
        if probing:
            self._probe_in_flight = True
        try:
            result = yield from make_attempt()
        except self.trip_on:
            self.record_failure()
            raise
        finally:
            if probing:
                self._probe_in_flight = False
        self.record_success()
        return result
