"""The abstract ``MediaActivity`` class (paper §4.2).

The paper's partial specification::

    class MediaActivity {
        PortSet  ports
        EventSet events
        Bind(MediaValue, Port)
        Cue(WorldTime)
        Start()
        Stop()
        Catch(Event, Handler)
    }

plus the surrounding notions: *activity creation* (instantiating a
subclass), *activity location* ("the processor or node on which they
execute"), *activity ports*, *activity binding*, *activity control* and
*activity event notification*.  Activities run as DES processes; their
behaviour is the subclass's ``_process`` generator.
"""

from __future__ import annotations

import abc
from enum import Enum
from typing import Any, Generator, Optional, Tuple

from repro.activities.events import (
    EVENT_FINISHED,
    EVENT_STARTED,
    EVENT_STOPPED,
    EventDispatcher,
    Handler,
)
from repro.activities.ports import Direction, Port
from repro.avtime import WorldTime
from repro.errors import ActivityStateError, PortError
from repro.sim import Process, Simulator
from repro.values.mediatype import MediaType


class Location(Enum):
    """Where an activity executes (paper: database vs application node)."""

    DATABASE = "database"
    APPLICATION = "application"


class ActivityState(Enum):
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"  # stopped by the application before completion
    FINISHED = "finished"  # ran to end of stream


class ActivityKind(Enum):
    """Source / sink / transformer classification (paper §3.1, §4.2)."""

    SOURCE = "source"
    SINK = "sink"
    TRANSFORMER = "transformer"

    @staticmethod
    def classify(has_in: bool, has_out: bool) -> "ActivityKind":
        """Map port directions to the paper's three activity kinds."""
        if has_in and has_out:
            return ActivityKind.TRANSFORMER
        if has_out:
            return ActivityKind.SOURCE
        if has_in:
            return ActivityKind.SINK
        raise PortError("an activity must declare at least one port")


def _next_activity_ordinal(simulator: Simulator) -> int:
    """Per-simulator ordinal for auto-generated activity names.

    Keyed to the simulator (not a process-global counter) so a scenario's
    activity names — which leak into trace track names — depend only on
    construction order within its own simulation.  Rerunning a scenario in
    the same process then yields byte-identical trace exports.
    """
    ordinal = getattr(simulator, "_activity_ordinal", 0) + 1
    simulator._activity_ordinal = ordinal
    return ordinal


class MediaActivity(abc.ABC):
    """Abstract base of all activities.

    Subclasses declare ports in ``__init__`` via :meth:`add_port`, extend
    :attr:`EVENT_NAMES` with their events, and implement :meth:`_process`
    as a DES generator.
    """

    #: events every activity can emit; subclasses extend this tuple.
    EVENT_NAMES: Tuple[str, ...] = (EVENT_STARTED, EVENT_STOPPED, EVENT_FINISHED)

    def __init__(self, simulator: Simulator, name: Optional[str] = None,
                 location: Location = Location.APPLICATION) -> None:
        self.simulator = simulator
        self.name = name or (f"{type(self).__name__.lower()}"
                             f"-{_next_activity_ordinal(simulator)}")
        self.location = location
        self.ports: dict[str, Port] = {}
        self.events = EventDispatcher(self.EVENT_NAMES)
        self.state = ActivityState.CREATED
        self._bound: Any = None
        self._cue_position = WorldTime.zero()
        self._stop_requested = False
        self._proc: Optional[Process] = None
        #: when False the activity runs in free-run mode (no rate pacing);
        #: used by the pure-throughput benchmarks (DESIGN.md ablation 1).
        self.paced = True
        #: the run that has this activity's future worked out, while it
        #: lasts: a source's clocked-out run (``activities.clockout``) or a
        #: consumer chain's (``activities.consumer``).  It owns the
        #: activity's counters and is cut before a stop or a catch.
        self.clocked = None

    # -- ports ---------------------------------------------------------------
    def add_port(self, name: str, direction: Direction, media_type: MediaType) -> Port:
        if name in self.ports:
            raise PortError(f"activity {self.name!r} already has a port {name!r}")
        port = Port(name, direction, media_type, owner=self)
        self.ports[name] = port
        return port

    def port(self, name: str) -> Port:
        """Look up a declared port by name."""
        try:
            return self.ports[name]
        except KeyError:
            raise PortError(
                f"activity {self.name!r} has no port {name!r} "
                f"(ports: {sorted(self.ports)})"
            ) from None

    def in_ports(self) -> list[Port]:
        return [p for p in self.ports.values() if p.direction is Direction.IN]

    def out_ports(self) -> list[Port]:
        return [p for p in self.ports.values() if p.direction is Direction.OUT]

    @property
    def kind(self) -> ActivityKind:
        """Sink, source or transformer, from the port directions."""
        return ActivityKind.classify(bool(self.in_ports()), bool(self.out_ports()))

    # -- binding ---------------------------------------------------------
    def bind(self, value: Any, port_name: Optional[str] = None) -> None:
        """The paper's ``Bind(MediaValue, Port)``.

        The default implementation stores the value for the activity's
        single bindable role; subclasses validate media types and may
        narrow abstract port types to the bound value's type.
        """
        if self.state is ActivityState.RUNNING:
            raise ActivityStateError(f"cannot bind while {self.name!r} is running")
        self._validate_binding(value, port_name)
        self._bound = value

    def _validate_binding(self, value: Any, port_name: Optional[str]) -> None:
        """Subclass hook; default accepts anything."""

    @property
    def bound_value(self) -> Any:
        return self._bound

    # -- control ---------------------------------------------------------
    def cue(self, when: WorldTime) -> None:
        """Position the activity at world time ``when`` of its bound value."""
        if self.state is ActivityState.RUNNING:
            raise ActivityStateError(f"cannot cue while {self.name!r} is running")
        self._cue_position = when

    def start(self) -> Process:
        """Spawn the activity's process; returns the DES process handle."""
        if self.state is ActivityState.RUNNING:
            raise ActivityStateError(f"activity {self.name!r} is already running")
        self._pre_start()
        self.state = ActivityState.RUNNING
        self._stop_requested = False
        self._proc = self.simulator.spawn(self._run(), name=self.name)
        return self._proc

    def _pre_start(self) -> None:
        """Subclass hook: validate configuration, acquire device resources."""

    def stop(self) -> None:
        """Request the activity stop at the next element boundary."""
        if self.clocked is not None:
            self.clocked.cut()
        if self.state is not ActivityState.RUNNING:
            raise ActivityStateError(
                f"cannot stop {self.name!r} in state {self.state.value}"
            )
        self._stop_requested = True

    def catch(self, event_name: str, handler: Handler) -> None:
        """The paper's ``Catch(Event, Handler)``."""
        if self.clocked is not None:
            self.clocked.cut()
        self.events.catch(event_name, handler)

    @property
    def process(self) -> Optional[Process]:
        return self._proc

    @property
    def finished(self) -> bool:
        return self.state in (ActivityState.FINISHED, ActivityState.STOPPED)

    # -- process scaffolding ------------------------------------------------
    def _run(self) -> Generator:
        self.events.emit(self, EVENT_STARTED, self.simulator.now)
        span = self.simulator.obs.tracer.begin(
            self.name, f"activity.{self.kind.value}", track=self.name,
            location=self.location.value,
        ) if self.simulator.obs.tracer.enabled else None
        try:
            yield from self._process()
        finally:
            if self._stop_requested:
                self.state = ActivityState.STOPPED
                self.events.emit(self, EVENT_STOPPED, self.simulator.now)
            else:
                self.state = ActivityState.FINISHED
                self.events.emit(self, EVENT_FINISHED, self.simulator.now)
            if span is not None:
                span.end(outcome=self.state.value)

    @abc.abstractmethod
    def _process(self) -> Generator:
        """The activity body: a DES generator producing/consuming elements."""

    def _emit(self, event_name: str, payload: Any = None) -> None:
        self.events.emit(self, event_name, payload)
