"""Ports and connections (paper §4.2).

"Each activity is associated with a set of Port objects through which
streams enter and leave the activity.  A port has a direction, either
'in' or 'out', and a media data type. ... An 'in' port can be connected
to an 'out' port provided they are of the same data type."

Type compatibility follows :meth:`MediaType.accepts`: exact match, or the
receiving port declares the kind-level wildcard.  A connection owns the
bounded stream buffer carrying elements, and optionally a network-channel
reservation that charges transfer time and accounts traffic (used when a
connection crosses the database/application boundary, Figs. 3-4).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Generator, Optional
from weakref import ref

from repro.errors import ConnectionError_, PortError
from repro.sim import SettledCounter, Simulator
from repro.streams.buffer import StreamBuffer
from repro.streams.element import EndOfStream, StreamElement
from repro.values.mediatype import MediaType

if TYPE_CHECKING:  # pragma: no cover
    from repro.activities.base import MediaActivity
    from repro.net.channel import Reservation


class Direction(Enum):
    IN = "in"
    OUT = "out"


class Port:
    """A directed, typed stream endpoint owned by an activity."""

    def __init__(self, name: str, direction: Direction, media_type: MediaType,
                 owner: Optional["MediaActivity"] = None) -> None:
        self.name = name
        self.direction = direction
        self._media_type = media_type
        # The activity holds this port in its ``ports``; the port holds
        # it back weakly, so a finished graph is freed by reference
        # counting (DESIGN.md decision 23).  Read when wiring and when a
        # stopping activity finds its connection gone, never per element.
        self._owner = None if owner is None else ref(owner)
        self.connection: Optional[Connection] = None
        # When this port re-exports a component's port on a composite
        # activity, ``proxy_for`` points at the inner port.
        self.proxy_for: Optional[Port] = None

    @property
    def owner(self) -> Optional["MediaActivity"]:
        return None if self._owner is None else self._owner()

    @property
    def media_type(self) -> MediaType:
        return self._media_type

    def narrow(self, media_type: MediaType) -> None:
        """Refine an abstract port type to a concrete one (at bind time).

        If the port was connected while still abstract, the peer port must
        accept the narrowed type — the deferred same-data-type check for
        the paper's bind-after-connect statement order.
        """
        if not self._media_type.accepts(media_type):
            raise PortError(
                f"port {self.full_name} of type {self._media_type.name} "
                f"cannot narrow to {media_type.name}"
            )
        if self.connection is not None and self.direction is Direction.OUT:
            peer = self.connection.sink
            if not peer.media_type.accepts(media_type):
                raise PortError(
                    f"port {self.full_name} cannot narrow to {media_type.name}: "
                    f"connected sink {peer.full_name} accepts {peer.media_type.name}"
                )
        self._media_type = media_type

    @property
    def full_name(self) -> str:
        owner = self.owner.name if self.owner is not None else "?"
        return f"{owner}.{self.name}"

    @property
    def connected(self) -> bool:
        return self.connection is not None

    def resolve(self) -> "Port":
        """Follow proxy links to the concrete component port."""
        port = self
        while port.proxy_for is not None:
            port = port.proxy_for
        return port

    # -- stream I/O (used by activity processes) --------------------------
    def send(self, element: StreamElement | EndOfStream) -> Generator:
        if self.direction is not Direction.OUT:
            raise PortError(f"cannot send on 'in' port {self.full_name}")
        if self.connection is None:
            owner = self.owner
            from repro.activities.base import ActivityState
            if owner is not None and (
                    getattr(owner, "_stop_requested", False)
                    or owner.state is not ActivityState.RUNNING):
                # The connection was torn down while this activity was
                # being stopped (session close removes its graph links);
                # the element it was flushing has nowhere to go.  Drop it
                # instead of failing the stopping process.
                return
            raise PortError(f"port {self.full_name} is not connected")
        yield from self.connection.send(element)

    def receive(self) -> Generator:
        if self.direction is not Direction.IN:
            raise PortError(f"cannot receive on 'out' port {self.full_name}")
        if self.connection is None:
            owner = self.owner
            from repro.activities.base import ActivityState
            from repro.streams.element import END_OF_STREAM
            if owner is not None and (
                    getattr(owner, "_stop_requested", False)
                    or owner.state is not ActivityState.RUNNING):
                # Torn down while stopping (see ``send``): nothing more
                # will ever arrive, so hand the consumer its end-of-stream.
                return END_OF_STREAM
            raise PortError(f"port {self.full_name} is not connected")
        element = yield from self.connection.receive()
        return element


class Connection:
    """A stream link from an 'out' port to an 'in' port.

    Parameters
    ----------
    simulator:
        DES kernel the buffer runs on.
    source / sink:
        The out-port and in-port.  Composite (proxy) ports are accepted;
        the connection attaches to the resolved concrete ports but type
        checking uses the ports as given.
    capacity:
        Buffer bound (elements).
    reservation:
        Optional network-channel reservation; when present, each element
        pays its transfer time before entering the buffer and the
        channel's traffic accounting is charged.
    """

    def __init__(self, simulator: Simulator, source: Port, sink: Port,
                 capacity: int = 8,
                 reservation: Optional["Reservation"] = None) -> None:
        if source.direction is not Direction.OUT:
            raise ConnectionError_(
                f"connection source must be an 'out' port, got {source.full_name}"
            )
        if sink.direction is not Direction.IN:
            raise ConnectionError_(
                f"connection sink must be an 'in' port, got {sink.full_name}"
            )
        # Same-data-type rule.  An out port still carrying an abstract
        # kind-level type (source created before its value is bound, as in
        # the paper's statement order 1-3-5) may connect to a same-kind in
        # port; the bind-time narrowing re-validates against this sink.
        abstract_ok = (
            source.media_type.is_abstract
            and source.media_type.kind is sink.media_type.kind
        )
        if not sink.media_type.accepts(source.media_type) and not abstract_ok:
            raise ConnectionError_(
                f"type mismatch: {source.full_name} produces {source.media_type.name}, "
                f"{sink.full_name} accepts {sink.media_type.name}"
            )
        real_source = source.resolve()
        real_sink = sink.resolve()
        for port in (real_source, real_sink):
            if port.connection is not None:
                raise ConnectionError_(
                    f"port {port.full_name} is already connected "
                    f"(use a tee activity to fan out)"
                )
        self.simulator = simulator
        # The ports hold this connection; it holds them back weakly, like
        # a port its activity (see ``Port.__init__``).
        self._source = ref(real_source)
        self._sink = ref(real_sink)
        self.reservation = reservation
        self.buffer = StreamBuffer(
            simulator, capacity,
            name=f"{real_source.full_name}->{real_sink.full_name}",
        )
        real_source.connection = self
        real_sink.connection = self
        self._elements_sent = 0
        self._bits_sent = 0
        #: the clocked-out run feeding this connection, if any: it owns
        #: the two counters above and settles them when they are read.
        self.clocked = None

    elements_sent = SettledCounter("_elements_sent")
    bits_sent = SettledCounter("_bits_sent")

    @property
    def source(self) -> Port:
        return self._source()

    @property
    def sink(self) -> Port:
        return self._sink()

    def send(self, element: StreamElement | EndOfStream,
             serialized: bool = False) -> Generator:
        """Pipelined send: the sender pays serialization time; propagation
        latency is absorbed by a timed hand-off (``StreamBuffer.deposit``),
        so the sender can clock out the next element immediately.

        ``serialized`` finishes a send whose serialization a cut
        clock-out run began and timed (see ``Reservation.serialize``).
        """
        reservation = self.reservation
        latency = 0.0
        if isinstance(element, StreamElement):
            if reservation is not None:
                yield from reservation.serialize(element.size_bits,
                                                 serialized)
                latency = reservation.latency_s
            self._elements_sent += 1
            self._bits_sent += element.size_bits
        elif reservation is not None:
            # EOS rides the same path so ordering is preserved.
            latency = reservation.latency_s
        if latency > 0:
            self.buffer.deposit(element, self.simulator._clock.now + latency)
        else:
            yield from self.buffer.put(element)

    def receive(self) -> Generator:
        element = yield from self.buffer.get()
        return element

    def disconnect(self) -> None:
        """Tear the connection down and release any reservation."""
        self.source.connection = None
        self.sink.connection = None
        if self.reservation is not None:
            self.reservation.release()
