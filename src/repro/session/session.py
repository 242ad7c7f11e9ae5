"""Client sessions: the §4.3 pseudo-code as an executable API.

The paper's first example::

    1 dbSource = new activity VideoSource for SimpleNewscast.videoTrack
    2 appSink = new activity VideoWindow quality 320x240x8 @ 30
    3 videostream = new connection from dbSource.out to appSink.in
    4 myNews = select SimpleNewscast where (title = "60 Minutes" and ...)
    5 bind myNews.videoTrack to dbSource
    6 start videostream

maps to::

    db_source = session.new_activity(VideoReader(sim, location=DATABASE))  # 1
    app_sink = session.new_video_window("320x240x8@30")        # 2
    stream = session.connect(db_source, app_sink)              # 3
    my_news = session.select_one("SimpleNewscast",
                                 Q.eq("title", "60 Minutes") & ...)  # 4
    session.bind((my_news, "videoTrack"), db_source)           # 5
    stream.start()                                             # 6

Statements 1-3 really allocate resources — shared devices at activity
creation, network bandwidth at connection time — and really fail when
resources are insufficient, as the paper specifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

from repro.activities import (
    ActivityState,
    CompositeActivity,
    Location,
    MediaActivity,
    MultiSink,
)
from repro.activities.library import VideoWindow
from repro.activities.ports import Connection, Direction, Port
from repro.admission.controller import Priority, QoSContract, degraded_rate
from repro.avtime import WorldTime
from repro.db.objects import DBObject, OID
from repro.db.query import Predicate
from repro.errors import AdmissionError, SessionError
from repro.net.channel import Channel
from repro.quality.factors import VideoQuality, parse_quality
from repro.sim import weak_hook
from repro.streams.sync import JitterModel
from repro.temporal.composite import TemporalComposite
from repro.values.base import MediaValue


@dataclass(frozen=True, slots=True)
class Notification:
    """One asynchronously delivered activity event."""

    activity: str
    event: str
    payload: Any
    at: WorldTime


class Stream:
    """Handle for a started (or startable) stream: the §4.3 objects
    ``videostream`` / ``compositestream``."""

    def __init__(self, session: "Session", connections: List[Connection],
                 activities: List[MediaActivity]) -> None:
        # The counter, not the session: the session holds its streams.
        self._m_started = session._m_streams_started
        self.connections = connections
        self.activities = activities
        self.started = False

    def start(self) -> None:
        """Start every endpoint activity; the transfer then proceeds in
        parallel with the client (asynchronous interface)."""
        if self.started:
            raise SessionError("stream already started")
        self.started = True
        self._m_started.inc()
        for activity in self.activities:
            if activity.state is not ActivityState.RUNNING:
                activity.start()

    def stop(self) -> None:
        """'At any point the application may stop the transfer.'"""
        for activity in self.activities:
            if activity.state is ActivityState.RUNNING:
                activity.stop()

    @property
    def bits_transferred(self) -> int:
        return sum(c.bits_sent for c in self.connections)

    def finished(self) -> bool:
        return all(a.finished for a in self.activities)


class Recording:
    """Handle on an in-progress capture into the database."""

    def __init__(self, session: "Session", stream: Stream, writer) -> None:
        self.session = session
        self.stream = stream
        self.writer = writer

    def start(self) -> None:
        self.stream.start()

    def finished(self) -> bool:
        return self.stream.finished()

    def store(self, class_name: str, attribute: str,
              device: Optional[str] = None, **attributes: Any):
        """Persist the captured value and catalog it as a new object."""
        if not self.finished():
            raise SessionError("recording still in progress; run the "
                               "simulation to completion (or stop it) first")
        value = self.writer.result()
        self.session.system.store_value(value, device)
        oid = self.session.system.db.insert(
            class_name, **{attribute: value}, **attributes
        )
        return oid, value


class Session:
    """One client application's connection to the AV database."""

    def __init__(self, system, name: str, channel: Channel) -> None:
        self.system = system
        self.name = name
        self.channel = channel
        self.notifications: List[Notification] = []
        self._activities: List[MediaActivity] = []
        self._leases: List = []
        self._streams: List[Stream] = []
        self.closed = False
        #: streams admitted at reduced bandwidth via ``connect(degrade=True)``.
        self.degraded_streams = 0
        self.obs = system.simulator.obs
        metrics = self.obs.metrics
        self._m_streams_started = metrics.counter("session.streams_started")
        self._m_degraded_sessions = metrics.counter("faults.degraded_sessions")
        self._m_notifications = metrics.counter("session.notifications")
        self._m_qos_ratio = metrics.histogram("session.qos_ratio")
        metrics.counter("session.opened").inc()

    # -- queries (issue-request / receive-reply is fine for these) --------
    def select(self, class_name: str, predicate: Optional[Union[Predicate, str]] = None) -> List[OID]:
        """Returns *references*, never the AV values themselves (§3.1).

        ``predicate`` may be a :class:`Predicate` or a textual
        where-expression, e.g. ``'title = "60 Minutes"'``.
        """
        self._require_open()
        if isinstance(predicate, str):
            from repro.db.parser import parse_predicate
            predicate = parse_predicate(predicate)
        return self.system.db.select(class_name, predicate)

    def select_one(self, class_name: str, predicate: Optional[Predicate] = None) -> OID:
        self._require_open()
        return self.system.db.select_one(class_name, predicate)

    def fetch(self, oid: OID) -> DBObject:
        self._require_open()
        return self.system.db.get(oid)

    # -- activity creation (statements 1-2) -------------------------------
    def new_activity(self, activity: MediaActivity,
                     device_kind: Optional[str] = None) -> MediaActivity:
        """Register a client-created activity with the system.

        ``device_kind`` names a shared-device pool the activity needs
        (e.g. a database-side mixer); allocation is fail-fast.
        """
        self._require_open()
        if device_kind is not None:
            self._leases.append(self.system.resources.allocate(device_kind))
        self.system.graph.add(activity)
        self._activities.append(activity)
        return activity

    def new_video_window(self, quality: Union[str, VideoQuality, None] = None,
                         name: Optional[str] = None) -> VideoWindow:
        """Statement 2: ``new activity VideoWindow quality 320x240x8@30``."""
        if isinstance(quality, str):
            quality = parse_quality(quality)
        window = VideoWindow(self.system.simulator, quality=quality,
                             name=name or f"{self.name}.window",
                             location=Location.APPLICATION)
        return self.new_activity(window)

    def new_multi_sink(self, name: Optional[str] = None) -> MultiSink:
        sink = MultiSink(self.system.simulator,
                         name=name or f"{self.name}.multisink",
                         location=Location.APPLICATION)
        return self.new_activity(sink)

    def new_db_source(self, value_or_ref, deliver: str = "stored",
                      jitter: Optional[JitterModel] = None,
                      name: Optional[str] = None) -> MediaActivity:
        """Statement 1 + 5 combined: a database-located source bound to a
        stored value (or ``(oid, attribute)`` reference)."""
        self._require_open()
        value = self._resolve_value(value_or_ref)
        if isinstance(value, TemporalComposite):
            source = self.system.make_multisource(value, deliver=deliver, name=name)
        else:
            source = self.system.make_source(value, deliver=deliver,
                                             name=name, jitter=jitter)
        self._activities.append(source)
        return source

    def _resolve_value(self, value_or_ref):
        if isinstance(value_or_ref, (MediaValue, TemporalComposite)):
            return value_or_ref
        # An OID is itself a 2-tuple; bare, it names an object, not a value.
        if (isinstance(value_or_ref, tuple) and len(value_or_ref) == 2
                and not isinstance(value_or_ref, OID)):
            ref, attribute = value_or_ref
            obj = self.fetch(ref) if isinstance(ref, OID) else ref
            path = attribute.split(".")
            value = obj
            for part in path:
                value = getattr(value, part)
            return value
        raise SessionError(
            f"cannot resolve {value_or_ref!r} to a media value "
            f"(pass a value, or (oid, 'attr') / (oid, 'tcomp.track'))"
        )

    # -- binding (statement 5, when done after creation) --------------------
    def bind(self, value_or_ref, activity: MediaActivity) -> None:
        self._require_open()
        activity.bind(self._resolve_value(value_or_ref))

    # -- connections (statement 3) -----------------------------------------
    def connect(self, source: Union[MediaActivity, Port],
                sink: Union[MediaActivity, Port],
                capacity: int = 8,
                bandwidth_bps: Optional[float] = None,
                degrade: bool = False,
                min_degraded_fraction: float = 0.25,
                priority: Optional[Priority] = None) -> Stream:
        """``new connection from <source>.out to <sink>.in``.

        Crossing the database/application boundary takes a bandwidth
        reservation on the session's channel — "this statement would fail
        if insufficient network bandwidth were available".

        With ``degrade=True`` an insufficient-bandwidth failure is
        renegotiated downward instead: the stream is admitted at the
        channel's remaining capacity, as long as that is at least
        ``min_degraded_fraction`` of the requested rate.  The element
        flow then runs slower than the nominal presentation rate —
        graceful QoS degradation rather than outright refusal.

        When the system has an admission controller in front of this
        session's channel (``system.enable_admission``), the reservation
        routes through it instead: ``priority`` selects the QoS class
        (default :attr:`~repro.admission.Priority.STANDARD`), degradation
        follows the same ``min_degraded_fraction`` floor, and background
        requests can be shed under overload.

        Two composites connect track by track (``compositestream``): each
        pair of exported ports is one such connection, sized by its
        source track's value, and ``bandwidth_bps`` applies to a single
        stream only.
        """
        self._require_open()
        graph = self.system.graph
        if isinstance(source, CompositeActivity) and isinstance(sink, CompositeActivity):
            pairs = graph.pair_composites(source, sink)
            crosses = self._crosses_boundary(source, sink)
            owners = [source, sink]
            bandwidth_bps = None
        else:
            source_port = self._single_port(source, Direction.OUT)
            sink_port = self._single_port(sink, Direction.IN)
            pairs = [(source_port, sink_port)]
            crosses = self._crosses_boundary(source_port.resolve().owner,
                                             sink_port.resolve().owner)
            owners = [source if isinstance(source, MediaActivity) else source_port.owner,
                      sink if isinstance(sink, MediaActivity) else sink_port.owner]
        connections = []
        reservation = None
        try:
            for out_port, in_port in pairs:
                reservation = None
                if crosses:
                    bps = bandwidth_bps or graph._port_bandwidth(out_port)
                    reservation = self._reserve_bandwidth(bps, degrade,
                                                          min_degraded_fraction,
                                                          priority)
                connections.append(
                    graph.connect(out_port, in_port, capacity, reservation))
        except BaseException:
            # Statement 3 failed part-way (admission refused a later
            # track, or the graph refused a pair): give back the bandwidth
            # and the connections this call took rather than stranding
            # them on the channel.
            if reservation is not None:
                reservation.release()
            for connection in connections:
                graph.connections.remove(connection)
                connection.disconnect()
            raise
        stream = Stream(self, connections, owners)
        self._streams.append(stream)
        return stream

    def _reserve_bandwidth(self, bps: float, degrade: bool,
                           min_fraction: float,
                           priority: Optional[Priority]):
        """Take the connection's channel reservation, via the admission
        controller when one fronts this session's channel."""
        admission = getattr(self.system, "admission", None)
        if admission is not None and admission.channel is self.channel:
            contract = QoSContract(
                bps,
                Priority.STANDARD if priority is None else priority,
                min_fraction if degrade else 1.0,
            )
            reservation = admission.try_admit(contract,
                                              label=f"{self.name}-stream")
            if reservation.bps + 1e-9 < bps:
                self._note_degraded(reservation.bps / bps)
            return reservation
        try:
            return self.channel.reserve(bps, label=f"{self.name}-stream")
        except AdmissionError:
            if not degrade:
                raise
            return self._degraded_reservation(bps, min_fraction)

    def _degraded_reservation(self, bps: float, min_fraction: float):
        """Renegotiate a failed reservation down to the leftover capacity."""
        available = self.channel.available_bps
        granted = degraded_rate(available, bps, min_fraction)
        if not granted:
            # Even the degraded contract cannot be honoured; the original
            # admission failure stands.
            raise AdmissionError(
                f"channel {self.channel.name!r}: {available:g} b/s left, below "
                f"the degraded floor of {bps * min_fraction:g} b/s "
                f"({min_fraction:.0%} of the requested {bps:g} b/s)"
            )
        reservation = self.channel.reserve(granted,
                                           label=f"{self.name}-stream-degraded")
        self._note_degraded(granted / bps)
        return reservation

    def _note_degraded(self, fraction: float) -> None:
        if self.degraded_streams == 0:
            self._m_degraded_sessions.inc()
        self.degraded_streams += 1
        if self.obs.decisions.enabled:
            self.obs.decisions.emit("session-degraded", self.name,
                                    actor="session",
                                    fraction=round(fraction, 4))
        self.obs.metrics.gauge(
            f"session.{self.name}.degraded_fraction"
        ).set(fraction)

    @staticmethod
    def _crosses_boundary(a: MediaActivity, b: MediaActivity) -> bool:
        return a.location is not b.location

    @staticmethod
    def _single_port(endpoint: Union[MediaActivity, Port],
                     direction: Direction) -> Port:
        if isinstance(endpoint, Port):
            return endpoint
        ports = [p for p in endpoint.ports.values() if p.direction is direction]
        if len(ports) != 1:
            raise SessionError(
                f"activity {endpoint.name!r} has {len(ports)} {direction.value} "
                f"ports; pass the port explicitly"
            )
        return ports[0]

    # -- recording / ingest -------------------------------------------------
    def record(self, source: MediaActivity, codec=None,
               geometry: Optional[Tuple[int, int, int]] = None,
               rate: float = 30.0, name: Optional[str] = None) -> "Recording":
        """Record a video stream into the database (Scenario I capture).

        Wires ``source`` (a raw-video producer — typically a
        :class:`~repro.activities.live.LiveCamera`, a digitizer or any
        raw out-port activity) through an optional encoder into a
        database-located writer.  Returns a :class:`Recording`; after the
        stream finishes, ``recording.store(...)`` persists the captured
        value and inserts a catalog object.
        """
        from repro.activities.library import VideoEncoder, VideoWriter
        label = name or f"{self.name}.recording"
        writer = VideoWriter(self.system.simulator, name=f"{label}.write",
                             location=Location.DATABASE, rate=rate,
                             codec=codec, geometry=geometry)
        self.system.graph.add(writer)
        self._activities.append(writer)
        activities = [source, writer]
        if codec is not None:
            encoder = VideoEncoder(self.system.simulator, codec,
                                   name=f"{label}.encode",
                                   location=Location.DATABASE)
            self.system.graph.add(encoder)
            self._activities.append(encoder)
            up = self.connect(source, encoder.port("video_in"))
            down = self.connect(encoder.port("video_out"), writer)
            connections = up.connections + down.connections
            activities.insert(1, encoder)
        else:
            stream = self.connect(source, writer)
            connections = stream.connections
        recording = Recording(self, Stream(self, connections, activities), writer)
        return recording

    # -- asynchronous notification ---------------------------------------
    def notify_on(self, activity: MediaActivity, event_name: str) -> None:
        """Subscribe: events arrive in ``session.notifications``."""
        self._require_open()
        # The session holds the activity; a weak hook keeps the activity
        # from holding the session (DESIGN.md decision 23).
        activity.catch(event_name, weak_hook(self._notify))

    def _notify(self, activity: MediaActivity, event_name: str,
                payload: Any) -> None:
        self._m_notifications.inc()
        self.notifications.append(Notification(
            activity.name, event_name, payload, self.system.simulator.now))

    def notifications_for(self, activity: MediaActivity) -> List[Notification]:
        return [n for n in self.notifications if n.activity == activity.name]

    # -- running ---------------------------------------------------------
    def run(self, until: Optional[WorldTime] = None) -> WorldTime:
        """Drive the simulation (the 'client event loop')."""
        return self.system.simulator.run(until)

    def _record_qos(self) -> None:
        """Compare delivered presentation rates with the negotiated QoS.

        For every sink that carries a quality contract with a frame/sample
        rate, the delivered rate is read from its presentation log and
        published as a ratio (1.0 = contract met exactly).
        """
        for activity in self._activities:
            quality = getattr(activity, "quality", None)
            log = getattr(activity, "log", None)
            rate = getattr(quality, "rate", None)
            if not rate or log is None or len(log) < 2:
                continue
            span_s = (log.records[-1].actual - log.records[0].actual).seconds
            if span_s <= 0:
                continue
            delivered = (len(log) - 1) / span_s
            ratio = delivered / rate
            self._m_qos_ratio.observe(ratio)
            self.obs.metrics.gauge(
                f"session.{self.name}.qos_ratio"
            ).set(ratio)

    def close(self) -> None:
        """Stop this session's running activities and free its resources."""
        if self.closed:
            return
        self._record_qos()
        for activity in self._activities:
            if activity.state is ActivityState.RUNNING:
                activity.stop()
        for lease in self._leases:
            if not lease.released:
                lease.release()
        # Give back the channel bandwidth this session's streams reserved.
        for stream in self._streams:
            for connection in stream.connections:
                if connection.reservation is not None:
                    connection.reservation.release()
        # Give back device-bandwidth reservations and retire this
        # session's activities from the system graph, so a long-lived
        # system survives session churn without accreting state (the
        # churn test opens and closes 100 sessions and checks the system
        # ends exactly as it started).
        for activity in self._activities:
            self.system._retire(activity)
        self.closed = True

    def _require_open(self) -> None:
        if self.closed:
            raise SessionError(f"session {self.name!r} is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
