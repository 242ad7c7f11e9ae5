"""The AV database system: values + activities + resources (Fig. 3).

The system owns:

* a :class:`~repro.db.Database` for the passive state (objects, queries,
  transactions);
* a :class:`~repro.storage.PlacementManager` over simulated storage
  devices, with media-value placement visible to clients (§3.3);
* a :class:`~repro.avdb.ResourceManager` for shared special hardware;
* the system-wide :class:`~repro.activities.ActivityGraph` in which both
  database-located and application-located activities run;
* per-client network channels.

``make_source`` implements the §4.3 dynamic configuration: "if
SimpleNewscast.videoTrack values use various underlying representations
... then dynamic configuration of dbSource is necessary" — an encoded
value delivered raw becomes a reader+decoder composite; an analog value
becomes a digitizer; a raw value a plain reader.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.activities import ActivityGraph, CompositeActivity, Location, MultiSource
from repro.activities.library import (
    AudioReader,
    TextReader,
    VideoDecoder,
    VideoDigitizer,
    VideoReader,
)
from repro.avdb.resources import ResourceManager
from repro.db.database import Database
from repro.errors import MediaTypeError
from repro.net.channel import Channel
from repro.quality.negotiate import Negotiator
from repro.sim import Simulator
from repro.storage.devices import Device
from repro.storage.placement import PlacementManager
from repro.streams.sync import JitterModel
from repro.temporal.composite import TemporalComposite
from repro.values.audio import AudioValue
from repro.values.base import MediaValue
from repro.values.text import TextStreamValue
from repro.values.video import EncodedVideoValue, VideoValue

_session_ids = itertools.count(1)


class AVDatabaseSystem:
    """One AV database system instance on one DES kernel."""

    def __init__(self, simulator: Optional[Simulator] = None,
                 database: Optional[Database] = None,
                 name: str = "avdb") -> None:
        self.simulator = simulator if simulator is not None else Simulator()
        # NOT `database or ...`: an empty Database is falsy via __len__.
        # A system-created database shares the simulator's observability
        # context so db.* and sim.* metrics land in one registry.
        self.db = (database if database is not None
                   else Database(obs=self.simulator.obs))
        self.name = name
        self.placement = PlacementManager(self.simulator)
        self.resources = ResourceManager(self.simulator)
        self.graph = ActivityGraph(self.simulator, name)
        self.negotiator = Negotiator()
        #: read-ahead factor for device stream reservations: readers pull
        #: from storage faster than real time so pipeline latency stays
        #: bounded (ablation knob).
        self.readahead = 2.0
        #: the system-wide admission controller, once enabled.
        self.admission = None

    # -- observability ----------------------------------------------------
    @property
    def metrics(self):
        """The system-wide metrics registry (sim.*, stream.*, storage.*...)."""
        return self.simulator.obs.metrics

    # -- storage ---------------------------------------------------------
    def add_storage(self, device: Device) -> Device:
        return self.placement.add_device(device)

    def store_value(self, value: MediaValue,
                    device_name: Optional[str] = None) -> None:
        """Place a media value on a storage device (client-visible)."""
        if device_name is None:
            self.placement.place_auto(value)
        else:
            self.placement.place(value, device_name)

    # -- sessions ----------------------------------------------------------
    def open_session(self, name: Optional[str] = None,
                     channel_bps: float = 100_000_000.0,
                     latency_s: float = 0.001,
                     channel: Optional[Channel] = None):
        """Open a client session over a network channel.

        By default each session gets a dedicated channel sized
        ``channel_bps``; pass ``channel`` to multiplex many sessions over
        one shared trunk instead (the overload workloads do this, with an
        admission controller arbitrating the trunk — see
        :meth:`enable_admission`).
        """
        from repro.session.session import Session
        session_name = name or f"session-{next(_session_ids)}"
        if channel is None:
            channel = Channel(self.simulator, channel_bps, latency_s,
                              name=f"{session_name}-channel")
        return Session(self, session_name, channel)

    def enable_admission(self, channel: Channel, **kwargs):
        """Put an admission controller in front of ``channel``.

        Sessions opened over the same channel route their connection-time
        bandwidth reservations through the controller (priority classes,
        degradation floors, watermark shedding) instead of raw
        first-come-first-served ``channel.reserve``.  Returns the
        controller; it is also available as ``system.admission``.
        """
        from repro.admission.controller import AdmissionController
        self.admission = AdmissionController(self.simulator, channel, **kwargs)
        return self.admission

    # -- dynamic source configuration (§4.3) -------------------------------
    def make_source(self, value: MediaValue, deliver: str = "stored",
                    name: Optional[str] = None,
                    jitter: Optional[JitterModel] = None,
                    register: bool = True):
        """Build a database-located source activity for a stored value.

        ``deliver='stored'`` streams the stored representation (compressed
        values stay compressed on the wire, saving bandwidth);
        ``deliver='raw'`` configures decoding at the database so the
        client receives raw elements.  Analog values always pass through a
        digitizer.  The source takes a device-bandwidth reservation when
        the value is placed.
        """
        if deliver not in ("stored", "raw"):
            raise MediaTypeError(f"deliver must be 'stored' or 'raw', got {deliver!r}")
        source = self._build_source(value, deliver, name, jitter)
        self._attach_io(source, value)
        if register:
            self.graph.add(source)
        return source

    def _build_source(self, value: MediaValue, deliver: str,
                      name: Optional[str], jitter: Optional[JitterModel]):
        if isinstance(value, VideoValue) and value.media_type.analog:
            digitizer = VideoDigitizer(
                self.simulator, name=name, location=Location.DATABASE, jitter=jitter
            )
            digitizer.bind(value)
            return digitizer
        if isinstance(value, EncodedVideoValue) and deliver == "raw":
            # Dynamic configuration: reader + decoder inside one composite.
            composite = CompositeActivity(
                self.simulator, name=name or f"source-{value.media_type.encoding}",
                location=Location.DATABASE,
            )
            reader = VideoReader(
                self.simulator, name=f"{composite.name}.read",
                location=Location.DATABASE, jitter=jitter,
            )
            reader.bind(value)
            decoder = VideoDecoder(
                self.simulator, value.codec, value.width, value.height, value.depth,
                name=f"{composite.name}.decode", location=Location.DATABASE,
            )
            composite.install(reader)
            composite.install(decoder)
            # Inner connection (reader -> decoder) and the raw export.  The
            # inner link is private wiring, not a graph-level connection.
            from repro.activities.ports import Connection
            Connection(self.simulator, reader.port("video_out"),
                       decoder.port("video_in"))
            composite.export(decoder.port("video_out"), "out")
            composite._io_reader = reader  # device reservation target
            return composite
        if isinstance(value, VideoValue):
            reader = VideoReader(
                self.simulator, name=name, location=Location.DATABASE, jitter=jitter
            )
            reader.bind(value)
            return reader
        if isinstance(value, AudioValue):
            reader = AudioReader(
                self.simulator, name=name, location=Location.DATABASE, jitter=jitter
            )
            reader.bind(value)
            return reader
        if isinstance(value, TextStreamValue):
            reader = TextReader(
                self.simulator, name=name, location=Location.DATABASE, jitter=jitter
            )
            reader.bind(value)
            return reader
        raise MediaTypeError(
            f"no source configuration for {type(value).__name__}"
        )

    def _attach_io(self, source, value: MediaValue) -> None:
        """Reserve device bandwidth for a placed value's reader.

        A real-time stream needs at least the value's own data rate from
        its device; below that, admission fails (the §3.3 scheduling
        failure) rather than handing out an underrunning reservation.
        Above the floor, the reader takes up to ``readahead x`` the rate
        so pipeline latency stays a small constant.
        """
        if not self.placement.is_placed(value):
            return
        device = self.placement.device_of(value)
        demand = value.data_rate_bps()
        if not device.can_admit(demand):
            device._refuse(
                f"device {device.name!r} cannot sustain a {demand:g} b/s "
                f"stream ({device.available_bps:g} b/s available)"
            )
        bps = min(demand * self.readahead, device.available_bps)
        reservation = device.reserve(bps, label=f"{getattr(source, 'name', 'source')}")
        target = getattr(source, "_io_reader", source)
        target.io_stream = reservation

    def make_multisource(self, composite_value: TemporalComposite,
                         deliver: str = "stored",
                         name: Optional[str] = None,
                         jitter_factory=None,
                         resync_interval: Optional[int] = None) -> MultiSource:
        """A MultiSource with one component source per track (§4.3).

        The returned composite is bound to ``composite_value`` and
        maintains synchronization of its components through its sync
        group (optionally actively, via ``resync_interval``).
        """
        multi = MultiSource(
            self.simulator, name=name, location=Location.DATABASE,
            resync_interval=resync_interval,
        )
        self.graph.add(multi)
        try:
            for track in composite_value.track_names:
                value = composite_value.value(track)
                jitter = jitter_factory(track) if jitter_factory is not None else None
                component = self.make_source(
                    value, deliver=deliver, name=f"{multi.name}.{track}",
                    jitter=jitter, register=False,
                )
                multi.install(component, track=track)
        except BaseException:
            # A track failed (its device refused it, say): give back what
            # the tracks before it reserved and take the MultiSource out.
            self._retire(multi)
            raise
        multi._bound = composite_value
        return multi

    def _retire(self, activity) -> None:
        """Release the device reservations of ``activity`` (and of its
        components) and remove it from the graph if it is there."""
        for leaf in self.graph._flatten(activity):
            io_stream = getattr(leaf, "io_stream", None)
            if io_stream is not None and not getattr(io_stream, "released", True):
                io_stream.release()
        if self.graph.activities.get(activity.name) is activity:
            self.graph.remove(activity)

    # -- convenience ---------------------------------------------------------
    def run(self, until=None):
        return self.simulator.run(until)
