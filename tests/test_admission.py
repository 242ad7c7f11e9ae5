"""Admission control under overload (PR 3).

Covers the :mod:`repro.admission` controller policy (admit / degrade /
shed / queue / preempt / time out), the circuit breaker and its interop
with :mod:`repro.faults`, the resource-lifetime context managers, and
this PR's satellite regressions: the ``Session.connect`` reservation
leak, session churn hygiene, and wait-die behaviour under concurrent
metadata load.
"""

import pytest

from repro.activities import Location
from repro.activities.library import Speaker
from repro.admission import (
    AdmissionController,
    BreakerState,
    CircuitBreaker,
    Priority,
    QoSContract,
    SCENARIOS,
)
from repro.avdb import AVDatabaseSystem
from repro.db import AttributeSpec, ClassDef, Q
from repro.errors import (
    AdmissionError,
    AdmissionTimeoutError,
    AVDBError,
    ChannelFaultError,
    CircuitOpenError,
    LockTimeoutError,
    PreemptedError,
    ResourceError,
)
from repro.net.channel import Channel
from repro.obs import scoped
from repro.sim import Delay, Simulator
from repro.storage import MagneticDisk
from repro.synth import moving_scene
from repro.values import VideoValue
from repro.watch.explain import describe

MBPS = 1_000_000.0


def make_controller(capacity_mbps=2.0, **kwargs):
    sim = Simulator()
    trunk = Channel(sim, capacity_mbps * MBPS, name="trunk")
    return sim, trunk, AdmissionController(sim, trunk, **kwargs)


def build_system():
    system = AVDatabaseSystem()
    video = moving_scene(15, 64, 48)
    system.add_storage(MagneticDisk(system.simulator, "disk0",
                                    bandwidth_bps=video.data_rate_bps() * 10))
    system.db.define_class(ClassDef("Clip", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("video", VideoValue),
    ]))
    system.store_value(video, "disk0")
    system.db.insert("Clip", title="shared", video=video)
    return system, video


class TestControllerPolicy:
    def test_full_admission_then_reject(self):
        sim, trunk, ctrl = make_controller(2.0)
        a = ctrl.try_admit(QoSContract(MBPS), label="a")
        b = ctrl.try_admit(QoSContract(MBPS), label="b")
        with pytest.raises(AdmissionError):
            ctrl.try_admit(QoSContract(MBPS), label="c")
        assert sim.obs.metrics.counter("admission.rejected").value == 1
        a.release()
        c = ctrl.try_admit(QoSContract(MBPS), label="c")
        assert trunk.reserved_bps == 2 * MBPS
        b.release()
        c.release()
        assert trunk.reserved_bps == 0

    def test_degraded_admission_honours_floor(self):
        sim, trunk, ctrl = make_controller(1.5)
        ctrl.try_admit(QoSContract(MBPS), label="full")
        # A floorless contract cannot be squeezed into the leftover.
        with pytest.raises(AdmissionError):
            ctrl.try_admit(QoSContract(MBPS, min_fraction=1.0), label="rigid")
        degraded = ctrl.try_admit(QoSContract(MBPS, min_fraction=0.5),
                                  label="elastic")
        assert degraded.bps == pytest.approx(0.5 * MBPS)
        assert sim.obs.metrics.counter("admission.degraded").value == 1
        # Below the floor, even an elastic contract is refused.
        with pytest.raises(AdmissionError):
            ctrl.try_admit(QoSContract(MBPS, min_fraction=0.5), label="late")

    def test_watermark_sheds_background_first(self):
        sim, trunk, ctrl = make_controller(10.0, high_watermark=0.85)
        ctrl.try_admit(QoSContract(9 * MBPS), label="bulk")
        with pytest.raises(AdmissionError, match="shedding background"):
            ctrl.try_admit(QoSContract(0.5 * MBPS, Priority.BACKGROUND),
                           label="bg")
        assert sim.obs.metrics.counter("admission.shed").value == 1
        # The same leftover still serves non-background work.
        std = ctrl.try_admit(QoSContract(2 * MBPS, Priority.STANDARD, 0.5),
                             label="std")
        assert std.bps == pytest.approx(MBPS)

    def test_interactive_preempts_background(self):
        sim, trunk, ctrl = make_controller(2.0)
        bg_a = ctrl.try_admit(QoSContract(MBPS, Priority.BACKGROUND),
                              label="bg-a")
        bg_b = ctrl.try_admit(QoSContract(MBPS, Priority.BACKGROUND),
                              label="bg-b")
        urgent = ctrl.try_admit(
            QoSContract(2 * MBPS, Priority.INTERACTIVE), label="urgent"
        )
        assert urgent.bps == 2 * MBPS
        assert bg_a.preempted and bg_b.preempted
        assert bg_a.released and bg_b.released
        assert sim.obs.metrics.counter("admission.preempted").value == 2

        outcome = {}

        def victim():
            try:
                yield from bg_a.serialize(1000)
            except PreemptedError:
                outcome["preempted"] = True

        sim.spawn(victim())
        sim.run()
        assert outcome["preempted"]

    def test_standard_work_is_never_preempted(self):
        sim, trunk, ctrl = make_controller(2.0)
        ctrl.try_admit(QoSContract(2 * MBPS, Priority.STANDARD), label="std")
        with pytest.raises(AdmissionError):
            ctrl.try_admit(QoSContract(MBPS, Priority.INTERACTIVE),
                           label="urgent")
        assert sim.obs.metrics.counter("admission.preempted").value == 0

    def test_queued_request_granted_when_capacity_frees(self):
        sim, trunk, ctrl = make_controller(2.0)
        held = ctrl.try_admit(QoSContract(2 * MBPS), label="holder")
        granted_at = {}

        def holder():
            yield Delay(0.5)
            held.release()

        def waiter():
            reservation = yield from ctrl.admit(
                QoSContract(2 * MBPS, queue_timeout_s=2.0), label="waiter"
            )
            granted_at["t"] = sim.now.seconds
            reservation.release()

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert granted_at["t"] == pytest.approx(0.5)
        assert trunk.reserved_bps == 0
        assert sim.obs.metrics.counter("admission.queued").value == 1

    def test_queue_deadline_expires(self):
        sim, trunk, ctrl = make_controller(2.0)
        ctrl.try_admit(QoSContract(2 * MBPS), label="holder")
        outcome = {}

        def waiter():
            try:
                yield from ctrl.admit(
                    QoSContract(MBPS, queue_timeout_s=0.3), label="w"
                )
            except AdmissionTimeoutError:
                outcome["timeout_at"] = sim.now.seconds

        sim.spawn(waiter())
        sim.run()
        assert outcome["timeout_at"] == pytest.approx(0.3)
        assert ctrl.queue_depth == 0
        assert sim.obs.metrics.counter("admission.timeouts").value == 1

    def test_bounded_queue_displaces_lower_priority(self):
        sim, trunk, ctrl = make_controller(1.0, max_queue=1)
        held = ctrl.try_admit(QoSContract(MBPS), label="holder")
        outcomes = {}

        def standard():
            try:
                reservation = yield from ctrl.admit(
                    QoSContract(MBPS, Priority.STANDARD, queue_timeout_s=5.0),
                    label="std",
                )
                outcomes["std"] = "granted"
                reservation.release()
            except AdmissionError as error:
                outcomes["std"] = str(error)

        def interactive():
            yield Delay(0.1)
            reservation = yield from ctrl.admit(
                QoSContract(MBPS, Priority.INTERACTIVE, queue_timeout_s=5.0),
                label="urgent",
            )
            outcomes["urgent_at"] = sim.now.seconds
            reservation.release()

        def releaser():
            yield Delay(0.3)
            held.release()

        sim.spawn(standard())
        sim.spawn(interactive())
        sim.spawn(releaser())
        sim.run()
        assert "shed while queued" in outcomes["std"]
        assert outcomes["urgent_at"] == pytest.approx(0.3)

    def test_bounded_queue_backpressures_equal_priority(self):
        sim, trunk, ctrl = make_controller(1.0, max_queue=1)
        ctrl.try_admit(QoSContract(MBPS), label="holder")
        outcomes = {}

        def first():
            try:
                yield from ctrl.admit(
                    QoSContract(MBPS, queue_timeout_s=0.2), label="first"
                )
            except AdmissionTimeoutError:
                outcomes["first"] = "timeout"

        def second():
            yield Delay(0.05)
            try:
                yield from ctrl.admit(
                    QoSContract(MBPS, queue_timeout_s=0.2), label="second"
                )
            except AdmissionError as error:
                outcomes["second"] = str(error)

        sim.spawn(first())
        sim.spawn(second())
        sim.run()
        assert outcomes["first"] == "timeout"
        assert "backpressure" in outcomes["second"]

    def test_request_without_patience_never_enters_the_queue(self):
        """``admit`` with ``queue_timeout_s == 0`` is ``try_admit``: it
        must not displace a patient request and then time out in the
        same tick, leaving the freed trunk to nobody."""
        sim, trunk, ctrl = make_controller(1.0, max_queue=1)
        held = ctrl.try_admit(QoSContract(MBPS), label="holder")
        outcomes = {}

        def patient():
            yield Delay(0.1)
            try:
                reservation = yield from ctrl.admit(
                    QoSContract(MBPS, Priority.STANDARD, queue_timeout_s=5.0),
                    label="patient-std")
                outcomes["patient"] = ("admitted", sim.now.seconds)
                reservation.release()
            except AdmissionError as error:
                outcomes["patient"] = str(error)

        def impatient():
            yield Delay(0.2)
            try:
                yield from ctrl.admit(
                    QoSContract(MBPS, Priority.INTERACTIVE, queue_timeout_s=0),
                    label="impatient-int")
            except AdmissionError as error:
                outcomes["impatient"] = error

        def releaser():
            yield Delay(1.0)
            held.release()

        for process in (patient, impatient, releaser):
            sim.spawn(process())
        sim.run()
        assert outcomes["patient"] == ("admitted", pytest.approx(1.0))
        assert not isinstance(outcomes["impatient"], AdmissionTimeoutError)
        assert "cannot admit" in str(outcomes["impatient"])
        counter = sim.obs.metrics.counter
        assert counter("admission.rejected").value == 1
        assert counter("admission.queued").value == 1  # the patient one only
        assert counter("admission.timeouts").value == 0
        assert counter("admission.shed").value == 0

    def test_degraded_grant_from_the_queue_is_a_degraded_grant(self):
        """The pump takes its verdict from the same rule as a fresh
        arrival: same ``-degraded`` label, same event fields."""
        with scoped(tracing=False) as obs:
            sim, trunk, ctrl = make_controller(2.0)
            small = ctrl.try_admit(QoSContract(0.6 * MBPS), label="small")
            ctrl.try_admit(QoSContract(1.4 * MBPS), label="big")
            got = {}

            def waiter():
                got["r"] = yield from ctrl.admit(
                    QoSContract(MBPS, Priority.STANDARD, min_fraction=0.5,
                                queue_timeout_s=5.0), label="elastic")

            def releaser():
                yield Delay(0.25)
                small.release()

            sim.spawn(waiter())
            sim.spawn(releaser())
            sim.run()
        reservation = got["r"]
        assert reservation.bps == pytest.approx(0.6 * MBPS)
        assert reservation.label == "elastic-degraded"
        assert sim.obs.metrics.counter("admission.degraded").value == 1
        assert sim.obs.metrics.counter("admission.admitted").value == 2
        (event,) = obs.decisions.by_kind("degrade")
        assert event.subject == "elastic"
        assert event.args == {
            "bps": pytest.approx(0.6 * MBPS), "requested_bps": MBPS,
            "fraction": 0.6, "from_queue": True, "waited_s": 0.25,
        }
        assert describe(event) == (
            "degraded to 600000 b/s of 1e+06 b/s requested (60%) "
            "from queue after 0.25s")


class TestDeviceAdmission:
    def test_fail_fast_then_queue_with_deadline(self):
        sim, trunk, ctrl = make_controller(2.0)
        system = AVDatabaseSystem(simulator=sim)
        pool = system.resources.add_pool("dve", 1)
        lease = pool.allocate()
        outcomes = {}

        def releaser():
            yield Delay(0.5)
            lease.release()

        def waiter():
            got = yield from ctrl.acquire_device(pool, Priority.STANDARD,
                                                 timeout_s=2.0)
            outcomes["granted_at"] = sim.now.seconds
            got.release()

        sim.spawn(releaser())
        sim.spawn(waiter())
        sim.run()
        assert outcomes["granted_at"] == pytest.approx(0.5)
        assert pool.available == 1

    def test_timeout_does_not_strand_the_unit(self):
        """Even when the release lands in the very tick the waiter's
        deadline fires, the pool unit comes back (the scavenger path)."""
        sim, trunk, ctrl = make_controller(2.0)
        system = AVDatabaseSystem(simulator=sim)
        pool = system.resources.add_pool("dve", 1)
        lease = pool.allocate()
        outcomes = {}

        def releaser():
            yield Delay(1.0)
            lease.release()

        def waiter():
            try:
                yield from ctrl.acquire_device(pool, Priority.STANDARD,
                                               timeout_s=1.0)
            except AdmissionTimeoutError:
                outcomes["timed_out"] = True

        sim.spawn(releaser())
        sim.spawn(waiter())
        sim.run()
        assert outcomes["timed_out"]
        assert pool.available == 1, "device lease stranded after timeout"

    def test_background_is_shed_when_pool_busy(self):
        sim, trunk, ctrl = make_controller(2.0)
        system = AVDatabaseSystem(simulator=sim)
        pool = system.resources.add_pool("dve", 1)
        pool.allocate()
        outcomes = {}

        def bg():
            try:
                yield from ctrl.acquire_device(pool, Priority.BACKGROUND,
                                               timeout_s=5.0)
            except AdmissionError as error:
                outcomes["bg"] = str(error)

        sim.spawn(bg())
        sim.run()
        assert "shedding background" in outcomes["bg"]


class TestCircuitBreaker:
    def test_state_machine_on_virtual_clock(self):
        sim = Simulator()
        breaker = CircuitBreaker(sim, "dev", failure_threshold=2,
                                 reset_timeout_s=0.1)
        log = {}

        def failing():
            yield Delay(0.01)
            raise ChannelFaultError("injected")

        def healthy():
            yield Delay(0.01)
            return "ok"

        def driver():
            for _ in range(2):
                try:
                    yield from breaker.call(failing)
                except ChannelFaultError:
                    pass
            log["after_faults"] = breaker.state
            try:
                yield from breaker.call(healthy)
            except CircuitOpenError:
                log["fast_failed"] = True
            yield Delay(0.15)  # past the reset timeout -> half-open probe
            try:
                yield from breaker.call(failing)  # probe fails: re-open
            except ChannelFaultError:
                pass
            log["after_bad_probe"] = breaker.state
            yield Delay(0.15)
            result = yield from breaker.call(healthy)
            log["probe_result"] = result
            log["final"] = breaker.state

        sim.spawn(driver())
        sim.run()
        assert log["after_faults"] is BreakerState.OPEN
        assert log["fast_failed"]
        assert log["after_bad_probe"] is BreakerState.OPEN
        assert log["probe_result"] == "ok"
        assert log["final"] is BreakerState.CLOSED
        states = [(frm, to) for _, frm, to in breaker.transitions]
        assert states == [
            ("closed", "open"),
            ("open", "half-open"), ("half-open", "open"),
            ("open", "half-open"), ("half-open", "closed"),
        ]
        assert breaker.fast_failures == 1
        metrics = sim.obs.metrics
        assert metrics.counter("admission.breaker_transitions").value == 5
        assert metrics.gauge("admission.breaker.dev.state").value == 0.0

    def test_breaker_interops_with_fault_injection(self):
        """End-to-end against a repro.faults scheduler outage: open on
        consecutive faults, half-open probes on the virtual-time timer,
        closed after the restart — and no request left stranded."""
        facts = SCENARIOS["device-outage"](seed=3, admission=True)
        path = str(facts["breaker_path"])
        assert path.startswith("open")
        assert "half-open" in path
        assert path.endswith("closed")
        assert facts["breaker_state"] == "closed"
        assert int(facts["fast_failed_frames"]) > 0
        assert int(facts["stranded_requests"]) == 0
        assert (int(facts["delivered_frames"]) + int(facts["lost_frames"])
                + int(facts["fast_failed_frames"])
                == int(facts["negotiated_frames"]))


class TestContextManagers:
    def test_reservation_releases_on_exception(self):
        sim = Simulator()
        trunk = Channel(sim, 2 * MBPS, name="trunk")
        with pytest.raises(RuntimeError):
            with trunk.reserve(MBPS, label="cm") as reservation:
                assert trunk.reserved_bps == MBPS
                raise RuntimeError("body failed")
        assert reservation.released
        assert trunk.reserved_bps == 0

    def test_device_lease_releases_on_exception(self):
        system = AVDatabaseSystem()
        pool = system.resources.add_pool("mixer", 1)
        with pytest.raises(RuntimeError):
            with pool.allocate():
                assert pool.available == 0
                raise RuntimeError("body failed")
        assert pool.available == 1
        # Exit is idempotent, but an explicit double release still errors.
        lease = pool.allocate()
        lease.release()
        with pytest.raises(ResourceError):
            lease.release()


class TestConnectReservationLeak:
    def test_failed_connect_releases_its_reservation(self):
        """Regression: ``graph.connect`` raising after ``channel.reserve``
        succeeded must not strand the bandwidth (the §4.3 statement fails
        as a unit)."""
        system, video = build_system()
        session = system.open_session("leaky")
        ref = session.select_one("Clip", Q.eq("title", "shared"))
        source = session.new_db_source((ref, "video"))
        # A video source into an audio sink: admission succeeds (the
        # boundary is crossed, bandwidth is reserved), then the
        # type-checked connection fails.
        speaker = session.new_activity(Speaker(
            system.simulator, name="wrong-sink", location=Location.APPLICATION))
        with pytest.raises(AVDBError):
            session.connect(source, speaker)
        assert session.channel.reserved_bps == 0, (
            "failed connect stranded its bandwidth reservation"
        )
        # The channel is whole: the same stream connects fine afterwards.
        window = session.new_video_window(name="right-sink")
        session.connect(source, window).start()
        system.run()
        assert len(window.presented) == 15


class TestSessionChurn:
    def test_hundred_sessions_leave_no_residue(self):
        """Open/connect/stream/close 100 sessions over one shared trunk:
        afterwards the trunk, the device pools, the storage device and
        the activity graph are exactly as they started."""
        system, video = build_system()
        pool = system.resources.add_pool("mixer", 2)
        trunk = Channel(system.simulator, 100 * MBPS, latency_s=0.001,
                        name="trunk")
        disk = system.placement.device("disk0")
        graph_baseline = len(system.graph.activities)
        connection_baseline = len(system.graph.connections)

        for i in range(100):
            session = system.open_session(f"churn-{i}", channel=trunk)
            ref = session.select_one("Clip", Q.eq("title", "shared"))
            source = session.new_db_source((ref, "video"))
            window = session.new_video_window(name=f"churn-{i}.win")
            session.new_activity(window.__class__(
                system.simulator, name=f"churn-{i}.aux"
            ), device_kind="mixer")
            session.connect(source, window).start()
            system.run()
            session.close()
            assert trunk.reserved_bps == 0

        assert len(system.graph.activities) == graph_baseline
        assert len(system.graph.connections) == connection_baseline
        assert pool.available == pool.count
        assert disk.available_bps == pytest.approx(disk.bandwidth_bps)


class TestWaitDieUnderLoad:
    def test_concurrent_metadata_transactions_all_commit(self):
        """24 clients hammer 3 catalog rows with read-modify-write
        transactions spanning virtual time.  Wait-die resolves every
        conflict (``LockTimeoutError.should_retry`` tells waiters from
        victims), bounded retries converge, nothing deadlocks or
        livelocks, and every client commits."""
        system = AVDatabaseSystem()
        sim = system.simulator
        system.db.define_class(ClassDef("Clip", attributes=[
            AttributeSpec("title", str, indexed=True),
            AttributeSpec("plays", int),
        ]))
        oids = [system.db.insert("Clip", title=f"clip-{i}", plays=0)
                for i in range(3)]
        stats = {"commits": 0, "retries": 0, "gave_up": 0}
        clients = 24

        def client(index: int):
            yield Delay(0.0001 * (index % 4))
            oid = oids[index % len(oids)]
            for attempt in range(10):
                tx = system.db.begin()
                try:
                    obj = tx.read(oid)
                    yield Delay(0.002)  # the window conflicts live in
                    tx.update(oid, plays=obj.plays + 1)
                    tx.commit()
                    stats["commits"] += 1
                    return
                except LockTimeoutError as error:
                    tx.abort()
                    stats["retries"] += 1
                    backoff = 0.002 * (attempt + 1)
                    yield Delay(backoff if error.should_retry
                                else backoff * 1.5)
            stats["gave_up"] += 1

        for index in range(clients):
            sim.spawn(client(index), name=f"tx-client-{index}")
        end = sim.run()  # returning at all means no deadlock
        assert stats["commits"] == clients
        assert stats["gave_up"] == 0
        assert stats["retries"] > 0, (
            "no lock conflicts occurred; the contention this test exists "
            "for never happened"
        )
        total = sum(system.db.get(oid).plays for oid in oids)
        assert total == clients
        assert end.seconds < 5.0, "retry storm: wait-die is livelocking"


class TestSessionAdmissionIntegration:
    def test_connect_routes_through_the_controller(self):
        system, video = build_system()
        rate = video.data_rate_bps()
        trunk = Channel(system.simulator, rate * 1.5, latency_s=0.001,
                        name="trunk")
        system.enable_admission(trunk)
        ref_predicate = Q.eq("title", "shared")

        s1 = system.open_session("first", channel=trunk)
        ref = s1.select_one("Clip", ref_predicate)
        s1.connect(s1.new_db_source((ref, "video")),
                   s1.new_video_window(name="w1")).start()

        # Second stream cannot fit whole; with a degradation floor the
        # controller admits it at the leftover rate.
        s2 = system.open_session("second", channel=trunk)
        stream = s2.connect(s2.new_db_source((ref, "video")),
                            s2.new_video_window(name="w2"),
                            degrade=True, min_degraded_fraction=0.25)
        assert s2.degraded_streams == 1
        stream.start()

        # Background work past the watermark is shed outright.
        s3 = system.open_session("third", channel=trunk)
        with pytest.raises(AdmissionError, match="shedding background"):
            s3.connect(s3.new_db_source((ref, "video")),
                       s3.new_video_window(name="w3"),
                       priority=Priority.BACKGROUND, degrade=True)

        metrics = system.metrics
        assert metrics.counter("admission.admitted").value == 1
        assert metrics.counter("admission.degraded").value == 1
        assert metrics.counter("admission.shed").value == 1
        system.run()
        s1.close()
        s2.close()
        s3.close()
        assert trunk.reserved_bps == 0

    def test_degrades_at_the_same_floor_with_or_without_a_controller(self):
        """A bare-channel session takes its degrade verdict from the
        controller's rule, 1e-9 tolerance included: 0.3 - 0.1 - 0.1 is
        a hair under the 0.1 floor of a 0.2 request."""
        granted = {}
        for fronted in (True, False):
            system, _ = build_system()
            trunk = Channel(system.simulator, 0.3, name="trunk")
            if fronted:
                system.enable_admission(trunk)
            session = system.open_session("viewer", channel=trunk)
            ref = session.select_one("Clip", Q.eq("title", "shared"))
            for index, (bps, degrade) in enumerate(
                    [(0.1, False), (0.1, False), (0.2, True)]):
                stream = session.connect(
                    session.new_db_source((ref, "video"), name=f"src{index}"),
                    session.new_video_window(name=f"w{index}"),
                    bandwidth_bps=bps, degrade=degrade,
                    min_degraded_fraction=0.5)
            assert session.degraded_streams == 1
            granted[fronted] = stream.connections[0].reservation.bps
            session.close()
        assert granted[True] == granted[False] == 0.3 - 0.1 - 0.1
