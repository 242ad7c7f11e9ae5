"""Named fault scenarios for the ``python -m repro faults`` CLI.

Each scenario builds a workload, arms a seeded :class:`FaultPlan`
against it, runs to completion in virtual time, and returns a dict of
headline facts — delivered vs. negotiated QoS, deadline misses, and the
``faults.*`` counters.  Every scenario takes ``seed`` and ``recover``:
with ``recover=False`` the same fault schedule hits a workload with no
retry/degradation defenses, which is the baseline the recovery claims
are measured against (see ``bench_fault_recovery.py``).

Scenarios are deterministic: same seed, same facts, every run.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import FaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RetryPolicy, supervised, with_retries
from repro.sim import Delay, Simulator


def _counters(simulator: Simulator) -> Dict[str, int]:
    metrics = simulator.obs.metrics
    return {
        "faults_injected": int(metrics.counter("faults.injected").value),
        "faults_retries": int(metrics.counter("faults.retries").value),
    }


def disk_outage(seed: int = 0, recover: bool = True) -> Dict[str, object]:
    """Scheduler outages under periodic deadline reads.

    Four client streams read a frame every 40 ms through the disk
    scheduler; the plan stops the scheduler twice (failing queued
    requests — the PR's shutdown-deadlock fix is what makes this safe)
    and restarts it.  With recovery, reads retry with exponential
    backoff; without, a failed read is a lost frame.
    """
    from repro.storage.scheduler import DiskScheduler, Policy

    sim = Simulator()
    disk = DiskScheduler(sim, policy=Policy.CSCAN)
    disk.start()
    plan = (FaultPlan(seed=seed)
            .scheduler_outage("disk", at=0.30, duration=0.25)
            .scheduler_outage("disk", at=1.10, duration=0.20)
            .scheduler_slowdown("disk", at=1.6, duration=0.2, factor=4.0))
    injector = FaultInjector(sim, plan).arm(schedulers={"disk": disk})

    streams, frames = 4, 50
    period, slack, bits = 0.04, 0.03, 400_000
    policy = RetryPolicy(max_attempts=6, base_delay_s=0.05, factor=2.0)
    stats = {"delivered": 0, "lost": 0}

    def client(index: int):
        for i in range(frames):
            ideal = i * period
            if ideal > sim.now_s:
                yield Delay(ideal - sim.now_s)
            position = (index * 200 + i * 3) % disk.cylinders
            deadline = ideal + slack

            def attempt(p=position, d=deadline):
                return disk.read(p, bits, deadline=d)

            try:
                if recover:
                    yield from with_retries(sim, attempt, policy)
                else:
                    yield from attempt()
            except FaultError:
                stats["lost"] += 1
                continue
            stats["delivered"] += 1

    for index in range(streams):
        sim.spawn(client(index), name=f"stream-{index}")
    end = sim.run()
    negotiated = streams * frames
    return {
        "recover": recover,
        "negotiated_frames": negotiated,
        "delivered_frames": stats["delivered"],
        "lost_frames": stats["lost"],
        "delivered_qos": round(stats["delivered"] / negotiated, 4),
        "deadline_misses": disk.deadline_misses,
        "requests_failed": disk.requests_failed,
        "virtual_seconds": round(end.seconds, 4),
        **_counters(sim),
    }


def lossy_channel(seed: int = 0, recover: bool = True) -> Dict[str, object]:
    """Packet loss and jitter on a reserved channel.

    A paced sender ships 200 elements at 50 elements/s over a 2 Mb/s
    reservation; the plan drops 12% of transmissions and jitters the
    rest.  With recovery the link retransmits (late but delivered);
    without, a drop is a lost element.
    """
    from repro.net.channel import Channel

    sim = Simulator()
    channel = Channel(sim, capacity_bps=10_000_000.0, latency_s=0.001,
                      name="uplink")
    reservation = channel.reserve(2_000_000.0, label="stream")
    plan = FaultPlan(seed=seed).channel_loss(
        "uplink", rate=0.12, jitter_s=0.004,
        mode="retransmit" if recover else "error",
    )
    FaultInjector(sim, plan).arm(channels=[channel])

    elements, period, bits = 200, 0.02, 40_000
    on_time_slack = 0.010
    stats = {"delivered": 0, "lost": 0, "on_time": 0}

    def sender():
        for i in range(elements):
            ideal = i * period
            if ideal > sim.now_s:
                yield Delay(ideal - sim.now_s)
            try:
                yield from reservation.transmit(bits)
            except FaultError:
                stats["lost"] += 1
                continue
            stats["delivered"] += 1
            nominal = channel.latency_s + bits / reservation.bps
            if sim.now_s <= ideal + nominal + on_time_slack:
                stats["on_time"] += 1

    sim.spawn(sender(), name="sender")
    end = sim.run()
    return {
        "recover": recover,
        "negotiated_elements": elements,
        "delivered_elements": stats["delivered"],
        "lost_elements": stats["lost"],
        "delivered_qos": round(stats["delivered"] / elements, 4),
        "on_time_fraction": round(stats["on_time"] / elements, 4),
        "retransmits": channel.retransmits,
        "virtual_seconds": round(end.seconds, 4),
        **_counters(sim),
    }


def crash_recovery(seed: int = 0, recover: bool = True) -> Dict[str, object]:
    """Crash and hang faults against worker processes.

    Six checkpointing workers each grind through 40 work units; the plan
    crashes two of them and wedges one (a hang — the worker never
    completes and never errors).  With recovery each worker runs under a
    supervisor with a deadline: crashed workers restart from their
    checkpoint, the hung worker is detected by timeout and restarted.
    Without supervision the faulted workers simply never finish.
    """
    sim = Simulator()
    workers, units, unit_s = 6, 40, 0.01
    progress = [0] * workers

    def work(index: int):
        while progress[index] < units:
            yield Delay(unit_s)
            progress[index] += 1
        return progress[index]

    plan = (FaultPlan(seed=seed)
            .process_crash("worker-1", at=0.13)
            .process_crash("worker-4", at=0.27)
            .process_hang("worker-2", at=0.08))
    first = {f"worker-{i}": sim.spawn(work(i), name=f"worker-{i}")
             for i in range(workers)}
    injector = FaultInjector(sim, plan).arm(processes=first)

    finished = {"count": 0}
    if recover:
        def guard(index: int):
            result = yield from supervised(
                sim, lambda i=index: work(i), max_restarts=3,
                deadline_s=1.0, name=f"worker-{index}",
                first_process=first[f"worker-{index}"],
            )
            finished["count"] += 1
            return result

        for index in range(workers):
            sim.spawn(guard(index), name=f"guard-{index}")
    end = sim.run()
    if not recover:
        finished["count"] = sum(1 for p in first.values() if p.done and p.error is None)
    completed_units = sum(progress)
    return {
        "recover": recover,
        "workers": workers,
        "workers_finished": finished["count"],
        "negotiated_units": workers * units,
        "completed_units": completed_units,
        "delivered_qos": round(completed_units / (workers * units), 4),
        "restarts": int(sim.obs.metrics.counter("faults.restarts").value),
        "virtual_seconds": round(end.seconds, 4),
        **_counters(sim),
    }


def degraded_session(seed: int = 0, recover: bool = True) -> Dict[str, object]:
    """Graceful QoS degradation instead of admission failure (§3.3).

    Two video streams share one session channel sized for 1.5 streams.
    The second connection cannot reserve full bandwidth; with
    ``degrade=True`` the session renegotiates it down to the leftover
    capacity (delivered late but delivered), without it the stream fails
    outright.
    """
    from repro.db import AttributeSpec, ClassDef
    from repro.errors import AdmissionError
    from repro.storage import MagneticDisk
    from repro.synth import moving_scene
    from repro.values import VideoValue

    from repro.avdb import AVDatabaseSystem

    system = AVDatabaseSystem()
    system.add_storage(MagneticDisk(system.simulator, "disk0"))
    system.db.define_class(ClassDef("Clip", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("video", VideoValue),
    ]))
    video_a = moving_scene(24, 96, 72, seed=seed + 1)
    video_b = moving_scene(24, 96, 72, seed=seed + 2)
    rate = video_a.data_rate_bps()
    for i, video in enumerate((video_a, video_b)):
        system.store_value(video, "disk0")
        system.db.insert("Clip", title=f"clip-{i}", video=video)

    session = system.open_session("degraded", channel_bps=rate * 1.5)
    degraded_failed = False
    with session:
        source_a = session.new_db_source(video_a)
        window_a = session.new_video_window(name="window-a")
        session.connect(source_a, window_a).start()
        source_b = session.new_db_source(video_b)
        window_b = session.new_video_window(name="window-b")
        try:
            stream_b = session.connect(source_b, window_b, degrade=recover)
            stream_b.start()
        except AdmissionError:
            degraded_failed = True
        end = session.run()
        frames_a = len(window_a.presented)
        frames_b = len(window_b.presented)
    metrics = system.metrics
    negotiated = 2 * 24
    return {
        "recover": recover,
        "admission_failed": degraded_failed,
        "frames_a": frames_a,
        "frames_b": frames_b,
        "negotiated_frames": negotiated,
        "delivered_qos": round((frames_a + frames_b) / negotiated, 4),
        "degraded_streams": session.degraded_streams,
        "degraded_sessions": int(metrics.counter("faults.degraded_sessions").value),
        "virtual_seconds": round(end.seconds, 4),
        "faults_injected": int(metrics.counter("faults.injected").value),
        "faults_retries": int(metrics.counter("faults.retries").value),
    }


SCENARIOS: Dict[str, Callable[..., Dict[str, object]]] = {
    "disk-outage": disk_outage,
    "lossy-channel": lossy_channel,
    "crash-recovery": crash_recovery,
    "degraded-session": degraded_session,
}
