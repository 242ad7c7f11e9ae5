"""Exp. C6 — the §3.1/§3.3 device-sharing claim.

"certain devices are very expensive (e.g., digital video effects
processors) and it is more cost-effective if they can be shared by
different clients. ... it may not be possible to allow concurrent use of
special-purpose hardware ... client requests can tie up resources ... for
significant periods of time."

N clients contend for a pool of shared mixer devices; measures mean and
max waiting time as the pool grows — the cost/latency trade-off behind
database-managed device allocation.
"""

from __future__ import annotations

import pytest

from repro.avdb import AVDatabaseSystem
from repro.sim import Delay

CLIENTS = 8
HOLD_SECONDS = 2.0  # each client ties the device up for 2 s


def run_contention(device_count):
    system = AVDatabaseSystem()
    pool = system.resources.add_pool("video-mixer", device_count)
    sim = system.simulator
    waits = []

    def client(index):
        yield Delay(index * 0.01)  # slight stagger: deterministic ordering
        requested = sim.now.seconds
        lease = yield pool.acquire()
        waits.append(sim.now.seconds - requested)
        yield Delay(HOLD_SECONDS)
        lease.release()

    for i in range(CLIENTS):
        sim.spawn(client(i))
    sim.run()
    return waits, pool


def test_claim_sharing_wait_vs_pool_size(benchmark, exhibit):
    lines = [
        f"C6 — {CLIENTS} clients x {HOLD_SECONDS:.0f} s holds, varying pool size",
        "",
        f"{'devices':<9}{'mean wait (s)':>14}{'max wait (s)':>14}"
        f"{'queued clients':>16}",
    ]
    results = {}
    for devices in (1, 2, 4, 8):
        waits, pool = run_contention(devices)
        results[devices] = waits
        lines.append(
            f"{devices:<9}{sum(waits) / len(waits):>14.2f}"
            f"{max(waits):>14.2f}{pool.wait_count:>16}"
        )
    lines += [
        "",
        "shape: waiting shrinks roughly linearly with pool size and",
        "vanishes when every client gets a device — quantifying the",
        "sharing-vs-cost trade-off the database mediates.",
    ]
    exhibit("claim_sharing", "\n".join(lines))

    mean = {d: sum(w) / len(w) for d, w in results.items()}
    assert mean[1] > mean[2] > mean[4]
    assert mean[8] == pytest.approx(0.0)
    assert max(results[1]) == pytest.approx((CLIENTS - 1) * HOLD_SECONDS, rel=0.05)

    benchmark(lambda: run_contention(2)[0])


def test_claim_sharing_fail_fast_semantics(benchmark, exhibit):
    """The §4.3 alternative: statement-fails instead of queueing."""
    from repro.activities.library import VideoMixer
    from repro.errors import DeviceBusyError
    system = AVDatabaseSystem()
    system.resources.add_pool("dve", 2)
    session = system.open_session("effects-app")
    granted, refused = 0, 0
    for i in range(5):
        try:
            # The activity-creation statement takes the shared device.
            session.new_activity(VideoMixer(system.simulator, name=f"dve-{i}"),
                                 device_kind="dve")
            granted += 1
        except DeviceBusyError:
            refused += 1
    exhibit("claim_sharing_failfast", "\n".join([
        "C6b — fail-fast allocation (the §4.3 'statement would fail' path)",
        "",
        f"  pool size          : 2",
        f"  allocation attempts: 5",
        f"  granted            : {granted}",
        f"  refused            : {refused}",
    ]))
    assert granted == 2 and refused == 3
    session.close()
    assert system.resources.pool("dve").available == 2

    def run():
        fresh = AVDatabaseSystem()
        fresh_pool = fresh.resources.add_pool("dve", 2)
        lease = fresh_pool.allocate()
        lease.release()
        return fresh_pool.available

    assert benchmark(run) == 2
