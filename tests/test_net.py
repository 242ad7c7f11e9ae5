"""Network channels: admission control, transfer timing, accounting."""

import random

import pytest

from repro.admission import AdmissionController, Priority, QoSContract
from repro.errors import AdmissionError
from repro.net import Channel


class TestAdmission:
    def test_reservations_bounded_by_capacity(self, sim):
        channel = Channel(sim, capacity_bps=10_000_000)
        channel.reserve(4_000_000, "a")
        channel.reserve(4_000_000, "b")
        with pytest.raises(AdmissionError, match="cannot reserve"):
            channel.reserve(4_000_000, "c")
        assert channel.admission_failures == 1
        assert channel.available_bps == pytest.approx(2_000_000)

    def test_release_returns_bandwidth(self, sim):
        channel = Channel(sim, capacity_bps=1_000_000)
        reservation = channel.reserve(800_000)
        reservation.release()
        assert channel.available_bps == pytest.approx(1_000_000)
        channel.reserve(900_000)  # fits after release

    def test_double_release_idempotent(self, sim):
        channel = Channel(sim, capacity_bps=1_000)
        reservation = channel.reserve(500)
        reservation.release()
        reservation.release()
        assert channel.available_bps == 1_000

    def test_invalid_reservations(self, sim):
        channel = Channel(sim, capacity_bps=1_000)
        with pytest.raises(AdmissionError):
            channel.reserve(0)
        with pytest.raises(AdmissionError):
            channel.reserve(-5)

    def test_invalid_channel_parameters(self, sim):
        with pytest.raises(AdmissionError):
            Channel(sim, capacity_bps=0)
        with pytest.raises(AdmissionError):
            Channel(sim, capacity_bps=1000, latency_s=-1)


class TestReservedBandwidthMemo:
    def test_fresh_channel_reads_integer_zero(self, sim):
        reserved = Channel(sim, capacity_bps=1_000).reserved_bps
        assert reserved == 0 and type(reserved) is int

    @pytest.mark.parametrize("seed", [0, 1])
    def test_memo_equals_the_sum_after_every_change(self, sim, seed):
        """Exact ``==`` against the plain sum in dict order, through
        admits, degraded grants, releases, preemptions and a stretch of
        leaked releases (the watch layer's planted bug)."""
        rng = random.Random(seed)
        channel = Channel(sim, capacity_bps=10e6)
        controller = AdmissionController(sim, channel, high_watermark=0.9)
        preempted = sim.obs.metrics.counter("admission.preempted")
        held = []

        def check():
            assert channel.reserved_bps == sum(
                r.bps for r in channel._reservations.values())
            assert (channel.available_bps
                    == channel.capacity_bps - channel.reserved_bps)

        for step in range(6_000):
            channel.debug_leak_releases = 3_000 <= step < 3_040
            if held and rng.random() < 0.45:
                reservation = held.pop(rng.randrange(len(held)))
                reservation.release()  # a no-op if preempted meanwhile
            else:
                contract = QoSContract(
                    bps=rng.uniform(0.05e6, 1.7e6),
                    priority=rng.choice(list(Priority)),
                    min_fraction=rng.choice((1.0, 0.3)))
                try:
                    held.append(controller.try_admit(contract, f"s{step}"))
                except AdmissionError:
                    pass
            check()
        stuck = [r for r in channel._reservations.values() if r.released]
        assert preempted.value > 50 and len(stuck) > 5
        for reservation in held:
            reservation.release()
        check()
        assert channel.reserved_bps == sum(r.bps for r in stuck) > 0


class TestTransfers:
    def test_transfer_time_is_latency_plus_serialization(self, sim):
        channel = Channel(sim, capacity_bps=1_000_000, latency_s=0.1)
        reservation = channel.reserve(500_000)

        def sender():
            yield from reservation.transmit(1_000_000)  # 2 s at 500 kb/s

        proc = sim.spawn(sender())
        sim.run_until_complete(proc)
        assert sim.now.seconds == pytest.approx(2.1)

    def test_transmit_after_release_fails(self, sim):
        channel = Channel(sim, capacity_bps=1_000)
        reservation = channel.reserve(500)
        reservation.release()

        def sender():
            yield from reservation.transmit(100)

        sim.spawn(sender())
        with pytest.raises(AdmissionError, match="released"):
            sim.run()

    def test_traffic_accounting(self, sim):
        channel = Channel(sim, capacity_bps=1_000_000)
        a = channel.reserve(100_000, "a")
        b = channel.reserve(100_000, "b")

        def sender(reservation, bits):
            yield from reservation.transmit(bits)

        sim.spawn(sender(a, 5_000))
        sim.spawn(sender(b, 3_000))
        sim.run()
        assert channel.total_bits == 8_000
        assert a.bits_transmitted == 5_000

    def test_mean_throughput(self, sim):
        channel = Channel(sim, capacity_bps=1_000_000)
        reservation = channel.reserve(100_000)

        def sender():
            yield from reservation.transmit(50_000)  # takes 0.5 s

        proc = sim.spawn(sender())
        sim.run_until_complete(proc)
        assert channel.total_bits / sim.now_s == pytest.approx(100_000)

    def test_concurrent_streams_do_not_serialize(self, sim):
        """Reserved slices transfer independently (ATM-style isolation)."""
        channel = Channel(sim, capacity_bps=2_000_000)
        a = channel.reserve(1_000_000)
        b = channel.reserve(1_000_000)
        done = []

        def sender(name, reservation):
            yield from reservation.transmit(1_000_000)  # 1 s each
            done.append((name, sim.now.seconds))

        sim.spawn(sender("a", a))
        sim.spawn(sender("b", b))
        sim.run()
        assert [t for _, t in done] == [pytest.approx(1.0), pytest.approx(1.0)]
