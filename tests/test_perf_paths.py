"""Regression tests for the hot-path rework: ``with_payload`` sizing
rules, channel accounting, heap-based C-SCAN, O(1) admission
queue depth, the calls one ``admit_batch`` and one herd epoch make, what an attached edge
hit and a supervision tick no longer do, constant-time value sizes, the bisecting ordered-index range walk, bulk index execution with rows
hydrated on touch, the covering interval index's counts, the profile
CLI, and the teardown pins: a finished run leaves no reference cycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.avtime import WorldTime
from repro.errors import SimulationError
from repro.net import Channel
from repro.sim import Simulator
from repro.storage.scheduler import DiskScheduler, Policy
from repro.streams.element import StreamElement
from repro.values.mediatype import standard_type
from repro.watch.slo import SLOSpec


def _element(payload, size_bits=None):
    if size_bits is None:
        size_bits = (payload.nbytes if hasattr(payload, "nbytes")
                     else len(payload)) * 8
    return StreamElement(payload, 0, WorldTime(0.0),
                         standard_type("video/raw"), size_bits)


class TestWithPayloadSizing:
    def test_same_shape_payload_inherits_size(self):
        frame = np.zeros((8, 8), dtype=np.uint8)
        element = _element(frame)
        out = element.with_payload(frame + 1)
        assert out.size_bits == element.size_bits
        assert out.index == element.index
        assert out.ideal_time == element.ideal_time
        assert type(out) is StreamElement

    def test_shrunk_payload_without_size_raises(self):
        element = _element(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(SimulationError, match="size_bits"):
            element.with_payload(np.zeros((4, 4), dtype=np.uint8))

    def test_type_change_without_size_raises(self):
        element = _element(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(SimulationError, match="size_bits"):
            element.with_payload(b"compressed")

    def test_explicit_size_always_allowed(self):
        element = _element(np.zeros((8, 8), dtype=np.uint8))
        out = element.with_payload(b"xx", size_bits=16)
        assert out.size_bits == 16

    def test_negative_explicit_size_rejected(self):
        element = _element(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(SimulationError, match=">= 0"):
            element.with_payload(b"xx", size_bits=-1)

    def test_traffic_accounting_uses_restated_size(self):
        # The regression the rule exists for: a transformer that halves
        # the payload must halve what the channel is charged.
        sim = Simulator()
        channel = Channel(sim, capacity_bps=1e9)
        reservation = channel.reserve(1e6)
        element = _element(np.zeros(1000, dtype=np.uint8))  # 8000 bits
        shrunk = element.with_payload(b"\x00" * 125, size_bits=1000)

        def send(el):
            yield from reservation.serialize(el.size_bits)

        sim.run_until_complete(sim.spawn(send(element), "big"))
        sim.run_until_complete(sim.spawn(send(shrunk), "small"))
        assert channel.total_bits == 8000 + 1000


def _assert_bits_agree(metrics, channels) -> None:
    """``net.bits_sent`` equals the channels' ``total_bits`` on every
    registry read path (each settles what a clocked run owes)."""
    reads = (metrics.get("net.bits_sent").value,
             metrics.snapshot()["net.bits_sent"],
             metrics.by_kind("counter")["net.bits_sent"].value,
             metrics.settled()["net.bits_sent"].value)
    total = sum(channel.total_bits for channel in channels)
    assert reads == (total,) * 4


class TestBatchedChannelAccounting:
    """A channel adds its bits to ``net.bits_sent`` as it sends them; no
    registry flush hook settles the counter from ``total_bits``."""

    def test_counter_settles_on_every_read_path(self):
        sim = Simulator()
        channel = Channel(sim, capacity_bps=1e9)
        channel._account(4000)
        metrics = sim.obs.metrics
        assert metrics.get("net.bits_sent").value == 4000
        channel._account(500)
        assert metrics.snapshot()["net.bits_sent"] == 4500
        channel._account(1)
        assert metrics.by_kind("counter")["net.bits_sent"].value == 4501
        assert channel.total_bits == 4501
        assert not metrics._flush_hooks

    def test_two_channels_share_one_counter(self):
        sim = Simulator()
        a = Channel(sim, capacity_bps=1e9, name="a")
        b = Channel(sim, capacity_bps=1e9, name="b")
        a._account(100)
        b._account(23)
        assert sim.obs.metrics.get("net.bits_sent").value == 123

    @pytest.mark.parametrize("send", ["transmit", "serialize"])
    def test_transfers_agree_at_every_read(self, send):
        sim = Simulator()
        channel = Channel(sim, capacity_bps=1e6, latency_s=0.002)
        reservation = channel.reserve(1e5)

        def sender():
            for bits in (800, 1600, 8):
                yield from getattr(reservation, send)(bits)

        sim.spawn(sender(), "sender")
        for until in (0.0, 0.005, 0.009, 0.02, 0.05):
            sim.run(until=WorldTime(until))
            _assert_bits_agree(sim.obs.metrics, [channel])
        assert channel.total_bits == 2408

    @staticmethod
    def _clocked_playback():
        from repro.avdb import AVDatabaseSystem
        from repro.storage import MagneticDisk
        from repro.synth import moving_scene

        system = AVDatabaseSystem()
        system.add_storage(MagneticDisk(system.simulator, "disk0"))
        value = moving_scene(48, 32, 24)
        system.store_value(value, "disk0")
        session = system.open_session("viewer", latency_s=0.001)
        source = session.new_db_source(value)
        window = session.new_video_window()
        session.connect(source, window).start()
        system.simulator.run(until=WorldTime(0.0))
        assert source.clocked is not None
        return system, session, source

    def test_a_clocked_run_agrees_mid_run_and_to_the_end(self):
        system, session, source = self._clocked_playback()
        sim, metrics = system.simulator, system.metrics
        for until in (0.2, 0.7, 1.1):
            sim.run(until=WorldTime(until))
            assert source.clocked is not None
            _assert_bits_agree(metrics, [session.channel])
        session.run()
        _assert_bits_agree(metrics, [session.channel])
        assert session.channel.total_bits > 0
        assert not metrics._flush_hooks

    def test_a_cut_run_agrees_before_and_after_the_cut(self):
        system, session, source = self._clocked_playback()
        sim, metrics = system.simulator, system.metrics
        sim.run(until=WorldTime(0.5))
        _assert_bits_agree(metrics, [session.channel])
        source.clocked.cut()
        assert source.clocked is None
        _assert_bits_agree(metrics, [session.channel])
        sim.run(until=WorldTime(0.9))
        _assert_bits_agree(metrics, [session.channel])
        session.run()
        _assert_bits_agree(metrics, [session.channel])

    def test_the_herd_accounts_its_epochs_as_it_goes(self):
        from repro.admission import AdmissionController
        from repro.herd import HerdCoupler, HerdPhase, HerdPopulation
        from repro.obs import scoped

        with scoped(tracing=False) as obs:
            sim = Simulator()
            trunk = Channel(sim, capacity_bps=40e6, name="trunk")
            controller = AdmissionController(sim, trunk, max_queue=64,
                                             high_watermark=0.85,
                                             preempt=True)
            population = HerdPopulation(
                (HerdPhase("peak", 1.0, 4000.0, viral_share=0.6,
                           interactive_share=0.25, background_share=0.1),),
                seed=0, catalog_size=32, epoch_s=0.05)
            HerdCoupler(sim, controller, population).start()
            for until in (0.3, 0.6, 1.5, 4.0):
                sim.run(until=WorldTime(until))
                _assert_bits_agree(obs.metrics, [trunk])
            sim.run()
            _assert_bits_agree(obs.metrics, [trunk])
            assert trunk.total_bits > 0
            assert not obs.metrics._flush_hooks

    def test_a_drained_traced_playback_leaves_no_flush_hook(self):
        from repro.obs import scenarios, scoped

        with scoped(tracing=True) as obs:
            scenarios.newscast()
        assert obs.metrics.get("net.bits_sent").value > 0
        assert obs.metrics._flush_hooks == {}


class TestHeapCSCAN:
    @staticmethod
    def _fcfs_equivalent_cscan_order(submissions):
        """The old O(n)-scan C-SCAN semantics, reimplemented naively."""
        queue = list(submissions)
        head = 0
        order = []
        while queue:
            ahead = [p for p in queue if p >= head]
            chosen = min(ahead) if ahead else min(queue)
            queue.remove(chosen)
            head = chosen
            order.append(chosen)
        return order

    def test_two_heap_pick_matches_scan_semantics(self):
        positions = [500, 100, 900, 100, 50, 700, 300, 950, 20, 500]
        sim = Simulator()
        disk = DiskScheduler(sim, Policy.CSCAN)
        requests = [disk.submit(p, bits=0) for p in positions]
        served = [disk._pick() for _ in range(len(positions))]
        # _pick does not move the head itself; replay the serve loop.
        got = []
        sim2 = Simulator()
        disk2 = DiskScheduler(sim2, Policy.CSCAN)
        for p in positions:
            disk2.submit(p, bits=0)
        while disk2.queue_depth:
            req = disk2._pick()
            disk2.head_position = req.position
            got.append(req.position)
        assert got == self._fcfs_equivalent_cscan_order(positions)
        assert {r.position for r in served} == set(positions)

    def test_equal_positions_serve_in_arrival_order(self):
        sim = Simulator()
        disk = DiskScheduler(sim, Policy.CSCAN)
        first = disk.submit(10, bits=0)
        second = disk.submit(10, bits=0)
        assert disk._pick() is first
        assert disk._pick() is second

    def test_served_results_match_policies(self):
        # End-to-end: C-SCAN still serves everything and seeks less than
        # FCFS on a zig-zag pattern.
        positions = [0, 900, 10, 890, 20, 880, 30, 870]
        totals = {}
        for policy in (Policy.FCFS, Policy.CSCAN):
            sim = Simulator()
            disk = DiskScheduler(sim, policy)
            disk.start()
            for p in positions:
                disk.submit(p, bits=8_000)
            disk.drain()
            sim.run()
            assert disk.requests_served == len(positions)
            totals[policy] = disk.total_seek_distance
        assert totals[Policy.CSCAN] < totals[Policy.FCFS]


class TestAdmissionQueueDepthCounter:
    def test_depth_tracks_queue_transitions(self):
        from repro.admission import AdmissionController, QoSContract, Priority
        from repro.errors import AdmissionTimeoutError

        sim = Simulator()
        channel = Channel(sim, capacity_bps=1000.0)
        controller = AdmissionController(sim, channel, max_queue=4)
        hog = controller.try_admit(
            QoSContract(bps=1000.0, priority=Priority.INTERACTIVE), "hog")
        assert controller.queue_depth == 0

        results = []

        def client(name, timeout):
            contract = QoSContract(bps=400.0, priority=Priority.STANDARD,
                                   queue_timeout_s=timeout)
            try:
                reservation = yield from controller.admit(contract, name)
                results.append((name, "admitted"))
                reservation.release()
            except AdmissionTimeoutError:
                results.append((name, "timeout"))

        sim.spawn(client("a", 0.5), "a")
        sim.spawn(client("b", 10.0), "b")
        sim.run(until=WorldTime(0.1))
        assert controller.queue_depth == 2
        sim.run(until=WorldTime(1.0))  # client a times out
        assert controller.queue_depth == 1
        hog.release()  # pump admits client b
        sim.run()
        assert controller.queue_depth == 0
        assert ("a", "timeout") in results
        assert ("b", "admitted") in results


class TestAdmitBatchCallCounts:
    """``admit_batch`` is the herd's hot entry (600 calls in a 5 ms
    ``herd_day`` day), so a helper layered into it shows up in the
    ledger as percents.  Counted, not timed: Python-level calls (``call``
    and ``c_call``, the profiler's own removal included) in one batch,
    under the scope the ledger runs in (decision log on, tracer off).
    EXPERIMENTS.md Exp. S2 has the numbers before the decision core."""

    MBPS = 1_000_000.0

    @classmethod
    def calls(cls, capacity_mbps, contract, count, held_mbps=0.0):
        import gc
        import sys

        from repro.admission import AdmissionController, QoSContract
        from repro.obs import scoped

        mbps = cls.MBPS
        with scoped(tracing=False):
            sim = Simulator()
            trunk = Channel(sim, capacity_bps=capacity_mbps * mbps, name="trunk")
            controller = AdmissionController(sim, trunk, max_queue=0,
                                             preempt=False)
            if held_mbps:
                controller.try_admit(QoSContract(held_mbps * mbps), "bulk")
            seen = 0

            def profiler(frame, event, arg):
                nonlocal seen
                if event in ("call", "c_call"):
                    seen += 1

            gc.collect()  # a collection mid-batch would close strangers'
            gc.disable()  # generators, and each close is a counted call
            sys.setprofile(profiler)
            try:
                verdict = controller.admit_batch(contract, count)
            finally:
                sys.setprofile(None)
                gc.enable()
        return seen, (verdict.admitted_full, verdict.admitted_degraded,
                      verdict.shed)

    @pytest.fixture()
    def contracts(self):
        from repro.admission import Priority, QoSContract

        return {"standard": QoSContract(self.MBPS, Priority.STANDARD, 0.5),
                "background": QoSContract(self.MBPS, Priority.BACKGROUND, 0.25)}

    def test_calls_per_batch_by_shape(self, contracts):
        # 30 / 64 / 13 / 48 before the decision core was shared.
        seen, verdict = self.calls(10.0, contracts["standard"], 4)
        assert verdict == (4, 0, 0)         # all fit
        assert seen <= 30
        seen, verdict = self.calls(10.5, contracts["standard"], 25)
        assert verdict == (10, 1, 14)       # full + degraded + rejected
        assert seen <= 66
        seen, verdict = self.calls(10.0, contracts["background"], 5,
                                   held_mbps=9.0)
        assert verdict == (0, 0, 5)         # shed at entry
        assert seen <= 14
        seen, verdict = self.calls(10.0, contracts["background"], 12)
        assert verdict == (9, 0, 3)         # capped by the watermark
        assert seen <= 48

    def test_cost_does_not_grow_with_the_count(self, contracts):
        ten, _ = self.calls(1e7, contracts["standard"], 10)
        million, verdict = self.calls(1e7, contracts["standard"], 10 ** 6)
        assert verdict == (10 ** 6, 0, 0)
        assert ten == million


class TestHerdEpochCounts:
    """What one herd epoch tick does once ``HerdCoupler.start()`` has
    compiled the cache verdicts and class splits: no numpy at all, and
    one ``admit_batch`` per priority class with clients, as before.
    Counted like :class:`TestAdmitBatchCallCounts` (EXPERIMENTS.md Exp.
    P11)."""

    EPOCH_S = 0.05

    def test_a_tick_calls_no_numpy_and_one_batch_per_class(self):
        import gc
        import os
        import sys

        from repro.admission import AdmissionController
        from repro.cache.aggregate import AggregateHitModel
        from repro.herd import HerdCoupler, HerdPhase, HerdPopulation
        from repro.obs import scoped

        numpy_dir = os.path.dirname(np.__file__)
        numpy_calls = batches = 0

        def profiler(frame, event, arg):
            nonlocal numpy_calls, batches
            if event == "call":
                code = frame.f_code
                numpy_calls += code.co_filename.startswith(numpy_dir)
                batches += code.co_name == "admit_batch"
            elif event == "c_call":
                numpy_calls += (
                    (getattr(arg, "__module__", None) or "").startswith("numpy")
                    or isinstance(getattr(arg, "__self__", None),
                                  (np.ndarray, np.generic)))

        with scoped(tracing=False):
            sim = Simulator()
            trunk = Channel(sim, capacity_bps=40e6, name="trunk")
            controller = AdmissionController(sim, trunk, max_queue=64,
                                             high_watermark=0.85, preempt=True)
            population = HerdPopulation(
                (HerdPhase("peak", 1.0, 4000.0, viral_share=0.6,
                           interactive_share=0.25, background_share=0.1),),
                seed=0, catalog_size=32, epoch_s=self.EPOCH_S)
            cache = AggregateHitModel(sim.obs.metrics, 32, 6)
            coupler = HerdCoupler(sim, controller, population,
                                  cache_model=cache)
            coupler.start()
            tick = 10
            sim.run(until=WorldTime((tick - 0.5) * self.EPOCH_S))
            hits, clients = cache.hits, coupler.stats["clients"]
            gc.collect()
            gc.disable()
            sys.setprofile(profiler)
            try:
                sim.run(until=WorldTime((tick + 0.5) * self.EPOCH_S))
            finally:
                sys.setprofile(None)
                gc.enable()
        # The tick did arrive clients and serve some at the edge.
        assert coupler.stats["clients"] - clients == population.arrivals[tick]
        assert cache.hits > hits
        assert numpy_calls == 0     # 9 when the tick folded the cache
        assert batches <= 3         # one per class, as then


class TestTeardownCycles:
    """A finished run is freed by reference counting (DESIGN.md decision
    23): with the collector off, nothing of a herd day, a soak day or a
    traced playback is left for it.  A failure names each cycle by its
    types and the attributes that close it (``tests/gc_cycles.py``)."""

    @staticmethod
    def assert_freed(run) -> None:
        from gc_cycles import leftover_cycles

        unreachable, report = leftover_cycles(run)
        assert unreachable == 0, (
            f"{unreachable} objects left for the collector, in these "
            f"cycles:\n" + "\n".join(report))

    @staticmethod
    def herd_day(clients: int = 10**6) -> None:
        from repro.herd.scenarios import day
        from repro.obs import scoped

        with scoped(tracing=False):
            day(seed=0, clients=clients)

    def test_herd_day_at_a_million_clients(self):
        self.assert_freed(self.herd_day)

    def test_soak_day(self):
        from repro.obs import scoped
        from repro.soak.scenarios import day

        def run():
            with scoped(tracing=False):
                day(seed=0)
        self.assert_freed(run)

    def test_traced_newscast_playback(self):
        from repro.obs import scenarios, scoped

        def run():
            with scoped(tracing=True):
                scenarios.newscast()
        self.assert_freed(run)

    def test_a_planted_ticker_cycle_is_named(self, monkeypatch):
        from repro.sim import EpochTicker

        def keep_action(ticker):   # the cancel that kept its action
            ticker.cancelled = True

        monkeypatch.setattr(EpochTicker, "cancel", keep_action)
        with pytest.raises(AssertionError) as failure:
            self.assert_freed(lambda: self.herd_day(clients=20_000))
        message = str(failure.value)
        assert "(1 method HerdCoupler._on_epoch, 1 EpochTicker, " in message
        assert "HerdCoupler._ticker -> EpochTicker.action" in message


class TestEdgeHitCounts:
    """A broadcast day is 9,512 edge lookups at 93 % hits and 220
    watchdog ticks, so what one hit and one tick do is what the day
    costs.  Counted, not timed (EXPERIMENTS.md Exp. P10)."""

    ELEMENT_BITS = 240_000  # one 30,000-byte block, as every soak element

    @pytest.fixture()
    def warm(self):
        """A tier whose edges hold all of one value, and a second
        stream over it that has made its first (attaching) read."""
        from repro.cache import CacheTier
        from repro.cluster import ClusterPlacementManager, StorageNode
        from repro.cluster.scenarios import Blob
        from repro.obs import scoped

        with scoped(tracing=False):
            sim = Simulator()
            cluster = ClusterPlacementManager(sim, replication=2)
            for i in range(3):
                cluster.add_node(StorageNode(sim, f"node-{i}"))
            tier = CacheTier(sim, cluster, edges=2, hot_threshold=10_000)
            value = Blob(12 * self.ELEMENT_BITS // 8, 6e6)
            cluster.place(value, key="v")
            for label, elements in (("filler", 12), ("viewer", 1)):
                stream = tier.open_read(value, 6e6, label=label)
                self.read(sim, stream, elements)
            yield sim, tier, stream

    @classmethod
    def read(cls, sim, stream, elements):
        def client():
            for _ in range(elements):
                yield from stream.read(cls.ELEMENT_BITS)

        sim.run_until_complete(sim.spawn(client(), name="client"))

    @staticmethod
    def count(monkeypatch, owner, name):
        """Route ``owner.name`` through a counter; returns the tally."""
        original, seen = getattr(owner, name), []

        def counted(*args, **kwargs):
            seen.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return seen

    def test_attached_hit_attaches_reads_no_clock_object_hashes_nothing(
            self, warm, monkeypatch):
        import hashlib

        from repro.cache.edge import EdgeStream

        sim, tier, stream = warm
        ensures = self.count(monkeypatch, EdgeStream, "_ensure")
        clocks = self.count(monkeypatch, WorldTime, "__post_init__")
        hashes = self.count(monkeypatch, hashlib, "sha256")
        dispatched = sim._m_dispatched.value
        self.read(sim, stream, 8)
        assert stream.hits == 9 and stream.misses == 0
        assert ensures == [] and hashes == [] and clocks == []
        # The spawn and each hit's transfer delay: one event an element.
        assert sim._m_dispatched.value - dispatched == 1 + 8
        # The counters are live: the parent's read paid each of these.
        assert sim.now.seconds == sim.now_s and len(clocks) == 1
        assert hashlib.sha256(b"x") and len(hashes) == 1

    def test_a_detached_stream_still_reattaches(self, warm, monkeypatch):
        from repro.cache.edge import EdgeStream

        sim, tier, stream = warm
        ensures = self.count(monkeypatch, EdgeStream, "_ensure")
        first = stream.serving_edge
        tier.edge(first).kill()
        self.read(sim, stream, 2)
        assert len(ensures) == 1 and stream.edge_switches == 1
        assert stream.serving_edge not in (None, first)
        # Preempted off the survivor: the next read asks for it again.
        revoked = stream._reservation
        revoked.preempted = True
        revoked.release()
        self.read(sim, stream, 2)
        assert len(ensures) == 2 and stream.edge_switches == 2
        assert stream._reservation is not revoked
        assert not stream._reservation.released
        for edge in tier.edges:
            edge.kill()
        self.read(sim, stream, 2)  # nothing to attach to: asks each time
        assert len(ensures) == 4 and stream.passthroughs == 2

    def test_one_tick_settles_the_registry_once(self, monkeypatch):
        from repro.obs import scoped
        from repro.obs.metrics import MetricsRegistry
        from repro.watch import Watchdog, default_slos

        with scoped(tracing=False):
            sim = Simulator()
            trunk = Channel(sim, capacity_bps=1e6, name="trunk")
            dog = Watchdog(sim, slos=default_slos(nodes_floor=1.0))
            dog.arm(channels=[trunk], channels_complete=True)
            sim.obs.metrics.gauge("cluster.nodes_live").set(2.0)
            flushes = self.count(monkeypatch, MetricsRegistry, "flush")
            dog.check()
            assert len(flushes) == 1
            # Standing alone, one objective still reads settled totals:
            # the channel's traffic tally reaches the registry unasked.
            reservation = trunk.reserve(1e6, "r")
            sim.run_until_complete(sim.spawn(reservation.transmit(8_000)))
            spec = dog.add_slo(SLOSpec("bits", "counter-max",
                                       "net.bits_sent", 1e9))
            assert dog.engine.evaluate_one(spec).value == 8_000
            assert len(flushes) == 2


class TestConstantTimeSizeRead:
    def test_audio_rate_read_sizes_no_element(self, monkeypatch):
        # The ledger's audio track: 1.6 s at 22.05 kHz.  Counted, not
        # timed: one call per sample is what made `values` 75 % of
        # ingest_playback.
        from repro.values import RawAudioValue

        audio = RawAudioValue(np.zeros(35_280, dtype=np.int16),
                              sample_rate=22_050.0)
        calls = []
        monkeypatch.setattr(
            RawAudioValue, "element_size_bits",
            lambda self, index: calls.append(index) or 16)
        assert audio.data_rate_bps() == 35_280 * 16 / 1.6
        assert audio.scale(2.0).data_size_bits() == 35_280 * 16
        assert calls == []


class _CountedKey:
    """An int key that counts every comparison made through it."""

    compared = 0
    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def _counted(op):
        def compare(self, other):
            _CountedKey.compared += 1
            return op(self.n, other.n)
        return compare

    __lt__ = _counted(int.__lt__)
    __le__ = _counted(int.__le__)
    __gt__ = _counted(int.__gt__)
    __ge__ = _counted(int.__ge__)
    __eq__ = _counted(int.__eq__)
    __hash__ = None


class TestBisectingRangeWalk:
    # Counted, not timed.  The window sits near the top of 10^4 keys,
    # where a walk that tests every key against both bounds pays for
    # all the keys to the window's left; two bisects pay about 28.
    def test_narrow_window_compares_few_keys(self):
        from repro.db.index import OrderedIndex
        from repro.db.objects import OID

        tree = OrderedIndex()
        for k in range(10_000):
            tree.insert(_CountedKey(k), OID("T", k))
        lo, hi = _CountedKey(9_900), _CountedKey(9_909)
        _CountedKey.compared = 0
        assert tree.range(lo, hi) == {OID("T", k)
                                      for k in range(9_900, 9_910)}
        assert _CountedKey.compared < 200
        _CountedKey.compared = 0
        assert len(tree.range(lo, hi, include_lo=False)) == 9
        assert _CountedKey.compared < 200


class TestBulkLoadCollectorPasses:
    # Counted, not timed: with the collector enabled by the caller, a
    # bulk load must trigger no full (generation-2) collection.  At the
    # parent commit this load saw several, each over the whole heap.
    def test_bulk_load_sees_no_full_collections(self):
        import gc

        from repro.annotations import AnnotationStore, CorpusSpec, load_corpus

        full = []

        def count(phase, info):
            if phase == "start" and info["generation"] == 2:
                full.append(info)

        store = AnnotationStore()
        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(count)
        try:
            facts = load_corpus(store, CorpusSpec(
                seed=3, values=40, annotations=20_000, duration_s=600.0))
        finally:
            gc.callbacks.remove(count)
            if not was_enabled:
                gc.disable()
        assert facts["annotations"] == len(store) == 20_000
        assert full == []


class TestStoredRowBytes:
    # Counted, not timed, and exact where RSS is not: the live bytes a
    # bulk-loaded annotation costs (row, OID, floats, its object-table
    # slot and its posting).  615 with a dict per row, 399 with a shared
    # layout and one value tuple (EXPERIMENTS.md, Exp. P8).
    def test_a_loaded_annotation_costs_at_most_450_live_bytes(self):
        import gc
        import tracemalloc

        from repro.annotations import AnnotationStore, CorpusSpec, load_corpus

        store = AnnotationStore()
        spec = CorpusSpec(seed=3, values=40, annotations=20_000,
                          duration_s=600.0)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            load_corpus(store, spec)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) == 20_000
        assert (after - before) / len(store) <= 450


class TestBulkIndexExecution:
    # Counted, not timed: a full-track ``during`` over 10^4 rows enters
    # the interval index a handful of times (per block, never per row)
    # and builds no Annotation until a row is touched.
    def test_full_track_during_is_per_block_and_hydrates_on_touch(
            self, monkeypatch):
        import sys

        from repro.annotations import (AQ, Annotation, AnnotationStore,
                                       AnnotationType, intervals, run)

        store = AnnotationStore()
        store.define_type(AnnotationType("word"))
        store.bulk_load(("v", "audio", "word", i * 0.05, i * 0.05 + 0.25, ())
                        for i in range(10_000))
        blocks = len(store.track_index("v", "audio")._blocks)
        assert blocks == 10_000 // (intervals.BLOCK_CAPACITY // 2) + 1

        hydrated = []
        original = Annotation.from_object.__func__
        monkeypatch.setattr(
            Annotation, "from_object",
            classmethod(lambda cls, obj: hydrated.append(obj.oid)
                        or original(cls, obj)))
        index_calls = []

        def profile(frame, event, arg):
            if (event == "call"
                    and frame.f_code.co_filename == intervals.__file__):
                index_calls.append(frame.f_code.co_name)

        query = AQ.on("v", "audio").during(0.0, 600.0)
        sys.setprofile(profile)
        try:
            result = run(store, query, mode="index")
        finally:
            sys.setprofile(None)
        assert result.examined == len(result.rows) == 10_000
        # The planner's O(1) summaries, then select, _pieces, two _seeks
        # and one _cut: whatever the row count.
        assert sorted(set(index_calls)) == [
            "__len__", "_cut", "_pieces", "_seek", "max_end", "min_start",
            "select"]
        assert len(index_calls) < 12
        assert hydrated == []
        assert result.rows[17].start == 17 * 0.05
        assert len(hydrated) == 1
        assert len(list(result.rows[:100])) == 100 and len(hydrated) == 101


class TestCoveringIndexCounts:
    # Counted, not timed: a posting carries its row and its type, so an
    # untransacted index query never enters the object table, a typed
    # one is handed only rows of its type, and a store that keeps
    # answering the same queries keeps no memory of having done so.
    @staticmethod
    def corpus():
        from repro.annotations import AnnotationStore, CorpusSpec, load_corpus

        store = AnnotationStore()
        load_corpus(store, CorpusSpec(seed=3, values=8, annotations=4_000,
                                      duration_s=600.0))
        return store

    @staticmethod
    def battery():
        from repro.annotations import AQ

        on = AQ.on("value-00000", "audio")
        return [on.during(0.0, 600.0), on.overlaps(100.0, 101.0),
                on.before(60.0), on.after(540.0), on.meets(100.0, 130.0),
                on.of_type("word").where(label="word-003").during(0.0, 300.0),
                AQ.of_type("turn").during(200.0, 220.0),
                AQ.on("value-00001").of_type("phone").overlaps(0.0, 600.0)]

    def test_an_index_query_never_enters_the_object_table(self, monkeypatch):
        from repro.annotations import run
        from repro.db.store import ObjectStore

        store = self.corpus()
        gets = []
        original = ObjectStore.get
        monkeypatch.setattr(ObjectStore, "get", lambda self, oid: (
            gets.append(oid), original(self, oid))[1])
        returned = 0
        for query in self.battery():
            result = run(store, query, mode="index")
            returned += len(result.rows)
            assert len(list(result.rows)) == len(result.rows)  # hydrated
        assert returned > 500 and gets == []
        # The scan path does enter it, once a row: the count is live.
        scanned = run(store, self.battery()[0], mode="scan")
        assert len(gets) == scanned.examined == len(store)

    def test_a_typed_query_is_handed_rows_of_its_type_only(self, monkeypatch):
        from repro.annotations import AQ, IntervalIndex, run

        store = self.corpus()
        handed = []
        original = IntervalIndex.select

        def select(self, *args):
            found, matched = original(self, *args)
            handed.extend(found)
            return found, matched

        monkeypatch.setattr(IntervalIndex, "select", select)
        result = run(store, AQ.of_type("turn").during(0.0, 600.0),
                     mode="index")
        # Every track answered, every posting was examined, and what the
        # indexes handed over is the result, row for row.
        assert result.examined == len(store) > 10 * len(result.rows) > 0
        assert len(handed) == len(result.rows)
        assert all(map(lambda obj, ann: obj.oid == ann.oid,
                       handed, result.rows))
        assert {ann.atype for ann in result.rows} == {"turn"}

    @staticmethod
    def retained_by(store, queries):
        """Traced bytes still held once every query has run."""
        import gc
        import tracemalloc

        from repro.annotations import run

        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for query in queries:
                run(store, query)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return after - before

    @staticmethod
    def one_track():
        from repro.annotations import AnnotationStore, AnnotationType

        store = AnnotationStore()
        store.define_type(AnnotationType("word"))
        store.bulk_load(("v", "audio", "word", i * 0.5, i * 0.5 + 0.75, ())
                        for i in range(100))
        return store

    def test_repeated_queries_retain_no_memory(self):
        # At the parent every execution appended a plan event with a
        # fresh subject string and argument dict: 375 bytes a query, for
        # as long as the store lived (15 MB over these repeats).
        from repro.annotations import AQ, run
        from repro.obs import scoped

        repeats = 2_000
        with scoped(tracing=False) as obs:
            store = self.one_track()
            battery = [
                AQ.on("v", "audio").of_type("word").overlaps(lo, lo + 1.0)
                for lo in range(1, 21)]
            for query in battery:  # first sight: each verdict is logged
                assert len(run(store, query).rows) == 3
            assert len(obs.decisions.by_kind("plan")) == 20
            assert self.retained_by(store, battery * repeats) < 64 * 1024
            # Logged once, and every execution still counted.
            assert len(obs.decisions.by_kind("plan")) == 20
            assert obs.metrics.counter("annotations.plans_index").value \
                == 20 * (repeats + 1)

    def test_distinct_queries_retain_nothing_where_no_plan_is_logged(self):
        # The default Obs logs no decision, so the store keeps no verdict
        # either: queries that never repeat leave nothing behind.
        from repro.annotations import AQ

        store = self.one_track()
        assert not store.obs.decisions.enabled
        on = AQ.on("v", "audio").of_type("word")
        distinct = [on.overlaps(i * 0.01, i * 0.01 + 1.0)
                    for i in range(2_000)]
        assert len({query.describe() for query in distinct}) == 2_000
        assert self.retained_by(store, distinct) < 4 * 1024
        assert store.obs.metrics.counter(
            "annotations.plans_index").value == 2_000


class TestProfileCLI:
    def test_profile_resolves_all_registries(self):
        from repro.perf import available_scenarios, profile_scenario

        names = available_scenarios()
        assert {"quickstart", "disk-outage", "surge"} <= set(names)
        report, facts = profile_scenario("quickstart", top=5)
        assert "quickstart" in report
        assert "cumulative" in report
        assert facts["frames_presented"] > 0

    def test_unknown_scenario_raises(self):
        from repro.perf import resolve_scenario

        with pytest.raises(KeyError, match="pick one of"):
            resolve_scenario("definitely-not-a-scenario")


class TestClockOutCounts:
    """A paced source over a hop with latency costs a handful of kernel
    events, not a process per element per hop."""

    @staticmethod
    def playback(per_element: bool):
        from repro.activities import EVENT_EACH_ELEMENT, Location
        from repro.activities.library import VideoDecoder
        from repro.avdb import AVDatabaseSystem
        from repro.codecs import JPEGCodec
        from repro.storage import MagneticDisk
        from repro.synth import moving_scene

        system = AVDatabaseSystem()
        system.add_storage(MagneticDisk(system.simulator, "disk0"))
        value = JPEGCodec(75).encode_value(moving_scene(48, 32, 24))
        system.store_value(value, "disk0")
        session = system.open_session("viewer", latency_s=0.001)
        source = session.new_db_source(value)
        if per_element:
            source.catch(EVENT_EACH_ELEMENT, lambda *_: None)
        decoder = session.new_activity(VideoDecoder(
            system.simulator, value.codec, value.width, value.height,
            value.depth, name="decode", location=Location.APPLICATION))
        window = session.new_video_window()
        streams = [session.connect(source, decoder.port("video_in")),
                   session.connect(decoder.port("video_out"), window)]
        for stream in streams:
            stream.start()
        system.simulator.run(until=WorldTime(0.0))
        clocked = source.clocked is not None
        session.run()
        assert window.elements_consumed == 48
        counts = system.metrics.snapshot()
        return (clocked, counts["sim.processes_spawned"],
                counts["sim.events_dispatched"])

    def test_plain_playback_is_clocked_out(self):
        clocked, spawned, dispatched = self.playback(per_element=False)
        # Before: 53 processes (one ``deliver:`` per element, a
        # ``:prefetch``) and about 465 events; now 3 and 100.
        assert clocked
        assert spawned <= 6
        assert dispatched <= 260

    def test_a_caught_handler_keeps_the_per_element_loop(self):
        clocked, spawned, dispatched = self.playback(per_element=True)
        assert not clocked
        assert spawned == 4     # source, its read-ahead stage, decoder, window
        # one wake-up per element in each of the two source-side stages
        # that the clock-out folds away
        assert dispatched >= self.playback(per_element=False)[2] + 2 * 48


class TestPerfSmokeBaseline:
    def test_gates_against_the_latest_row_with_smoke_numbers(self):
        import importlib.util
        import json
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "bench_kernel_throughput",
            root / "benchmarks" / "bench_kernel_throughput.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        doc = json.loads((root / "BENCH_PERF.json").read_text())
        # Rows appended by other benchmarks carry no smoke numbers; the
        # gate used to read the last row and die of a KeyError.
        assert "smoke_normalized" not in doc["trajectory"][-1]
        entry = bench.smoke_baseline(doc)
        assert set(entry["smoke_normalized"]) == set(bench.METRICS)
        later = doc["trajectory"][doc["trajectory"].index(entry) + 1:]
        assert not any("smoke_normalized" in row for row in later)
        assert bench.smoke_baseline({"trajectory": later}) is None
