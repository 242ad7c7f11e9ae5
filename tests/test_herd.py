"""Vectorized client-herd simulation (PR 9).

Covers the :mod:`repro.herd` hybrid mode end to end:

* ``admit_batch`` must mirror N back-to-back ``try_admit`` calls
  *exactly* — including the Background watermark re-check that
  sequential arrivals get per client — because the herd↔discrete
  equivalence proof leans on it.
* The herd coupler and the discrete per-client reference must agree on
  every verdict count, the goodput and trunk bit totals, and the
  epoch-sampled occupancy curve for the same seeded population.
* Populations and scenario summaries must be byte-identical across
  reruns (the determinism contract the rest of the repo holds).
* The satellite pieces: :func:`repro.herd.coupler.apportion` and
  :class:`repro.cache.aggregate.AggregateHitModel`, each against the
  per-epoch scalar code it replaced (kept here as the oracle), a cohort
  preempted at time zero, and the kernel's
  :meth:`Simulator.schedule_every` epoch ticker.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.admission import controller as controller_module
from repro.admission import (
    AdmissionController,
    BatchVerdict,
    Priority,
    QoSContract,
)
from repro.cache.aggregate import AggregateHitModel
from repro.errors import AdmissionError, SimulationError
from repro.herd import (
    HerdCoupler,
    HerdPhase,
    HerdPopulation,
    PRIORITY_ORDER,
    apportion,
    equivalence_report,
)
from repro.herd.scenarios import SCENARIOS, summary_line, surge
from repro.net.channel import Channel
from repro.obs import scoped
from repro.sim import Simulator

MBPS = 1_000_000.0


def make_controller(capacity_mbps=2.0, **kwargs):
    sim = Simulator()
    trunk = Channel(sim, capacity_mbps * MBPS, name="trunk")
    return sim, trunk, AdmissionController(sim, trunk, **kwargs)


def phases(rate=40.0):
    return (
        HerdPhase("ramp", 1.0, rate, viral_share=0.35,
                  interactive_share=0.2),
        HerdPhase("peak", 1.5, 4.0 * rate, viral_share=0.6,
                  interactive_share=0.25, background_share=0.1),
        HerdPhase("cool", 1.0, 0.8 * rate, viral_share=0.3),
    )


# ---------------------------------------------------------------------------
# admit_batch == N sequential try_admit calls
# ---------------------------------------------------------------------------

class TestAdmitBatchEquivalence:
    """The batched API must be indistinguishable from a loop."""

    @staticmethod
    def _sequential(controller, contract, count, label):
        """What N separate arrivals would get, as a BatchVerdict-alike."""
        full = degraded = shed = 0
        reservations = []
        for index in range(count):
            try:
                r = controller.try_admit(contract, label=f"{label}-{index}")
            except AdmissionError:
                shed += 1
                continue
            reservations.append(r)
            if r.bps + 1e-9 >= contract.bps:
                full += 1
            else:
                degraded += 1
        return full, degraded, shed, reservations

    def _both(self, capacity_mbps, contract, count, **kwargs):
        _, trunk_a, ctrl_a = make_controller(capacity_mbps, **kwargs)
        _, trunk_b, ctrl_b = make_controller(capacity_mbps, **kwargs)
        verdict = ctrl_a.admit_batch(contract, count, label="batch")
        seq = self._sequential(ctrl_b, contract, count, "seq")
        return verdict, seq, trunk_a, trunk_b

    @pytest.mark.parametrize("capacity_mbps,count", [
        (10.0, 4),     # everything fits
        (10.0, 25),    # saturates mid-batch
        (10.5, 25),    # fractional leftover -> one degraded client
        (7.3, 40),     # odd capacity
        (1.0, 3),      # tiny trunk
    ])
    def test_standard_matches_sequential(self, capacity_mbps, count):
        contract = QoSContract(1.0 * MBPS, Priority.STANDARD,
                               min_fraction=0.5, queue_timeout_s=1.5)
        verdict, seq, trunk_a, trunk_b = self._both(
            capacity_mbps, contract, count)
        assert (verdict.admitted_full, verdict.admitted_degraded, verdict.shed) == seq[:3]
        assert trunk_a.reserved_bps == pytest.approx(trunk_b.reserved_bps)

    @pytest.mark.parametrize("capacity_mbps,count", [
        (10.0, 12),    # watermark trips mid-batch
        (10.0, 8),     # lands exactly on the watermark
        (4.0, 30),     # watermark trips almost immediately
    ])
    def test_background_watermark_recheck(self, capacity_mbps, count):
        """Sequential Background arrivals re-check the watermark per
        grant; the batch must cap itself the same way, not admit the
        whole cohort against the check it passed on entry."""
        contract = QoSContract(1.0 * MBPS, Priority.BACKGROUND,
                               min_fraction=0.25, queue_timeout_s=3.0)
        verdict, seq, trunk_a, trunk_b = self._both(
            capacity_mbps, contract, count, high_watermark=0.85)
        assert (verdict.admitted_full, verdict.admitted_degraded, verdict.shed) == seq[:3]
        assert trunk_a.reserved_bps == pytest.approx(trunk_b.reserved_bps)

    def test_full_interactive_never_degrades(self):
        contract = QoSContract(1.0 * MBPS, Priority.INTERACTIVE,
                               min_fraction=1.0, queue_timeout_s=0.5)
        verdict, seq, _, _ = self._both(2.5, contract, 6)
        assert verdict.admitted_degraded == 0
        assert (verdict.admitted_full, verdict.admitted_degraded, verdict.shed) == seq[:3]

    def test_cohort_reservation_aggregates(self):
        _, trunk, ctrl = make_controller(10.0)
        contract = QoSContract(1.0 * MBPS, Priority.STANDARD,
                               min_fraction=0.5, queue_timeout_s=1.5)
        verdict = ctrl.admit_batch(contract, 5, label="cohort")
        assert isinstance(verdict, BatchVerdict)
        assert len(verdict.reservations) == 1
        cohort = verdict.reservations[0]
        assert cohort.cohort_clients == 5
        assert cohort.bps == pytest.approx(5 * MBPS)
        cohort.release()
        assert trunk.reserved_bps == pytest.approx(0.0)

    def test_zero_count_is_a_noop(self):
        _, trunk, ctrl = make_controller(10.0)
        contract = QoSContract(1.0 * MBPS, Priority.STANDARD,
                               min_fraction=0.5, queue_timeout_s=1.5)
        verdict = ctrl.admit_batch(contract, 0, label="empty")
        assert (verdict.admitted_full, verdict.admitted_degraded, verdict.shed) == (0, 0, 0)
        assert verdict.reservations == ()
        assert trunk.reserved_bps == 0.0

    # -- the same claim as a property (DESIGN.md §6.15) --------------------
    COUNTERS = ("admission.admitted", "admission.degraded",
                "admission.shed", "admission.rejected")
    #: rates in Mb/s, non-integer included, on a trunk some prior stream
    #: already holds a share of.
    BURSTS = dict(
        capacity=st.floats(1.0, 200.0), load=st.floats(0.0, 1.0),
        bps=st.floats(0.05, 30.0), priority=st.sampled_from(Priority),
        floor=st.floats(0.05, 1.0), watermark=st.floats(0.05, 1.0),
        count=st.integers(0, 40),
    )

    @classmethod
    def _burst(cls, batched, capacity, load, contract, count, watermark):
        """One burst on a fresh rig: verdict counts, counter deltas, the
        trunk's reserved rate, and the clients each decision kind spoke
        for (an event without ``count`` speaks for one)."""
        with scoped(tracing=False) as obs:
            _, trunk, ctrl = make_controller(
                capacity, max_queue=0, high_watermark=watermark, preempt=False)
            if load * capacity > 0:
                ctrl.try_admit(QoSContract(load * capacity * MBPS),
                               label="prior")
            counter = obs.metrics.counter
            before = [counter(name).value for name in cls.COUNTERS]
            logged = len(obs.decisions.events)
            if batched:
                verdict = ctrl.admit_batch(contract, count, label="burst")
                counts = (verdict.admitted_full, verdict.admitted_degraded,
                          verdict.shed)
            else:
                counts = cls._sequential(ctrl, contract, count, "burst")[:3]
            deltas = [counter(name).value - was
                      for name, was in zip(cls.COUNTERS, before)]
            spoken_for = Counter()
            for event in obs.decisions.events[logged:]:
                spoken_for[event.kind] += (event.args or {}).get("count", 1)
            return counts, deltas, trunk.reserved_bps, dict(spoken_for)

    @classmethod
    def _check_burst(cls, capacity, load, bps, priority, floor, watermark,
                     count):
        contract = QoSContract(bps * MBPS, priority, min_fraction=floor)
        batch = cls._burst(True, capacity, load, contract, count, watermark)
        loop = cls._burst(False, capacity, load, contract, count, watermark)
        assert batch[:2] == loop[:2], "verdicts or counters diverge"
        assert batch[2] == pytest.approx(loop[2], rel=1e-9, abs=1e-3)
        assert batch[3] == loop[3], "decision logs diverge"

    @settings(max_examples=2000)
    @given(**BURSTS)
    def test_batch_is_count_back_to_back_arrivals(self, **burst):
        self._check_burst(**burst)

    def test_property_finds_the_headroom_cap_removed(self, monkeypatch):
        """The planted bug (PR 8's discipline): a background cohort grows
        to channel capacity past the watermark its own grants reached."""
        monkeypatch.setattr(controller_module, "math",
                            SimpleNamespace(ceil=lambda x: 10 ** 9))
        planted = settings(max_examples=2000, phases=[Phase.generate])(
            given(**self.BURSTS)(self._check_burst))
        with pytest.raises(AssertionError, match="verdicts or counters"):
            planted()


# ---------------------------------------------------------------------------
# herd == discrete, same seed
# ---------------------------------------------------------------------------

class TestHerdDiscreteEquivalence:
    """The fluid mode must reproduce the kernel's answers exactly."""

    @pytest.mark.parametrize("capacity_mbps", [4.0, 7.3, 10.5])
    def test_same_seed_same_answers(self, capacity_mbps):
        population = HerdPopulation(phases(), seed=3, catalog_size=16,
                                    epoch_s=0.05)
        report = equivalence_report(population,
                                    capacity_bps=capacity_mbps * MBPS)
        assert report["equivalent"], report["mismatches"]
        assert report["herd"]["clients"] == report["discrete"]["clients"]
        assert report["herd"]["trunk_bits"] == report["discrete"][
            "trunk_bits"]

    def test_occupancy_curves_length_match_even_when_all_shed(self):
        # A trunk too small for anyone: the coupler must still tick out
        # its fixed horizon so the curves stay comparable.
        population = HerdPopulation(phases(10.0), seed=1, catalog_size=8,
                                    epoch_s=0.05)
        report = equivalence_report(population, capacity_bps=0.4 * MBPS)
        assert report["equivalent"], report["mismatches"]
        n = population.n_epochs + 4
        assert len(report["herd"]["occupancy"]) == n
        assert len(report["discrete"]["occupancy"]) == n

    def test_scenario_probe_agrees(self):
        facts = surge(seed=0, clients=1_500, compare_discrete=True)
        assert facts["probe_equivalent"]
        assert facts["probe_mismatches"] == 0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

class TestHerdDeterminism:
    """Same seed -> byte-identical populations and summaries."""

    def test_population_rerun_is_identical(self):
        a = HerdPopulation(phases(), seed=5, catalog_size=16, epoch_s=0.05)
        b = HerdPopulation(phases(), seed=5, catalog_size=16, epoch_s=0.05)
        assert a.sha256() == b.sha256()
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.demand, b.demand)

    def test_population_seed_sensitivity(self):
        a = HerdPopulation(phases(), seed=5, catalog_size=16, epoch_s=0.05)
        b = HerdPopulation(phases(), seed=6, catalog_size=16, epoch_s=0.05)
        assert a.sha256() != b.sha256()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_summary_rerun_is_identical(self, name):
        def run():
            with scoped(tracing=False):
                return summary_line(name, SCENARIOS[name](
                    seed=0, clients=2_000))
        assert run() == run()

    def test_population_invariants(self):
        pop = HerdPopulation(phases(), seed=2, catalog_size=16,
                             epoch_s=0.05)
        assert pop.demand.shape == (pop.n_epochs, 16)
        # Per epoch: arrivals == sum over priorities == sum over assets.
        for epoch in range(pop.n_epochs):
            counts = {priority: int(pop.by_priority[priority][epoch])
                      for priority in PRIORITY_ORDER}
            assert sum(counts.values()) == pop.arrivals[epoch]
            assert pop.demand[epoch].sum() == pop.arrivals[epoch]
        assert set(counts) == set(PRIORITY_ORDER)

    def test_phase_validation(self):
        with pytest.raises(SimulationError):
            HerdPhase("bad", -1.0, 10.0)
        with pytest.raises(SimulationError):
            HerdPhase("bad", 1.0, 10.0, viral_share=1.5)
        with pytest.raises(SimulationError):
            HerdPhase("bad", 1.0, 10.0, interactive_share=0.8,
                      background_share=0.4)

    def test_phase_scaling(self):
        phase = HerdPhase("p", 2.0, 10.0, viral_share=0.4)
        half = phase.scaled(0.5)
        assert half.arrivals_per_s == pytest.approx(5.0)
        assert half.duration_s == phase.duration_s
        assert half.viral_share == phase.viral_share


# ---------------------------------------------------------------------------
# apportion
# ---------------------------------------------------------------------------

def reference_apportion(total, counts):
    """The one-epoch scalar split the array :func:`apportion` replaced,
    kept as its oracle."""
    pool = sum(counts)
    if total < 0 or total > pool:
        raise SimulationError(
            f"cannot apportion {total} across counts summing to {pool}")
    if total == pool:
        return list(counts)
    quotas = [total * c / pool if pool else 0.0 for c in counts]
    floors = [int(q) for q in quotas]
    shortfall = total - sum(floors)
    order = sorted(range(len(counts)),
                   key=lambda i: (-(quotas[i] - floors[i]), i))
    for i in order[:shortfall]:
        floors[i] += 1
    return floors


COUNT = st.one_of(st.integers(0, 10 ** 6), st.sampled_from((0, 1, 2, 7)))


@st.composite
def split_rows(draw):
    """Rows of ``(total, counts)``: zero pools, ties, ``total == pool``
    and counts up to 10^6, so every ``total * c`` stays below 2**53."""
    classes = draw(st.integers(1, 4))
    rows = draw(st.lists(st.one_of(
        st.lists(COUNT, min_size=classes, max_size=classes),
        COUNT.map(lambda c: [c] * classes)), min_size=1, max_size=8))
    # Per row: none of the pool, all of it, or a drawn share.
    shares = draw(st.lists(st.one_of(st.sampled_from((0.0, 1.0)),
                                     st.floats(0.0, 1.0)),
                           min_size=len(rows), max_size=len(rows)))
    return [(int(share * sum(counts)), counts)
            for share, counts in zip(shares, rows)]


class TestApportion:
    @staticmethod
    def one(total, counts):
        return apportion([total], [counts]).tolist()[0]

    def test_preserves_total_and_proportion(self):
        out = self.one(10, [5, 3, 2])
        assert out == [5, 3, 2]

    def test_largest_remainder_rounding(self):
        out = self.one(7, [5, 3, 2])
        assert sum(out) == 7
        assert out == [4, 2, 1]

    def test_ties_break_by_index(self):
        out = self.one(1, [1, 1])
        assert out == [1, 0]

    def test_zero_everywhere(self):
        assert self.one(0, [3, 4]) == [0, 0]
        assert self.one(0, [0, 0]) == [0, 0]

    def test_overallocation_raises(self):
        with pytest.raises(SimulationError):
            self.one(5, [2, 1])

    @settings(max_examples=50)
    @given(rows=split_rows())
    def test_array_split_is_the_scalar_split_row_by_row(self, rows):
        totals = [total for total, _ in rows]
        counts = [row for _, row in rows]
        assert apportion(totals, counts).tolist() == [
            reference_apportion(total, row) for total, row in rows]


# ---------------------------------------------------------------------------
# AggregateHitModel
# ---------------------------------------------------------------------------

class ReferenceHitModel:
    """The per-epoch ``account`` loop ``fold`` + ``charge`` replaced,
    kept as their oracle: one histogram at a time, residency as a list."""

    def __init__(self, catalog_size, cached_assets):
        self.cacheable = [i < cached_assets for i in range(catalog_size)]
        self.resident = [False] * catalog_size
        self.lookups = self.hits = self.misses = self.fills = 0

    def account(self, histogram):
        hits = sum(n for n, r in zip(histogram, self.resident) if r)
        misses = sum(histogram) - hits
        for asset, n in enumerate(histogram):
            if n and self.cacheable[asset] and not self.resident[asset]:
                self.resident[asset] = True
                self.fills += 1
        self.lookups += hits + misses
        self.hits += hits
        self.misses += misses
        return hits, misses


@st.composite
def demand_matrices(draw):
    """A demand matrix with all-zero rows, an uncacheable tail, and a
    capacity of 0, of the whole catalog, or anything between."""
    catalog = draw(st.integers(1, 8))
    cached = draw(st.one_of(st.just(0), st.just(catalog),
                            st.integers(0, catalog)))
    row = st.one_of(st.just([0] * catalog),
                    st.lists(st.integers(0, 20), min_size=catalog,
                             max_size=catalog))
    rows = draw(st.lists(row, min_size=1, max_size=12))
    return catalog, cached, rows


class TestAggregateHitModel:
    def _model(self, catalog=8, cached=3):
        sim = Simulator()
        return AggregateHitModel(sim.obs.metrics, catalog, cached)

    @staticmethod
    def _epochs(model, rows):
        """Fold every row, then charge them in order; yields each
        epoch's ``(hits, misses)`` after its charge."""
        for hits, misses, fills in zip(*model.fold(np.array(rows))):
            model.charge(hits, misses, fills)
            yield hits, misses

    def test_cold_epoch_is_all_misses_then_resident(self):
        model = self._model()
        hist = np.zeros(8, dtype=np.int64)
        hist[0] = 10
        epochs = self._epochs(model, [hist, hist])
        hits, misses = next(epochs)
        assert (hits, misses) == (0, 10)       # read-through fill
        hits, misses = next(epochs)
        assert (hits, misses) == (10, 0)       # resident now
        assert model.resident_assets == 1

    def test_uncacheable_tail_never_fills(self):
        model = self._model(catalog=8, cached=3)
        hist = np.zeros(8, dtype=np.int64)
        hist[7] = 5                            # rank 7 > top-3
        for hits, misses in self._epochs(model, [hist] * 3):
            assert (hits, misses) == (0, 5)
        assert model.resident_assets == 0

    def test_hit_ratio_and_counters(self):
        model = self._model()
        hist = np.zeros(8, dtype=np.int64)
        hist[1] = 4
        list(self._epochs(model, [hist, hist]))
        assert model.hit_ratio == pytest.approx(0.5)

    def test_rejects_bad_histograms(self):
        model = self._model()
        with pytest.raises(SimulationError):
            model.fold(np.zeros((1, 7), dtype=np.int64))
        with pytest.raises(SimulationError):
            model.fold(np.array([[-1] + [0] * 7], dtype=np.int64))

    @settings(max_examples=50)
    @given(drawn=demand_matrices())
    def test_fold_and_charge_are_the_per_epoch_loop(self, drawn):
        catalog, cached, rows = drawn
        with scoped(tracing=False) as obs:
            model = AggregateHitModel(obs.metrics, catalog, cached)
            reference = ReferenceHitModel(catalog, cached)
            counter = obs.metrics.counter
            for row, got in zip(rows, self._epochs(model, rows)):
                assert got == reference.account(row)
                assert (model.lookups, model.hits, model.misses) == (
                    reference.lookups, reference.hits, reference.misses)
                assert model.resident_assets == sum(reference.resident)
                assert [counter(f"cache.{name}").value for name in (
                    "lookups", "hits", "misses", "fills")] == [
                    reference.lookups, reference.hits, reference.misses,
                    reference.fills]


# ---------------------------------------------------------------------------
# the coupler's departures
# ---------------------------------------------------------------------------

class TestPreemptedCohort:
    def test_preempted_at_time_zero_is_charged_nothing(self):
        # A cohort revoked at virtual time 0.0 was charged the whole
        # session: ``released_at or now`` read 0.0 as "not released".
        sim, trunk, controller = make_controller(10.0, preempt=True)
        population = HerdPopulation(
            (HerdPhase("bg", 0.05, 2000.0, interactive_share=0.0,
                       background_share=1.0),), seed=1)
        coupler = HerdCoupler(sim, controller, population)
        coupler.start()

        def foreground():
            yield from controller.admit(
                QoSContract(4 * MBPS, Priority.INTERACTIVE,
                            min_fraction=1.0), label="fg")

        sim.spawn(foreground(), name="fg")
        sim.run()
        facts = coupler.facts()
        assert facts["preempted"] == facts["admitted_full"] > 0
        assert facts["wasted_bits"] == 0
        assert trunk.total_bits == 0


# ---------------------------------------------------------------------------
# schedule_every / EpochTicker
# ---------------------------------------------------------------------------

class TestScheduleEvery:
    def test_ticks_with_indices_until_horizon(self):
        from repro.avtime import WorldTime

        sim = Simulator()
        seen = []
        sim.schedule_every(0.5, seen.append, until=WorldTime(2.0))
        sim.run()
        # until is inclusive: ticks at 0.0, 0.5, 1.0, 1.5, 2.0.
        assert seen == [0, 1, 2, 3, 4]

    def test_start_at_offsets_the_grid(self):
        from repro.avtime import WorldTime

        sim = Simulator()
        stamps = []
        sim.schedule_every(1.0, lambda t: stamps.append(sim.now.seconds),
                           until=WorldTime(3.5), start_at=WorldTime(0.5))
        sim.run()
        assert stamps == pytest.approx([0.5, 1.5, 2.5, 3.5])

    def test_stop_iteration_cancels(self):
        sim = Simulator()
        seen = []

        def action(tick):
            seen.append(tick)
            if tick == 2:
                raise StopIteration

        sim.schedule_every(0.25, action)
        sim.run()
        assert seen == [0, 1, 2]


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

class TestHerdScenarios:
    def test_surge_facts_are_consistent(self):
        with scoped(tracing=False):
            facts = surge(seed=0, clients=2_000)
        handled = (facts["edge_served"] + facts["admitted_full"]
                   + facts["admitted_degraded"] + facts["shed"])
        assert handled == facts["clients"]
        assert facts["completed"] + facts["preempted"] <= (
            facts["admitted_full"] + facts["admitted_degraded"])
        assert 0.0 <= facts["cache_hit_ratio"] <= 1.0
        # Edge-served clients earn goodput without touching the trunk,
        # so goodput can exceed trunk bits; both must be positive here.
        assert facts["goodput_bits"] > 0
        assert facts["trunk_bits"] > 0
        assert facts["population_sha"]

    def test_zero_clients_is_refused_not_defaulted(self):
        # `clients or 20_000` used to turn 0 into the default crowd.
        with pytest.raises(SimulationError, match="at least 1 client"):
            surge(seed=0, clients=0)

    def test_summary_line_is_stable_format(self):
        with scoped(tracing=False):
            line = summary_line("surge", surge(seed=0, clients=2_000))
        assert line.startswith("herd surge: seed=0 clients_expected=2000")
        assert "peak_utilization=" in line
