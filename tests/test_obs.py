"""The observability layer: instruments, tracer, scoping, exporters."""

import json
import shutil
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

from repro.obs import (
    DEPTH_BUCKETS,
    NULL_OBS,
    NULL_TRACER,
    DecisionLog,
    Histogram,
    MetricError,
    MetricsRegistry,
    Obs,
    Tracer,
    attach,
    chrome_trace,
    chrome_trace_events,
    current,
    disabled,
    scoped,
    text_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim import Delay, Simulator


class TestInstruments:
    def test_counter_registration_and_aggregation(self):
        registry = MetricsRegistry()
        counter = registry.counter("sim.events_dispatched")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        # Get-or-create: same name returns the same instrument.
        assert registry.counter("sim.events_dispatched") is counter
        assert "sim.events_dispatched" in registry
        assert len(registry) == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("db.tx_commits")
        with pytest.raises(MetricError, match="already registered as counter"):
            registry.gauge("db.tx_commits")

    def test_gauge_high_watermark(self):
        gauge = MetricsRegistry().gauge("storage.device.disk0.utilization")
        gauge.set(0.5)
        gauge.set(0.9)
        gauge.set(0.2)
        assert gauge.value == 0.2
        assert gauge.high_watermark == 0.9

    def test_histogram_bucketing(self):
        histogram = Histogram("stream.buffer_occupancy", DEPTH_BUCKETS)
        for value in (1, 1, 2, 3, 5, 200):
            histogram.observe(value)
        buckets = histogram.bucket_counts()
        assert buckets["<=1"] == 2     # inclusive upper edges
        assert buckets["<=2"] == 1
        assert buckets["<=4"] == 1     # the 3
        assert buckets["<=8"] == 1     # the 5
        assert buckets["+inf"] == 1    # the 200 overflows
        assert histogram.count == 6
        assert histogram.min == 1 and histogram.max == 200
        assert histogram.mean == pytest.approx(212 / 6)

    def test_a_registered_histogram_takes_its_catalog_buckets(self):
        histogram = MetricsRegistry().histogram("stream.buffer_occupancy")
        assert histogram.bounds == tuple(float(b) for b in DEPTH_BUCKETS)

    def test_histogram_percentile_estimates(self):
        histogram = Histogram("t", (1.0, 10.0, 100.0))
        for _ in range(99):
            histogram.observe(0.5)
        histogram.observe(50.0)
        assert histogram.percentile(50) == 1.0    # bucket upper edge
        assert histogram.percentile(100) == 50.0  # capped at true max

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(MetricError, match="strictly increasing"):
            Histogram("bad", (5.0, 1.0))
        with pytest.raises(MetricError, match="at least one bucket"):
            Histogram("empty", ())

    def test_snapshot_is_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("net.bits_sent").inc(8)
        registry.gauge("net.channel.c.utilization").set(0.25)
        registry.histogram("sim.resource_wait_s").observe(0.002)
        snapshot = registry.snapshot()
        assert snapshot["net.bits_sent"] == 8
        assert snapshot["net.channel.c.utilization"]["high_watermark"] == 0.25
        assert snapshot["sim.resource_wait_s"]["count"] == 1
        json.dumps(snapshot)  # must be serializable as-is


class TestTracer:
    def test_span_carries_virtual_and_wall_time(self):
        clock = iter([2.0, 5.5])
        tracer = Tracer(clock=lambda: next(clock))
        span = tracer.begin("disk.service", "storage", track="disk0", seek=7)
        span.end(outcome="ok")
        (event,) = tracer.events
        assert event.phase == "X"
        assert event.ts == 2.0
        assert event.dur == 3.5              # virtual duration
        assert event.wall_dur >= 0.0         # wall duration, independently
        assert event.args == {"seek": 7, "outcome": "ok"}

    def test_span_nesting_with_virtual_timestamps(self):
        times = iter([0.0, 1.0, 2.0, 4.0])
        tracer = Tracer(clock=lambda: next(times))
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        inner.end()
        outer.end()
        inner_event, outer_event = tracer.events
        assert inner_event.name == "inner"
        assert (inner_event.ts, inner_event.dur) == (1.0, 1.0)
        assert (outer_event.ts, outer_event.dur) == (0.0, 4.0)
        # The inner span lies within the outer one on the virtual axis.
        assert outer_event.ts <= inner_event.ts
        assert inner_event.ts + inner_event.dur <= outer_event.ts + outer_event.dur

    def test_span_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("once")
        span.end()
        span.end()
        assert len(tracer.events) == 1

    def test_bind_clock_first_wins(self):
        tracer = Tracer()
        assert not tracer.clock_bound
        tracer.bind_clock(lambda: 7.0)
        tracer.bind_clock(lambda: 99.0)  # ignored
        tracer.instant("mark")
        assert tracer.events[0].ts == 7.0

    def test_null_tracer_emits_nothing(self):
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.begin("ignored", "cat", track="t", a=1)
        span.end(b=2)
        NULL_TRACER.instant("ignored")
        assert len(NULL_TRACER.events) == 0
        assert len(NULL_TRACER) == 0


class TestScoping:
    def test_attach_precedence(self):
        explicit = Obs()
        with scoped() as ambient:
            assert attach() is ambient
            assert attach(explicit) is explicit
        # Outside any scope: a fresh default with metrics on, tracing off.
        fresh = attach()
        assert fresh is not ambient
        assert not fresh.tracer.enabled
        assert current() is None

    def test_nested_scopes(self):
        with scoped(tracing=False) as outer:
            with scoped() as inner:
                assert current() is inner
                assert inner.tracer.enabled
            assert current() is outer

    def test_disabled_scope_is_null(self):
        with disabled() as obs:
            assert obs is NULL_OBS
            sim = Simulator()
            assert sim.obs is NULL_OBS

            def noop():
                yield Delay(0.1)

            sim.spawn(noop(), name="noop")
            sim.run()
        assert "sim.events_dispatched" not in NULL_OBS.metrics.snapshot()

    def test_simulator_binds_virtual_clock_in_scope(self):
        def proc():
            yield Delay(1.5)

        with scoped() as obs:
            sim = Simulator()
            sim.spawn(proc(), name="worker")
            sim.run()
        spans = [e for e in obs.tracer.events if e.name == "worker"]
        assert len(spans) == 1
        assert spans[0].ts == 0.0
        assert spans[0].dur == pytest.approx(1.5)  # virtual, not wall


class TestExport:
    def _traced_run(self):
        def proc():
            yield Delay(0.25)

        with scoped() as obs:
            sim = Simulator()
            sim.obs.tracer.instant("mark", "test", track="marks", detail=1)
            sim.spawn(proc(), name="p0")
            sim.run()
        return obs

    def test_chrome_trace_round_trip(self, tmp_path):
        obs = self._traced_run()
        path = tmp_path / "out.trace.json"
        write_chrome_trace(obs.tracer, path, obs.metrics)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {m["name"] for m in meta}
        spans = [e for e in events if e["ph"] == "X" and e["name"] == "p0"]
        assert len(spans) == 1
        assert spans[0]["dur"] == pytest.approx(0.25 * 1e6)  # microseconds
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)
        # Dual stamping: wall seconds ride along in args.
        assert "wall_s" in spans[0]["args"]
        assert doc["otherData"]["metrics"]["sim.processes_finished"] == 1

    def test_chrome_trace_events_use_one_lane_per_track(self):
        obs = self._traced_run()
        events = chrome_trace_events(obs.tracer)
        lanes = {e["args"]["name"]: e["tid"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert set(lanes) == {"marks", "p0"}
        assert len(set(lanes.values())) == 2

    def test_jsonl_export(self, tmp_path):
        obs = self._traced_run()
        path = tmp_path / "events.jsonl"
        write_jsonl(obs.tracer, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(obs.tracer.events)
        assert {"phase", "name", "ts", "wall"} <= set(lines[0])

    def test_text_summary_sections(self):
        obs = self._traced_run()
        report = text_summary(obs.metrics, obs.tracer, title="unit test")
        assert "unit test" in report
        assert "[sim]" in report
        assert "sim.events_dispatched" in report
        assert "trace" in report  # trailing trace-event line

    def test_chrome_trace_without_metrics(self):
        obs = self._traced_run()
        doc = chrome_trace(obs.tracer)
        assert "metrics" not in doc.get("otherData", {})
        json.dumps(doc)


class TestSpanExceptionSafety:
    """Regression: a span must close (with the error recorded) when its
    ``with`` body raises — a span leaked open would vanish from the
    export and skew every duration under it."""

    def test_span_exit_records_error_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.begin("risky", "test"):
                raise ValueError("boom")
        assert len(tracer.events) == 1
        event = tracer.events[0]
        assert event.phase == "X"  # the span did end
        assert "ValueError" in event.args["error"]

    def test_span_exit_without_exception_has_no_error(self):
        tracer = Tracer()
        with tracer.begin("calm", "test"):
            pass
        assert tracer.events[0].args is None

    def test_failing_span_still_exports(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.begin("doomed", "test"):
                raise RuntimeError("dead")
        events = chrome_trace_events(tracer)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 1
        assert "RuntimeError" in complete[0]["args"]["error"]


class TestSnapshotAggregates:
    """Histogram snapshots carry exact count/sum/min/max + percentiles."""

    def test_histogram_snapshot_fields(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t")  # undeclared: TIME_BUCKETS_S
        for value in (0.3, 0.4, 5.0, 50.0):
            histogram.observe(value)
        snap = registry.snapshot()["t"]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(55.7)
        assert snap["min"] == 0.3 and snap["max"] == 50.0
        assert snap["p50"] == 0.5           # bucket-resolution estimate
        assert snap["p99"] == 50.0          # past the last bound: the true max
        json.dumps(snap)

    def test_empty_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.histogram("empty")
        snap = registry.snapshot()["empty"]
        assert snap["count"] == 0 and snap["sum"] == 0.0
        assert snap["min"] is None and snap["p95"] is None

    def test_text_summary_has_percentile_columns(self):
        registry = MetricsRegistry()
        registry.histogram("stream.jitter_ms").observe(2.0)
        report = text_summary(registry)
        assert "p50" in report and "p95" in report and "p99" in report
        assert "sum" in report


class TestDecisionLog:
    def test_emit_chain_and_subjects(self):
        log = DecisionLog()
        log.emit("admit", "s-1", actor="ctl", bps=100.0)
        log.emit("admit", "s-2", actor="ctl")
        log.emit("degrade", "s-1", actor="ctl", fraction=0.5)
        assert sorted({e.subject for e in log.events}) == ["s-1", "s-2"]
        chain = log.chain("s-1")
        assert [e.kind for e in chain] == ["admit", "degrade"]
        assert chain[0].args == {"bps": 100.0}
        assert [e.kind for e in log.by_kind("degrade")] == ["degrade"]
        assert len(log) == 3

    def test_to_dict_is_plain_data(self):
        log = DecisionLog()
        log.emit("shed", "bg-0", actor="ctl", reason="watermark")
        doc = log.events[0].to_dict()
        assert doc["kind"] == "shed" and doc["subject"] == "bg-0"
        json.dumps(doc)

    def test_simulator_binds_virtual_clock(self):
        with scoped():
            sim = Simulator()

            def proc():
                yield Delay(1.25)
                sim.obs.decisions.emit("deadline", "p-0", actor="test")

            sim.spawn(proc(), "p0")
            sim.run()
            events = current().decisions.events
        assert events[0].ts == pytest.approx(1.25)

    def test_null_obs_has_null_decisions(self):
        assert not NULL_OBS.decisions.enabled
        NULL_OBS.decisions.emit("admit", "s-1")
        assert len(NULL_OBS.decisions) == 0


ROOT = Path(__file__).parents[1]
_spec = spec_from_file_location("check_catalog",
                                ROOT / "tools" / "check_catalog.py")
check_catalog = module_from_spec(_spec)
_spec.loader.exec_module(check_catalog)


class TestCatalogLint:
    """``tools/check_catalog.py`` over a copy of ``src/repro`` with one
    disagreement planted in it."""

    @pytest.fixture
    def tree(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(ROOT / "src" / "repro", root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return root

    def plant(self, tree, call):
        module = tree / "cache" / "block.py"
        text = module.read_text()
        module.write_text(text + f"\n\ndef _planted(metrics):\n    {call}\n")
        return f"{module}:{text.count(chr(10)) + 4}"

    def test_an_undeclared_counter_fails_naming_file_and_line(self, tree):
        where = self.plant(tree, 'metrics.counter("cache.bogus")')
        assert check_catalog.check(tree) == [
            f"{where}: 'cache.bogus' is not in {tree / 'obs' / 'catalog.py'}'s METRICS"]

    def test_a_counter_read_as_a_gauge_fails_on_the_kind(self, tree):
        where = self.plant(tree, 'metrics.gauge("cache.hits")')
        assert check_catalog.check(tree) == [
            f"{where}: 'cache.hits' is declared a counter, used as a gauge"]

    def test_an_entry_nothing_emits_fails(self, tree):
        catalog = tree / "obs" / "catalog.py"
        text = catalog.read_text()
        catalog.write_text(text.replace(
            "METRICS = {\n",
            'METRICS = {\n    "cache.bogus": ("counter", "lookups", "unused"),\n'))
        line = text[:text.index("METRICS = {")].count("\n") + 2
        assert check_catalog.check(tree) == [
            f"{catalog}:{line}: METRICS entry 'cache.bogus' has no emission site"]
