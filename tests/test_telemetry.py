"""Tests for the telemetry subsystem (registry, trace ring, exposition, hooks).

Covers the observability satellites: metric-family semantics, the
Prometheus text golden output, the trace ring's event path (bounding
and JSONL round-trips), the AlwaysCorrect convergence event, the keep_monitors
window, the daemon's TypeError handling, and the guarantee that the
default NULL_TELEMETRY sink leaves results bit-identical.
"""

import json
import os
import urllib.request

import numpy as np
import pytest

from repro.control import ControlPlane, HeavyHitterTask
from repro.core import NitroConfig, NitroMode, NitroSketch
from repro.metrics.opcount import OpCounter
from repro.sketches import CountSketch, Monitor
from repro.switchsim import MeasurementDaemon, SwitchSimulator, VPPPipeline
from repro.telemetry import (
    DEFAULT_TIME_BUCKETS,
    METRIC_HELP,
    MetricsRegistry,
    NULL_ACTIVE_SPAN,
    NULL_TELEMETRY,
    NullTelemetry,
    SpanTracer,
    Telemetry,
    TelemetryServer,
    log_buckets,
    parse_spans_jsonl,
    render_prometheus,
)
from repro.traffic import caida_like
from repro.traffic.replay import Batch

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name)) as handle:
        return handle.read()


class FakeClock:
    """Deterministic strictly-increasing timestamps for golden traces."""

    def __init__(self, start: float = 1000.0, step: float = 0.25) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _make_batch(keys) -> Batch:
    keys = np.asarray(keys, dtype=np.int64)
    return Batch(
        keys=keys,
        sizes=np.full(len(keys), 700, dtype=np.int64),
        timestamps=np.arange(len(keys), dtype=np.float64) * 1e-6,
    )


class TestLogBuckets:
    def test_geometric_progression(self):
        assert log_buckets(1.0, 64.0, factor=4.0) == [1.0, 4.0, 16.0, 64.0]

    def test_last_bucket_covers_stop(self):
        buckets = log_buckets(1.0, 50.0, factor=4.0)
        assert buckets[-1] >= 50.0

    def test_defaults_are_ascending(self):
        assert DEFAULT_TIME_BUCKETS == sorted(DEFAULT_TIME_BUCKETS)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 10.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 10.0, factor=1.0)


class TestRegistrySemantics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        family = registry.counter("requests_total", "Requests.", ("method",))
        family.labels(method="get").inc()
        family.labels(method="get").inc(2.5)
        family.labels(method="post").inc()
        assert family.labels("get").value == 3.5
        assert family.labels("post").value == 1.0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        family = registry.counter("requests_total")
        with pytest.raises(ValueError):
            family.inc(-1.0)

    def test_gauge_moves_freely(self):
        registry = MetricsRegistry()
        family = registry.gauge("temperature")
        family.set(4.5)
        family.labels().inc(0.5)
        family.labels().dec(2.0)
        assert family.labels().value == 3.0

    def test_histogram_buckets_and_cumulative(self):
        registry = MetricsRegistry()
        family = registry.histogram("gaps", buckets=[1.0, 4.0, 16.0])
        child = family.labels()
        for value in (0.5, 2.0, 3.0, 10.0, 1000.0):
            child.observe(value)
        assert child.counts == [1, 2, 1, 1]  # per-bucket, last is +Inf
        assert child.cumulative_counts() == [1, 3, 4, 5]
        assert child.count == 5
        assert child.sum == pytest.approx(1015.5)

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "help", ("x",))
        second = registry.counter("a_total", "ignored on re-get", ("x",))
        assert first is second
        assert len(registry) == 1

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(ValueError):
            registry.gauge("a_total")

    def test_label_schema_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "", ("x",))
        with pytest.raises(ValueError):
            registry.counter("a_total", "", ("x", "y"))

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("0bad")
        with pytest.raises(ValueError):
            MetricsRegistry().counter("fine", "", ("bad-label",))

    def test_labels_positional_keyword_mix_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("a_total", "", ("x", "y"))
        assert family.labels("1", "2") is family.labels(x="1", y="2")
        with pytest.raises(ValueError):
            family.labels("1", y="2")
        with pytest.raises(ValueError):
            family.labels("1")  # wrong arity
        with pytest.raises(ValueError):
            family.labels(x="1", z="2")  # wrong names

    def test_histogram_buckets_must_ascend(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=[4.0, 1.0])

    def test_buckets_rejected_for_non_histograms(self):
        from repro.telemetry.registry import MetricFamily

        with pytest.raises(ValueError):
            MetricFamily("counter", "a_total", buckets=[1.0])

    def test_registry_container_protocol(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        assert "a_total" in registry
        assert "b_total" not in registry
        assert [family.name for family in registry] == ["a_total"]
        registry.reset()
        assert len(registry) == 0


def _reference_registry() -> MetricsRegistry:
    """A small deterministic registry exercising every exposition path."""
    registry = MetricsRegistry()
    requests = registry.counter("requests_total", "Requests served.", ("method", "code"))
    requests.labels(method="get", code="200").inc(1024)
    requests.labels(method="post", code="500").inc(3)
    probability = registry.gauge(
        "nitro_sampling_probability", METRIC_HELP["nitro_sampling_probability"]
    )
    probability.set(0.0078125)
    gaps = registry.histogram("gap_slots", "Geometric gaps.", ("path",), buckets=[1.0, 4.0, 16.0])
    child = gaps.labels(path="batch")
    for value in (0.5, 2.0, 3.0, 10.0, 1000.0):
        child.observe(value)
    escapes = registry.counter("escapes_total", "Label escaping.", ("name",))
    escapes.labels(name='quote " backslash \\ newline \n end').inc()
    return registry


class TestPrometheusExposition:
    def test_golden_text(self):
        """Full-text golden for the Prometheus exposition format."""
        assert render_prometheus(_reference_registry()) == _golden("reference.prom")

    def test_integers_render_without_decimal_point(self):
        text = render_prometheus(_reference_registry())
        assert 'requests_total{method="get",code="200"} 1024\n' in text

    def test_histogram_has_inf_bucket_sum_count(self):
        text = render_prometheus(_reference_registry())
        assert 'gap_slots_bucket{path="batch",le="+Inf"} 5' in text
        assert 'gap_slots_sum{path="batch"} 1015.5' in text
        assert 'gap_slots_count{path="batch"} 5' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_json_snapshot_round_trips(self):
        telemetry = Telemetry(
            registry=_reference_registry(), spans=SpanTracer(wall_clock=FakeClock())
        )
        telemetry.event("demo.event", answer=42)
        data = json.loads(telemetry.render_json())
        assert data["metrics"]["requests_total"]["type"] == "counter"
        assert data["trace"]["recorded"] == 1
        assert data["trace"]["spans"][0]["name"] == "demo.event"


class TestTracer:
    """The trace ring's event path: ``Telemetry.event`` records
    zero-duration spans into ``Telemetry.spans``."""

    @staticmethod
    def _telemetry(capacity: int = 4096) -> Telemetry:
        return Telemetry(spans=SpanTracer(capacity=capacity, wall_clock=FakeClock()))

    def test_ring_bounded_and_dropped_counted(self):
        telemetry = self._telemetry(capacity=4)
        for index in range(10):
            telemetry.event("tick", index=index)
        ring = telemetry.spans
        assert len(ring) == 4
        assert ring.recorded == 10
        assert ring.dropped == 6
        assert [span.fields["index"] for span in ring.spans()] == [6, 7, 8, 9]
        assert len({span.span_id for span in ring.spans()}) == 4
        assert {span.duration for span in ring.spans()} == {0.0}

    def test_capacity_validated(self, capsys):
        with pytest.raises(ValueError):
            Telemetry(spans=SpanTracer(capacity=0))
        from repro.cli import main as cli_main

        assert cli_main(["telemetry", "--demo", "--trace-capacity", "0"]) == 2

    def test_events_filter_by_name(self):
        telemetry = self._telemetry()
        telemetry.event("a")
        telemetry.event("b")
        telemetry.event("a")
        assert [span.name for span in telemetry.spans.spans(name="a")] == ["a", "a"]

    def test_jsonl_round_trip(self, tmp_path):
        telemetry = self._telemetry()
        telemetry.event("nitro.p_change", reason="converged", old=1.0, new=0.125)
        telemetry.event("nitro.convergence", packets=4000)
        ring = telemetry.spans
        expected = [span.as_dict() for span in ring.spans()]
        assert [span.as_dict() for span in parse_spans_jsonl(ring.to_jsonl())] == expected

        path = str(tmp_path / "trace.jsonl")
        assert ring.write_jsonl(path) == 2
        with open(path) as handle:
            assert [span.as_dict() for span in parse_spans_jsonl(handle.read())] == expected

    def test_jsonl_lines_have_sorted_keys(self):
        telemetry = self._telemetry()
        telemetry.event("tick", zebra=1, apple=2)
        line = telemetry.spans.to_jsonl().splitlines()[0]
        keys = ('"duration"', '"fields"', '"name"', '"parent_id"', '"span_id"', '"start"')
        assert [line.index(key) for key in keys] == sorted(line.index(key) for key in keys)
        assert line.index('"apple"') < line.index('"zebra"')

    def test_clear(self):
        telemetry = self._telemetry(capacity=4)
        telemetry.event("tick")
        telemetry.spans.clear()
        assert len(telemetry.spans) == 0
        assert telemetry.spans.recorded == 0


class TestTelemetryFacade:
    def test_count_gauge_observe_create_families(self):
        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        telemetry.count("nitro_packets_total", 5, path="batch")
        telemetry.gauge("nitro_sampling_probability", 0.25)
        telemetry.observe("pipeline_stage_seconds", 1e-4, stage="l2fwd", platform="vpp")
        registry = telemetry.registry
        assert registry.get("nitro_packets_total").labels(path="batch").value == 5.0
        assert registry.get("nitro_sampling_probability").labels().value == 0.25
        # Label names are sorted at creation so call-site kwarg order is free.
        assert registry.get("pipeline_stage_seconds").labelnames == ("platform", "stage")
        assert METRIC_HELP["nitro_packets_total"] == registry.get("nitro_packets_total").help

    def test_timer_records_into_histogram(self):
        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        with telemetry.timer("daemon_ingest_seconds", daemon="t"):
            pass
        child = telemetry.registry.get("daemon_ingest_seconds").labels(daemon="t")
        assert child.count == 1
        assert child.sum >= 0.0
        # Timers record into histograms only; they never touch the trace ring.
        assert len(telemetry.spans) == 0

    def test_record_ops_bridges_opcounter(self):
        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        ops = OpCounter()
        ops.hashes += 7
        ops.packets += 2
        telemetry.record_ops(ops, component="daemon0")
        family = telemetry.registry.get("opcounter")
        assert family.labels(category="hashes", component="daemon0").value == 7.0
        assert family.labels(category="packets", component="daemon0").value == 2.0

    def test_null_telemetry_is_inert(self):
        null = NULL_TELEMETRY
        assert isinstance(null, NullTelemetry)
        assert null.enabled is False
        null.count("x_total")
        null.gauge("x", 1.0)
        null.observe("x_seconds", 0.1)
        null.event("x.event", a=1)
        null.record_ops(OpCounter())
        with null.timer("x_seconds", stage="s") as timer:
            pass
        assert timer is null.timer("y_seconds") is NULL_ACTIVE_SPAN  # one shared null
        assert null.atomic() is NULL_ACTIVE_SPAN
        # The writers above never fill the null sink's registry or ring.
        assert len(null.registry) == 0 and len(null.spans) == 0


class TestResolvedChildCache:
    """``Telemetry`` writers resolve each (kind, name, labels) child once."""

    def test_repeat_writes_reuse_the_child_and_render_alike(self):
        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        direct = MetricsRegistry()
        for _ in range(3):
            telemetry.count("requests_total", 2, method="get", code="200")
            direct.counter("requests_total", "", ("code", "method")).labels(
                code="200", method="get"
            ).inc(2)
        registry = telemetry.registry
        assert len(registry._resolved) == 1
        assert registry.get("requests_total").labels(method="get", code="200").value == 6.0
        assert render_prometheus(registry) == render_prometheus(direct)

    def test_reset_clears_the_cache(self):
        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        telemetry.count("nitro_packets_total", 5, path="batch")
        telemetry.registry.reset()
        assert telemetry.registry._resolved == {}
        telemetry.count("nitro_packets_total", 1, path="batch")
        # A stale cached child would have kept counting from 5 off-registry.
        family = telemetry.registry.get("nitro_packets_total")
        assert family.labels(path="batch").value == 1.0

    def test_kind_and_schema_mismatch_still_raise(self):
        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        telemetry.count("nitro_packets_total", 1, path="batch")
        telemetry.count("nitro_packets_total", 1, path="batch")  # cached
        with pytest.raises(ValueError):
            telemetry.count("nitro_packets_total", 1, route="batch")
        with pytest.raises(ValueError):
            telemetry.count("nitro_packets_total", 1)
        with pytest.raises(ValueError):
            telemetry.gauge("nitro_packets_total", 1.0, path="batch")

    def test_non_str_label_values_resolve_uncached(self):
        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        # 1 and 1.0 hash alike but render as different label values.
        telemetry.count("worker_total", worker=1)
        telemetry.count("worker_total", worker=1.0)
        telemetry.count("tag_total", tag=["a"])  # unhashable
        registry = telemetry.registry
        values = [labels for labels, _ in registry.get("worker_total").children()]
        assert values == [("1",), ("1.0",)]
        assert registry.get("tag_total").labels(tag="['a']").value == 1.0
        assert registry._resolved == {}


class TestHTTPEndpoint:
    def test_serves_metrics_snapshot_and_trace(self):
        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        telemetry.count("requests_total", 3)
        telemetry.event("demo.event", ok=True)
        server = TelemetryServer(telemetry, port=0).start()
        base = "http://127.0.0.1:%d" % server.port
        try:
            metrics = urllib.request.urlopen(base + "/metrics").read().decode()
            assert "requests_total 3" in metrics
            snapshot = json.loads(urllib.request.urlopen(base + "/snapshot").read())
            assert snapshot["metrics"]["requests_total"]["samples"][0]["value"] == 3.0
            trace = urllib.request.urlopen(base + "/trace").read().decode()
            assert parse_spans_jsonl(trace)[0].name == "demo.event"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(base + "/nope")
        finally:
            server.close()


def _convergence_run() -> NitroSketch:
    """Deterministic AlwaysCorrect run that crosses the threshold once."""
    config = NitroConfig(
        probability=0.1,
        epsilon=0.5,
        mode=NitroMode.ALWAYS_CORRECT,
        convergence_check_period=1000,
        seed=9,
    )
    nitro = NitroSketch(CountSketch(5, 4096, seed=9), config)
    nitro.telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
    nitro.update_batch(np.full(40000, 1, dtype=np.int64))
    return nitro


class TestConvergenceEvents:
    def test_convergence_event_fires_exactly_once(self):
        nitro = _convergence_run()
        assert nitro.converged
        events = nitro.telemetry.spans.spans(name="nitro.convergence")
        assert len(events) == 1
        event = events[0]
        # The mode transition carries the packet index where T crossed.
        assert event.fields["packets"] == nitro.correctness.converged_at_packet
        assert event.fields["l2_squared"] > event.fields["threshold"]
        assert event.fields["probability"] == 0.1

    def test_p_change_event_and_counters(self):
        nitro = _convergence_run()
        registry = nitro.telemetry.registry
        changes = nitro.telemetry.spans.spans(name="nitro.p_change")
        assert len(changes) == 1
        assert changes[0].fields["reason"] == "converged"
        assert changes[0].fields["old"] == 1.0
        assert changes[0].fields["new"] == 0.1
        assert registry.get("nitro_convergence_total").labels().value == 1.0
        assert registry.get("nitro_sampling_probability").labels().value == 0.1
        checks = registry.get("nitro_convergence_checks_total").labels().value
        assert checks >= 1.0

    def test_convergence_trace_golden(self):
        """JSONL golden for the mode-transition trace (fake clock)."""
        nitro = _convergence_run()
        assert nitro.telemetry.spans.to_jsonl() == _golden("convergence_trace.jsonl")

    def test_reset_emits_p_change(self):
        nitro = _convergence_run()
        nitro.reset()
        reasons = [
            event.fields["reason"]
            for event in nitro.telemetry.spans.spans(name="nitro.p_change")
        ]
        assert reasons == ["converged", "reset"]
        assert (
            nitro.telemetry.registry.get("nitro_sampling_probability").labels().value
            == 1.0
        )


class TestNullTelemetryBitIdentical:
    def test_instrumented_run_matches_seed_behaviour(self):
        """A live sink must observe, never perturb: counters, ops and
        query results stay bit-identical to the NULL_TELEMETRY run."""
        def build():
            config = NitroConfig(
                probability=0.1,
                epsilon=0.5,
                mode=NitroMode.ALWAYS_CORRECT,
                convergence_check_period=1000,
                top_k=50,
                seed=21,
            )
            return NitroSketch(CountSketch(5, 2048, seed=21), config)

        trace = caida_like(30_000, n_flows=1_500, seed=21)
        plain = build()
        assert plain.telemetry is NULL_TELEMETRY  # the default sink
        plain.ops = OpCounter()
        instrumented = build()
        instrumented.ops = OpCounter()
        instrumented.telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))

        for start in range(0, len(trace), 1024):
            chunk = trace.keys[start : start + 1024]
            plain.update_batch(chunk)
            instrumented.update_batch(chunk)

        assert np.array_equal(plain.sketch.counters, instrumented.sketch.counters)
        assert plain.ops.as_dict() == instrumented.ops.as_dict()
        keys = np.unique(trace.keys[:256])
        for key in keys.tolist():
            assert plain.query(key) == instrumented.query(key)
        assert plain.converged == instrumented.converged


class TestControlPlaneKeepMonitors:
    @staticmethod
    def _run(keep, epochs=6):
        trace = caida_like(100 * epochs, n_flows=50, seed=3)
        plane = ControlPlane(
            lambda epoch: CountSketch(2, 256, seed=5),
            tasks=[],
            score=False,
            keep_monitors=keep,
        )
        plane.run_epochs(trace, epoch_packets=100)
        return plane

    def test_default_window_does_not_accumulate(self):
        plane = self._run(keep=2)
        assert len(plane.monitors) == 2

    def test_none_keeps_every_epoch(self):
        plane = self._run(keep=None)
        assert len(plane.monitors) == 6

    def test_window_keeps_most_recent(self):
        trace = caida_like(300, n_flows=50, seed=3)
        built = []

        def factory(epoch):
            monitor = CountSketch(2, 256, seed=5)
            built.append(monitor)
            return monitor

        plane = ControlPlane(factory, tasks=[], score=False, keep_monitors=1)
        plane.run_epochs(trace, epoch_packets=100)
        assert plane.monitors == [built[-1]]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ControlPlane(lambda epoch: None, tasks=[], keep_monitors=0)


class _ExplodingMonitor(Monitor):
    """update_batch raises an *internal* TypeError (a monitor bug)."""

    def update(self, key, weight=1.0, timestamp=None):
        pass

    def update_batch(self, keys, weights=None, duration_seconds=None):
        raise TypeError("internal monitor bug")


class _DurationMonitor(Monitor):
    def __init__(self):
        self.calls = []

    def update_batch(self, keys, weights=None, duration_seconds=None):
        self.calls.append((len(keys), duration_seconds))


class TestDaemonDispatch:
    def test_internal_typeerror_propagates(self):
        """The daemon must not swallow TypeErrors raised inside the
        monitor's ingest."""
        daemon = MeasurementDaemon(_ExplodingMonitor())
        with pytest.raises(TypeError, match="internal monitor bug"):
            daemon.ingest(_make_batch([1, 2, 3]))

    def test_monitor_receives_batch_duration(self):
        monitor = _DurationMonitor()
        daemon = MeasurementDaemon(monitor)
        daemon.ingest(_make_batch([1, 2, 3]))
        assert monitor.calls == [(3, pytest.approx(2e-6))]

    def test_daemon_records_telemetry(self):
        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        daemon = MeasurementDaemon(_DurationMonitor(), telemetry=telemetry)
        daemon.ingest(_make_batch([1, 2, 3]))
        registry = telemetry.registry
        name = daemon.name
        assert registry.get("daemon_batches_total").labels(daemon=name).value == 1.0
        assert registry.get("daemon_packets_total").labels(daemon=name).value == 3.0
        assert registry.get("daemon_ingest_seconds").labels(daemon=name).count == 1


class TestOpCounterFieldIteration:
    def test_reset_restores_dataclass_defaults(self):
        ops = OpCounter()
        for name in ops.as_dict():
            setattr(ops, name, 7)
        ops.reset()
        assert set(ops.as_dict().values()) == {0}

    def test_merge_covers_every_field(self):
        left, right = OpCounter(), OpCounter()
        for name in left.as_dict():
            setattr(left, name, 1)
            setattr(right, name, 2)
        left.merge(right)
        assert set(left.as_dict().values()) == {3}


class TestIntegratedPipelineTelemetry:
    def test_simulator_run_populates_stage_histograms(self):
        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        config = NitroConfig(
            probability=0.1,
            epsilon=0.5,
            mode=NitroMode.ALWAYS_CORRECT,
            convergence_check_period=1000,
            seed=7,
        )
        nitro = NitroSketch(CountSketch(5, 4096, seed=7), config)
        daemon = MeasurementDaemon(nitro, name="nitro-cs")
        simulator = SwitchSimulator(VPPPipeline(), daemon, telemetry=telemetry)
        trace = caida_like(20_000, n_flows=1_000, seed=7)
        simulator.run(trace)

        registry = telemetry.registry
        stages = registry.get("pipeline_stage_seconds")
        assert stages is not None
        stage_names = {
            stages.label_dict(values)["stage"] for values, child in stages.children()
        }
        # The VPP graph times each node as its own stage.
        assert len(stage_names) >= 2
        assert registry.get("nitro_sampling_probability").labels().value == 0.1
        assert registry.get("simulator_achieved_mpps") is not None
        runs = telemetry.spans.spans(name="simulate.run")
        assert len(runs) == 1
        assert runs[0].fields["packets"] == 20_000

    def test_demo_run_validates(self):
        from repro.telemetry.scenario import Scenario

        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        scenario = Scenario("clean", telemetry, 20_000, seed=7)
        scenario.run()
        assert scenario.monitor.converged
        assert scenario.problems() == []

    def test_control_plane_epochs_export_telemetry(self):
        telemetry = Telemetry(spans=SpanTracer(wall_clock=FakeClock()))
        task = HeavyHitterTask(0.005)
        task.telemetry = telemetry
        plane = ControlPlane(
            lambda epoch: NitroSketch(CountSketch(4, 2048, seed=7), probability=0.1),
            [task],
            score=False,
            telemetry=telemetry,
        )
        reports = plane.run_epochs(caida_like(20_000, n_flows=1_000, seed=7), 5_000)
        assert len(reports) == 4

        registry = telemetry.registry
        assert registry.get("control_epochs_total").labels().value == 4
        assert registry.get("control_epoch_seconds").labels().count == 4
        task_seconds = registry.get("control_task_seconds")
        assert task_seconds.labels(task="heavy_hitters").count == 4
        epochs = telemetry.spans.spans(name="control.epoch")
        assert [event.fields["epoch"] for event in epochs] == [0, 1, 2, 3]
        assert {event.fields["packets"] for event in epochs} == {5_000}
        tasks = telemetry.spans.spans(name="control.task")
        assert [event.fields["epoch"] for event in tasks] == [0, 1, 2, 3]
        assert {event.fields["task"] for event in tasks} == {"heavy_hitters"}


class TestNonFiniteExposition:
    """Non-finite samples (relative_error can be inf) must survive both
    exposition formats: Prometheus text per the 0.0.4 spec, and JSON as
    "+Inf"/"-Inf"/"NaN" strings (bare Infinity tokens are not JSON)."""

    def test_format_value_non_finite(self):
        from repro.telemetry.exposition import _format_value

        assert _format_value(float("inf")) == "+Inf"
        assert _format_value(float("-inf")) == "-Inf"
        assert _format_value(float("nan")) == "NaN"
        assert _format_value(3.0) == "3"
        assert _format_value(0.25) == "0.25"

    def test_prometheus_renders_non_finite_samples(self):
        telemetry = Telemetry()
        telemetry.gauge("audit_bound_ratio", float("inf"), component="audit")
        telemetry.gauge("audit_relative_error", float("nan"), component="audit", stat="max")
        text = telemetry.render_prometheus()
        assert 'audit_bound_ratio{component="audit"} +Inf' in text
        assert "NaN" in text

    def test_json_snapshot_encodes_non_finite_as_strings(self):
        telemetry = Telemetry()
        telemetry.gauge("audit_bound_ratio", float("inf"), component="audit")
        telemetry.gauge("neg", float("-inf"))
        telemetry.observe("h", float("inf"))
        body = telemetry.render_json()
        payload = json.loads(body)  # strict: would fail on bare Infinity
        assert "Infinity" not in body
        ratio = payload["metrics"]["audit_bound_ratio"]["samples"][0]["value"]
        assert ratio == "+Inf"
        assert payload["metrics"]["neg"]["samples"][0]["value"] == "-Inf"
        assert payload["metrics"]["h"]["samples"][0]["sum"] == "+Inf"

    def test_snapshot_route_serves_valid_json_with_inf(self):
        telemetry = Telemetry()
        telemetry.gauge("audit_bound_ratio", float("inf"), component="audit")
        with TelemetryServer(telemetry, port=0).start() as server:
            raw = urllib.request.urlopen(
                "http://127.0.0.1:%d/snapshot" % server.port
            ).read()
        payload = json.loads(raw)
        value = payload["metrics"]["audit_bound_ratio"]["samples"][0]["value"]
        assert value == "+Inf"


class TestServerLifecycle:
    def test_close_is_idempotent(self):
        server = TelemetryServer(Telemetry(), port=0).start()
        server.close()
        assert server.closed
        server.close()  # second close: no error, no hang

    def test_close_without_start_does_not_hang(self):
        server = TelemetryServer(Telemetry(), port=0)
        server.close()
        assert server.closed

    def test_start_after_close_rejected(self):
        server = TelemetryServer(Telemetry(), port=0)
        server.close()
        with pytest.raises(RuntimeError):
            server.start()

    def test_context_manager_closes(self):
        with TelemetryServer(Telemetry(), port=0).start() as server:
            assert not server.closed
        assert server.closed

    def test_sigint_triggers_graceful_shutdown(self):
        """``telemetry --demo --serve`` answers /health 200 (the clean run
        holds the views' error SLO), then exits 0 on SIGINT."""
        import re
        import signal
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "telemetry", "--demo", "--packets",
             "20000", "--serve", "--port", "0"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
            text=True,
        )
        try:
            port = None
            for line in proc.stderr:
                match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "the server never announced its port"
            url = "http://127.0.0.1:%d/health" % port
            with urllib.request.urlopen(url, timeout=10) as reply:
                assert reply.status == 200
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0


class TestScrapeConsistency:
    """The scrape-vs-ingest race (PR 10): exposition renders under the
    registry lock, so multi-metric updates grouped in
    ``Telemetry.atomic()`` are observed all-or-nothing."""

    def test_atomic_block_is_invisible_to_snapshot(self):
        """Deterministic torn-read probe: a snapshot requested while a
        writer sits *inside* an atomic block must block until the block
        completes -- the unlocked render at the same instant sees the
        tear, which is exactly what reverting the registry-lock fix
        would reintroduce."""
        import threading

        from repro.telemetry.exposition import _snapshot_locked, snapshot

        telemetry = Telemetry()
        registry = telemetry.registry
        mid_update = threading.Event()
        release = threading.Event()

        def writer():
            with telemetry.atomic():
                telemetry.count("sibling_a_total")
                mid_update.set()
                release.wait(timeout=10)
                telemetry.count("sibling_b_total")

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert mid_update.wait(timeout=10)
        # The unlocked path (the pre-fix behaviour) observes the tear:
        torn = _snapshot_locked(registry, None)["metrics"]
        assert "sibling_a_total" in torn and "sibling_b_total" not in torn
        # The locked snapshot cannot: it parks until the block closes.
        threading.Timer(0.2, release.set).start()
        snap = snapshot(registry)["metrics"]
        thread.join(timeout=10)
        assert snap["sibling_a_total"]["samples"][0]["value"] == 1.0
        assert snap["sibling_b_total"]["samples"][0]["value"] == 1.0

    def test_concurrent_scrape_while_ingesting_stress(self):
        """Hammer exposition from one thread while another creates
        families and bumps sibling pairs atomically: every scrape must
        see equal siblings and never crash on a mutating registry."""
        import threading

        from repro.telemetry.exposition import snapshot

        telemetry = Telemetry()
        registry = telemetry.registry
        stop = threading.Event()
        problems = []

        def writer():
            step = 0
            while not stop.is_set():
                with telemetry.atomic():
                    telemetry.count("stress_batches_total", daemon="svc")
                    telemetry.count("stress_packets_total", 64, daemon="svc")
                # Family churn: the old unlocked iteration could die on
                # "dictionary changed size during iteration".
                telemetry.gauge("stress_gauge_%d" % (step % 97), float(step))
                step += 1

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for _ in range(300):
                try:
                    snap = snapshot(registry)["metrics"]
                    render_prometheus(registry)
                except RuntimeError as exc:  # dict mutated mid-render
                    problems.append(repr(exc))
                    break
                batches = snap.get("stress_batches_total")
                packets = snap.get("stress_packets_total")
                if batches is None:
                    continue
                b = batches["samples"][0]["value"]
                p = packets["samples"][0]["value"] if packets else 0.0
                if p != b * 64:
                    problems.append("torn pair: batches=%s packets=%s" % (b, p))
                    break
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not problems, problems
