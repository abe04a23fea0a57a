"""Tests for live accuracy auditing (audit, health, dashboard).

Covers the shadow reservoir's statistical contract (exact counts,
capacity bound, unbiased flow estimate, batch/scalar equivalence), the
GuaranteeMonitor's Theorem 1/2 bound tracking (including the corrupted-
sketch violation path and drift alerting), the health rule engine and
its ``/health`` HTTP route, the daemon/control-plane wiring, and the
``nitrosketch top`` dashboard renderer.
"""

import io
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.analysis.theory import l1_error_bound, l2_error_bound
from repro.core import NitroSketch, nitro_countmin
from repro.metrics.opcount import OpCounter
from repro.sketches import CountMinSketch, CountSketch, Monitor
from repro.switchsim import MeasurementDaemon, SwitchSimulator, VPPPipeline
from repro.telemetry import Telemetry, TelemetryServer
from repro.telemetry.audit import AuditReport, GuaranteeMonitor, ShadowAuditor
from repro.telemetry.dashboard import SnapshotSource, TopLoop, render_dashboard
from repro.telemetry.health import (
    ConvergenceRule,
    ErrorSLORule,
    GuaranteeRule,
    HealthEvaluator,
    ProbabilityFloorRule,
    QueueDepthRule,
    default_rules,
    sample_value,
)
from repro.traffic import caida_like
from repro.traffic.replay import Batch


def _make_batch(keys) -> Batch:
    keys = np.asarray(keys, dtype=np.int64)
    return Batch(
        keys=keys,
        sizes=np.full(len(keys), 64, dtype=np.int64),
        timestamps=np.arange(len(keys), dtype=np.float64) * 1e-6,
    )


# -- ShadowAuditor: reservoir statistics ------------------------------------


class TestShadowAuditor:
    def test_tracked_counts_are_exact(self):
        trace = caida_like(20_000, n_flows=2_000, seed=3)
        auditor = ShadowAuditor(capacity=128, seed=1)
        auditor.observe_batch(trace.keys)
        counts = trace.counts()
        assert auditor.tracked_flows > 0
        for key, tracked in auditor.truth.items():
            assert tracked == counts[key]

    def test_capacity_bound_holds(self):
        auditor = ShadowAuditor(capacity=64, seed=0)
        auditor.observe_batch(np.arange(50_000, dtype=np.int64))
        assert auditor.tracked_flows <= 64
        assert auditor.sample_rate < 1.0

    def test_total_weight_is_exact_l1(self):
        auditor = ShadowAuditor(capacity=16, seed=0)
        auditor.observe_batch(np.arange(1_000, dtype=np.int64))
        auditor.observe(5, weight=2.5)
        assert auditor.total_weight == pytest.approx(1_002.5)
        assert auditor.packets_observed == 1_001

    def test_flow_count_estimate_is_unbiased(self):
        n_flows = 10_000
        estimates = []
        for seed in range(5):
            auditor = ShadowAuditor(capacity=256, seed=seed)
            auditor.observe_batch(np.arange(n_flows, dtype=np.int64))
            estimates.append(auditor.estimated_flow_count())
        mean = sum(estimates) / len(estimates)
        assert n_flows / 2 < mean < n_flows * 2

    def test_scalar_and_batch_ingest_agree(self):
        trace = caida_like(3_000, n_flows=400, seed=9)
        batch_auditor = ShadowAuditor(capacity=64, seed=4)
        batch_auditor.observe_batch(trace.keys)
        scalar_auditor = ShadowAuditor(capacity=64, seed=4)
        for key in trace.keys.tolist():
            scalar_auditor.observe(key)
        assert scalar_auditor.truth == batch_auditor.truth
        assert scalar_auditor.sample_rate == batch_auditor.sample_rate

    def test_weighted_batches(self):
        auditor = ShadowAuditor(capacity=16, seed=0)
        keys = np.array([1, 2, 1, 3], dtype=np.int64)
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        auditor.observe_batch(keys, weights)
        assert auditor.total_weight == pytest.approx(10.0)
        assert auditor.truth[1] == pytest.approx(4.0)

    def test_reset_restores_track_everything(self):
        auditor = ShadowAuditor(capacity=8, seed=0)
        auditor.observe_batch(np.arange(1_000, dtype=np.int64))
        assert auditor.sample_rate < 1.0
        auditor.reset()
        assert auditor.sample_rate == 1.0
        assert auditor.tracked_flows == 0
        assert auditor.total_weight == 0.0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ShadowAuditor(capacity=0)

    def test_audit_reports_exact_match_as_zero_error(self):
        class PerfectMonitor(Monitor):
            def __init__(self, truth):
                self.truth = truth

            def query(self, key):
                return self.truth.get(key, 0.0)

        auditor = ShadowAuditor(capacity=64, seed=2)
        auditor.observe_batch(caida_like(5_000, n_flows=500, seed=2).keys)
        report = auditor.audit(PerfectMonitor(dict(auditor.truth)))
        assert isinstance(report, AuditReport)
        assert report.mean_relative_error == 0.0
        assert report.max_absolute_error == 0.0

    def test_audit_does_not_perturb_op_accounting(self):
        trace = caida_like(5_000, n_flows=500, seed=5)
        monitor = nitro_countmin(probability=0.1, seed=5)
        before = OpCounter()
        monitor.ops = before
        monitor.update_batch(trace.keys)
        tally_before = dict(before.as_dict())
        auditor = ShadowAuditor(capacity=64, seed=5)
        auditor.observe_batch(trace.keys)
        auditor.audit(monitor)
        assert monitor.ops is before
        assert dict(before.as_dict()) == tally_before

    def test_audit_exports_gauges(self):
        telemetry = Telemetry()
        auditor = ShadowAuditor(capacity=64, seed=1, telemetry=telemetry)
        auditor.observe_batch(caida_like(5_000, n_flows=500, seed=1).keys)
        sketch = CountMinSketch(4, 2048, seed=1)
        sketch.update_batch(caida_like(5_000, n_flows=500, seed=1).keys)
        auditor.audit(sketch)
        snap = telemetry.snapshot()
        for family in (
            "audit_rounds_total",
            "audit_tracked_flows",
            "audit_total_weight",
            "audit_sample_rate",
            "audit_relative_error",
            "audit_absolute_error",
        ):
            assert family in snap["metrics"], family
        mean = sample_value(
            snap, "audit_relative_error", {"component": "audit", "stat": "mean"}
        )
        assert mean is not None and mean >= 0.0


# -- GuaranteeMonitor: Theorem 1/2 bound tracking ---------------------------


class TestGuaranteeMonitor:
    def test_guarantee_auto_detection(self):
        cm = NitroSketch(CountMinSketch(4, 2048, seed=0), probability=0.5)
        cs = NitroSketch(CountSketch(4, 2048, seed=0), probability=0.5)
        assert GuaranteeMonitor(ShadowAuditor(), cm, epsilon=0.1).guarantee == "l1"
        assert GuaranteeMonitor(ShadowAuditor(), cs, epsilon=0.1).guarantee == "l2"

    def test_l1_bound_matches_theory_helper(self):
        monitor = NitroSketch(CountMinSketch(4, 2048, seed=0), probability=0.5)
        guard = GuaranteeMonitor(ShadowAuditor(), monitor, epsilon=0.2)
        guard.observe_batch(np.arange(500, dtype=np.int64))
        assert guard.bound() == pytest.approx(l1_error_bound(0.2, 500.0))

    def test_l2_bound_uses_sketch_estimate(self):
        monitor = NitroSketch(CountSketch(5, 4096, seed=0), probability=1.0)
        guard = GuaranteeMonitor(ShadowAuditor(seed=3), monitor, epsilon=0.2)
        keys = caida_like(5_000, n_flows=500, seed=3).keys
        monitor.update_batch(keys)
        guard.observe_batch(keys)
        expected = l2_error_bound(0.2, monitor.sketch.l2_squared_estimate())
        assert guard.bound() == pytest.approx(expected)

    def test_requires_epsilon(self):
        with pytest.raises(ValueError):
            GuaranteeMonitor(ShadowAuditor(), CountMinSketch(4, 64, seed=0))

    def test_auto_check_interval(self):
        monitor = NitroSketch(CountMinSketch(4, 2048, seed=0), probability=0.5)
        guard = GuaranteeMonitor(
            ShadowAuditor(seed=1),
            monitor,
            epsilon=0.2,
            check_interval_packets=1_000,
        )
        keys = caida_like(3_500, n_flows=300, seed=1).keys
        monitor.update_batch(keys)
        guard.observe_batch(keys)
        assert guard.checks == 1  # 3500 >= 1000 -> one check, counter reset

    def test_drift_alert_fires_once_on_rising_ratio(self):
        telemetry = Telemetry()
        auditor = ShadowAuditor(seed=0, telemetry=telemetry)

        class FixedMonitor(Monitor):
            """Truth-independent estimator whose error we control."""

            def __init__(self):
                self.offset = 0.0

            def query(self, key):
                return self.offset

        monitor = FixedMonitor()
        guard = GuaranteeMonitor(
            auditor,
            monitor,
            epsilon=0.5,
            guarantee="l1",
            drift_ratio=0.01,
            drift_window=3,
        )
        guard.observe(7, weight=100.0)  # bound = 50, truth[7] = 100
        for offset in (104.0, 108.0, 112.0, 116.0):
            monitor.offset = offset  # error = offset - 100, rising
            guard.check()
        drift = telemetry.tracer.events("audit.drift")
        assert len(drift) == 1

    def test_reset_clears_state(self):
        monitor = NitroSketch(CountMinSketch(4, 2048, seed=0), probability=0.5)
        guard = GuaranteeMonitor(ShadowAuditor(seed=0), monitor, epsilon=0.2)
        guard.observe_batch(np.arange(100, dtype=np.int64))
        guard.check()
        guard.reset()
        assert guard.checks == 0
        assert guard.violations == 0
        assert guard.auditor.total_weight == 0.0


# -- Seeded property test: bound holds on clean runs, breaks when corrupted -


class TestGuaranteeProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_l1_bound_holds_then_corruption_trips_alert(self, seed):
        epsilon = 0.1
        trace = caida_like(20_000, n_flows=2_000, seed=seed)
        telemetry = Telemetry()
        monitor = NitroSketch(
            CountMinSketch(5, 2048, seed=seed), probability=0.1, top_k=50
        )
        auditor = ShadowAuditor(capacity=128, seed=seed, telemetry=telemetry)
        guard = GuaranteeMonitor(auditor, monitor, epsilon=epsilon)
        monitor.update_batch(trace.keys)
        guard.observe_batch(trace.keys)

        clean = guard.check()
        assert not clean.violated
        assert clean.observed_max_error <= clean.bound
        assert not telemetry.tracer.events("audit.violation")

        # Corrupt: Count-Min takes the per-row minimum, so a uniform
        # offset shifts every estimate by exactly that offset.
        monitor.sketch.counters += 10.0 * clean.bound
        broken = guard.check()
        assert broken.violated
        assert guard.violations == 1
        events = telemetry.tracer.events("audit.violation")
        assert len(events) == 1
        assert events[0].fields["guarantee"] == "l1"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_l2_bound_holds_then_corruption_trips_alert(self, seed):
        epsilon = 0.1
        trace = caida_like(20_000, n_flows=2_000, seed=seed)
        telemetry = Telemetry()
        monitor = NitroSketch(
            CountSketch(5, 8192, seed=seed), probability=0.1, top_k=50
        )
        auditor = ShadowAuditor(capacity=128, seed=seed, telemetry=telemetry)
        guard = GuaranteeMonitor(auditor, monitor, epsilon=epsilon)
        monitor.update_batch(trace.keys)
        guard.observe_batch(trace.keys)

        clean = guard.check()
        assert not clean.violated
        assert clean.observed_max_error <= clean.bound
        assert not telemetry.tracer.events("audit.violation")

        # Corrupt: wiping the counters deflates the eps*L2 bound (it is
        # read from the same counters) to zero while every estimate's
        # error becomes the flow's exact truth.
        monitor.sketch.counters[:] = 0.0
        broken = guard.check()
        assert broken.violated
        assert broken.ratio == float("inf")
        assert telemetry.tracer.events("audit.violation")


# -- Health rules -----------------------------------------------------------


def _snap_with(telemetry) -> dict:
    return telemetry.snapshot()


class TestHealthRules:
    def test_error_slo_rule(self):
        telemetry = Telemetry()
        rule = ErrorSLORule(slo=0.05)
        assert rule.evaluate(_snap_with(telemetry)).status == "ok"  # no data
        telemetry.gauge("audit_relative_error", 0.01, component="audit", stat="mean")
        assert rule.evaluate(_snap_with(telemetry)).status == "ok"
        telemetry.gauge("audit_relative_error", 0.2, component="audit", stat="mean")
        assert rule.evaluate(_snap_with(telemetry)).status == "fail"

    def test_guarantee_rule(self):
        telemetry = Telemetry()
        rule = GuaranteeRule(warn_ratio=0.8)
        assert rule.evaluate(_snap_with(telemetry)).status == "ok"
        telemetry.gauge("audit_guarantee_violations", 0, component="audit")
        telemetry.gauge("audit_bound_ratio", 0.9, component="audit")
        assert rule.evaluate(_snap_with(telemetry)).status == "warn"
        telemetry.gauge("audit_bound_ratio", 0.2, component="audit")
        assert rule.evaluate(_snap_with(telemetry)).status == "ok"
        telemetry.gauge("audit_guarantee_violations", 2, component="audit")
        assert rule.evaluate(_snap_with(telemetry)).status == "fail"

    def test_probability_floor_rule(self):
        telemetry = Telemetry()
        rule = ProbabilityFloorRule(floor=0.01)
        assert rule.evaluate(_snap_with(telemetry)).status == "ok"
        telemetry.gauge("nitro_sampling_probability", 0.5)
        assert rule.evaluate(_snap_with(telemetry)).status == "ok"
        telemetry.gauge("nitro_sampling_probability", 0.01)
        assert rule.evaluate(_snap_with(telemetry)).status == "warn"

    def test_convergence_rule(self):
        telemetry = Telemetry()
        rule = ConvergenceRule(stall_checks=10)
        assert rule.evaluate(_snap_with(telemetry)).status == "ok"
        telemetry.count("nitro_convergence_checks_total", 50)
        assert rule.evaluate(_snap_with(telemetry)).status == "warn"
        telemetry.count("nitro_convergence_total")
        assert rule.evaluate(_snap_with(telemetry)).status == "ok"

    def test_queue_depth_rule(self):
        telemetry = Telemetry()
        rule = QueueDepthRule(warn_depth=4, fail_depth=8)
        assert rule.evaluate(_snap_with(telemetry)).status == "ok"
        telemetry.gauge("daemon_queue_depth", 5, daemon="d")
        assert rule.evaluate(_snap_with(telemetry)).status == "warn"
        telemetry.gauge("daemon_queue_depth", 9, daemon="d")
        assert rule.evaluate(_snap_with(telemetry)).status == "fail"

    def test_sample_value_parses_non_finite_strings(self):
        snap = {
            "metrics": {
                "m": {"samples": [{"labels": {}, "value": "+Inf"}]},
            }
        }
        assert sample_value(snap, "m") == float("inf")

    def test_evaluator_aggregates_and_exports(self):
        telemetry = Telemetry()
        telemetry.gauge("audit_relative_error", 0.9, component="audit", stat="mean")
        evaluator = HealthEvaluator(telemetry, default_rules(error_slo=0.05))
        report = evaluator.evaluate()
        assert report.status == "fail"
        assert any(r.name == "error_slo" and r.status == "fail" for r in report.results)
        snap = telemetry.snapshot()
        assert sample_value(snap, "health_status", {"rule": "overall"}) == 2.0
        assert sample_value(snap, "health_status", {"rule": "error_slo"}) == 2.0
        transitions = telemetry.tracer.events("health.transition")
        assert len(transitions) == 1
        # Second evaluation with the same verdict: no new transition.
        evaluator.evaluate()
        assert len(telemetry.tracer.events("health.transition")) == 1

    def test_report_as_dict_schema(self):
        telemetry = Telemetry()
        report = HealthEvaluator(telemetry).evaluate()
        payload = report.as_dict()
        assert set(payload) == {"status", "evaluations", "rules"}
        for rule in payload["rules"]:
            assert {"name", "status", "detail"} <= set(rule)


# -- /health HTTP route -----------------------------------------------------


class TestHealthEndpoint:
    def test_health_route_ok_and_fail(self):
        telemetry = Telemetry()
        evaluator = HealthEvaluator(telemetry, default_rules(error_slo=0.05))
        with TelemetryServer(telemetry, port=0, health=evaluator).start() as server:
            url = "http://127.0.0.1:%d/health" % server.port
            with urllib.request.urlopen(url) as response:
                assert response.status == 200
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["status"] == "ok"
            assert {rule["name"] for rule in payload["rules"]} == {
                "error_slo",
                "guarantee",
                "p_floor",
                "convergence",
                "queue_depth",
                "checkpoint_staleness",
            }
            # Force a failing verdict: 503 with the same JSON schema.
            telemetry.gauge(
                "audit_relative_error", 0.9, component="audit", stat="mean"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert body["status"] == "fail"

    def test_health_route_absent_without_evaluator(self):
        with TelemetryServer(Telemetry(), port=0).start() as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen("http://127.0.0.1:%d/health" % server.port)
            assert excinfo.value.code == 404


# -- wiring: daemon, simulator, control plane -------------------------------


class TestWiring:
    def test_daemon_mirrors_batches_into_auditor(self):
        monitor = NitroSketch(CountSketch(4, 2048, seed=0), probability=0.5)
        auditor = ShadowAuditor(capacity=64, seed=0)
        daemon = MeasurementDaemon(monitor, auditor=auditor)
        daemon.ingest(_make_batch([1, 2, 3, 1]))
        assert auditor.packets_observed == 4
        assert auditor.truth[1] == 2.0

    def test_daemon_queue_exports_depth_and_drops(self):
        telemetry = Telemetry()
        monitor = NitroSketch(CountSketch(4, 2048, seed=0), probability=0.5)
        daemon = MeasurementDaemon(monitor, telemetry=telemetry, queue_capacity=2)
        assert daemon.enqueue(_make_batch([1]))
        assert daemon.enqueue(_make_batch([2]))
        assert not daemon.enqueue(_make_batch([3]))  # full -> dropped
        assert daemon.batches_dropped == 1
        snap = telemetry.snapshot()
        assert sample_value(snap, "daemon_queue_depth") == 2.0
        assert daemon.drain() == 2
        assert sample_value(telemetry.snapshot(), "daemon_queue_depth") == 0.0

    def test_daemon_without_queue_rejects_enqueue(self):
        daemon = MeasurementDaemon(CountSketch(4, 64, seed=0))
        with pytest.raises(RuntimeError):
            daemon.enqueue(_make_batch([1]))

    def test_simulator_fans_telemetry_into_auditor(self):
        telemetry = Telemetry()
        monitor = NitroSketch(CountSketch(4, 2048, seed=0), probability=0.5)
        auditor = ShadowAuditor(capacity=64, seed=0)
        guard = GuaranteeMonitor(auditor, monitor, epsilon=0.2)
        daemon = MeasurementDaemon(monitor, auditor=guard)
        simulator = SwitchSimulator(VPPPipeline(), daemon, telemetry=telemetry)
        simulator.run(caida_like(2_000, n_flows=200, seed=0))
        assert auditor.telemetry is telemetry
        guard.check()
        assert "audit_error_bound" in telemetry.snapshot()["metrics"]


# -- dashboard --------------------------------------------------------------


class TestDashboard:
    def _audited_snapshot(self):
        from repro.telemetry.demo import run_audited_demo

        telemetry = Telemetry()
        run_audited_demo(telemetry, packets=5_000, seed=7)
        HealthEvaluator(telemetry, default_rules(error_slo=5.0)).evaluate()
        return telemetry

    def test_render_dashboard_frame(self):
        telemetry = self._audited_snapshot()
        frame = render_dashboard(telemetry.snapshot())
        assert "nitrosketch top" in frame
        assert "accuracy" in frame
        assert "guarantee" in frame
        assert "of bound" in frame
        assert "health" in frame
        assert "stages" in frame

    def test_render_dashboard_throughput_deltas(self):
        telemetry = Telemetry()
        telemetry.count("nitro_packets_total", 1_000, path="batch")
        first = telemetry.snapshot()
        telemetry.count("nitro_packets_total", 3_000, path="batch")
        frame = render_dashboard(
            telemetry.snapshot(), previous=first, interval_seconds=1.0
        )
        assert "3.00k/s" in frame

    def test_render_dashboard_empty_snapshot(self):
        frame = render_dashboard({"metrics": {}})
        assert "no auditor attached" in frame

    def test_top_loop_renders_frames(self):
        telemetry = self._audited_snapshot()
        out = io.StringIO()
        loop = TopLoop(
            SnapshotSource(telemetry=telemetry),
            interval=0.01,
            iterations=2,
            clear=False,
            out=out,
        )
        assert loop.run() == 0
        assert loop.frames == 2
        assert "\x1b" not in out.getvalue()

    def test_snapshot_source_requires_exactly_one(self):
        with pytest.raises(ValueError):
            SnapshotSource()
        with pytest.raises(ValueError):
            SnapshotSource(telemetry=Telemetry(), url="http://x/snapshot")

    def test_snapshot_source_over_http(self):
        telemetry = Telemetry()
        telemetry.gauge("nitro_sampling_probability", 0.25)
        with TelemetryServer(telemetry, port=0).start() as server:
            source = SnapshotSource(
                url="http://127.0.0.1:%d/snapshot" % server.port
            )
            snap = source.fetch()
        assert "nitro_sampling_probability" in snap["metrics"]
