"""Tests for live accuracy auditing (audit, health, dashboard).

Covers the shadow reservoir's statistical contract (exact counts,
capacity bound, unbiased flow estimate, batch/scalar equivalence), the
GuaranteeMonitor's Theorem 1/2 bound tracking (including the corrupted-
sketch violation path and drift alerting), the stock health rules and
the ``/health`` HTTP route served from their alert manager, the
daemon/control-plane wiring, and the ``nitrosketch top`` dashboard
renderer.
"""

import inspect
import io
import json
import math
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.analysis.theory import l1_error_bound, l2_error_bound
from repro.control.windows import SlidingWindowMonitor
from repro.core import NitroSketch, nitro_countmin
from repro.core.config import P_MIN, NitroConfig
from repro.metrics.opcount import OpCounter
from repro.sketches import CountMinSketch, CountSketch, Monitor
from repro.sketches.tracked import TrackedSketch
from repro.switchsim import MeasurementDaemon, SwitchSimulator, VPPPipeline
from repro.telemetry import AlertManager, Telemetry, TelemetryServer, ThresholdRule
from repro.telemetry.audit import AuditReport, GuaranteeMonitor, ShadowAuditor
from repro.telemetry.dashboard import SnapshotSource, TopLoop, render_dashboard
from repro.telemetry.alerts import AlertRule, labelset_key, metric_value
from repro.telemetry.anomaly import SketchAnomalyDetectors
from repro.telemetry.notify import MemorySink
from repro.telemetry.health import health_rules
from repro.traffic import caida_like
from repro.traffic.replay import Batch


def _full_range_stream(n_flows: int = 50, seed: int = 4):
    """Flows from the whole uint64 range, flow i carrying 100 + i packets."""
    rng = np.random.default_rng(seed)
    flows = rng.integers(0, 2**64, n_flows, dtype=np.uint64, endpoint=False)
    assert (flows >= 2**63).any() and (flows < 2**63).any()
    counts = {int(flow): 100 + index for index, flow in enumerate(flows)}
    keys = np.repeat(flows, 100 + np.arange(n_flows))
    rng.shuffle(keys)
    return keys, counts


def _full_range_nitro(top_k: int = 20) -> NitroSketch:
    return NitroSketch(CountSketch(5, 4096, 1), NitroConfig(probability=1.0, top_k=top_k, seed=1))


def _audit_full_range():
    keys, counts = _full_range_stream()
    monitor = nitro_countmin(probability=1.0, seed=1)
    monitor.update_batch(keys)
    assert all(monitor.query(key) == count for key, count in counts.items())
    guard = GuaranteeMonitor(ShadowAuditor(capacity=64, seed=1), monitor)
    guard.observe_batch(keys)
    report = guard.check()
    assert report.audit.tracked_flows == len(counts)
    assert report.audit.mean_relative_error == 0.0
    assert report.audit.max_absolute_error == 0.0
    assert report.audit.worst_key in counts
    assert not report.violated


def _shrink_full_range(scalar: bool):
    keys = np.arange(1_000, dtype=np.uint64) + np.uint64(2**63)
    auditor = ShadowAuditor(capacity=16, seed=1)
    if scalar:
        for key in keys.tolist():
            auditor.observe(key)
    else:
        auditor.observe_batch(keys)
    assert 0 < auditor.tracked_flows <= 16 and auditor.sample_rate < 1.0
    assert all(key >= 2**63 and count == 1.0 for key, count in auditor.truth.items())


def _assert_exact_hitters(hitters, counts):
    assert len(hitters) == 20
    assert all(estimate == counts[key] for key, estimate in hitters)


def _nitro_heavy_hitters():
    keys, counts = _full_range_stream()
    monitor = _full_range_nitro()
    monitor.update_batch(keys)
    _assert_exact_hitters(monitor.heavy_hitters(100), counts)


def _nitro_merge():
    keys, counts = _full_range_stream()
    merged, other = _full_range_nitro(), _full_range_nitro()
    merged.update_batch(keys[: len(keys) // 2])
    other.update_batch(keys[len(keys) // 2 :])
    merged.merge(other)
    # The merge re-offers every tracked key with its post-merge estimate.
    assert len(merged.topk) == 20
    assert all(estimate == counts[key] for key, estimate in merged.topk.items())


def _tracked_heavy_hitters():
    keys, counts = _full_range_stream()
    monitor = TrackedSketch(CountSketch(5, 4096, 1), k=20)
    monitor.update_batch(keys)
    _assert_exact_hitters(monitor.heavy_hitters(100), counts)


def _window_heavy_hitters():
    keys, counts = _full_range_stream()
    window = SlidingWindowMonitor(_full_range_nitro, window_epochs=2)
    window.update_batch(keys)
    _assert_exact_hitters(window.heavy_hitters(100), counts)


def _anomaly_estimates():
    keys, counts = _full_range_stream()
    monitor = _full_range_nitro(top_k=32)
    monitor.update_batch(keys)
    detectors = SketchAnomalyDetectors(top_candidates=16)
    assert detectors.observe_epoch(monitor, len(keys)) is not None
    estimates = detectors._prev_epoch_estimates
    assert len(estimates) == 16
    assert all(estimate == counts[key] for key, estimate in estimates.items())


#: Every place a Python key list becomes a key array, driven with flows
#: drawn from both halves of the uint64 range.
_FULL_RANGE_PATHS = {
    "audit": _audit_full_range,
    "audit-shrink-batch": lambda: _shrink_full_range(scalar=False),
    "audit-shrink-scalar": lambda: _shrink_full_range(scalar=True),
    "nitro-heavy-hitters": _nitro_heavy_hitters,
    "nitro-merge": _nitro_merge,
    "tracked-heavy-hitters": _tracked_heavy_hitters,
    "window-heavy-hitters": _window_heavy_hitters,
    "anomaly-estimates": _anomaly_estimates,
}


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

    @pytest.mark.parametrize("path", sorted(_FULL_RANGE_PATHS))
    def test_audits_uint64_keys_above_int64(self, path):
        """Regression: key lists spanning both halves of the uint64 range
        became float64 arrays (so hashed as other flows), and int64 casts
        of keys >= 2**63 raised OverflowError."""
        _FULL_RANGE_PATHS[path]()

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
        mean = metric_value(
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
        drift = telemetry.spans.spans(name="audit.drift")
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

    @pytest.mark.parametrize("position", [0, 5])
    def test_nan_estimate_reads_as_violation(self, position):
        """Regression: a NaN estimate read clean (ratio NaN at reservoir
        position 0, ratio 0.0 further in); it is an unbounded error."""
        telemetry = Telemetry()
        auditor = ShadowAuditor(capacity=64, seed=2, telemetry=telemetry)
        auditor.observe_batch(caida_like(5_000, n_flows=500, seed=2).keys)
        corrupted = list(auditor.truth)[position]
        truth = dict(auditor.truth)

        class CorruptedMonitor(Monitor):
            def query(self, key):
                return math.nan if key == corrupted else truth[key]

        guard = GuaranteeMonitor(
            auditor, CorruptedMonitor(), epsilon=0.1, guarantee="l1"
        )
        report = guard.check()
        assert report.violated and report.ratio == math.inf
        assert report.audit.worst_key == corrupted
        assert report.audit.max_absolute_error == math.inf
        assert report.audit.max_relative_error == math.inf
        assert report.audit.mean_relative_error == math.inf
        [event] = telemetry.spans.spans(name="audit.violation")
        assert event.fields["worst_key"] == corrupted

    def test_non_finite_alert_values_stay_strict_json(self):
        """Regression: an inf ratio left the alert plane as a bare
        ``Infinity`` token in every JSON output."""

        def reject(token):
            raise ValueError("non-standard JSON token %s" % token)

        def strict(text):
            return json.loads(text, parse_constant=reject)

        telemetry = Telemetry()
        auditor = ShadowAuditor(seed=0, telemetry=telemetry)

        class WrongMonitor(Monitor):
            def query(self, key):
                return math.inf

        guard = GuaranteeMonitor(auditor, WrongMonitor(), epsilon=0.5, guarantee="l1")
        guard.observe(7, weight=100.0)
        guard.check()
        sink = MemorySink()
        manager = AlertManager(
            telemetry,
            [ThresholdRule("margin", "audit_bound_ratio", 0.8, op=">")],
            sinks=[sink],
        )
        manager.evaluate()
        assert [state.value for state in manager.firing()] == [math.inf]
        for line in manager.transitions_jsonl().splitlines():
            assert strict(line)["value"] == "+Inf"
        assert strict(json.dumps(manager.as_dict()))["firing"][0]["value"] == "+Inf"
        [notification] = sink.notifications
        assert strict(json.dumps(notification.as_dict()))["value"] == "+Inf"
        events = {}
        for line in telemetry.spans.to_jsonl().splitlines():
            event = strict(line)
            events[event["name"]] = event["fields"]
        assert events["alert.transition"]["value"] == "+Inf"
        assert events["audit.violation"]["observed"] == "+Inf"

    def test_every_json_route_is_strict_json(self):
        """A corrupted audited run (``audit_bound_ratio`` = +Inf with
        ``guarantee_violation`` firing) plus a span with an inf field:
        every JSON route and every ``/trace`` line parses strictly."""
        from repro.telemetry import HistoryStore
        from repro.telemetry.scenario import Scenario

        def reject(token):
            raise ValueError("non-standard JSON token %s" % token)

        telemetry = Telemetry()
        Scenario("corrupt", telemetry, 20_000).run()
        with telemetry.start_span("epoch", observed=math.inf):
            pass
        manager = AlertManager(telemetry, health_rules())
        manager.evaluate()
        history = HistoryStore(capacity=8)
        history.record(telemetry.snapshot())
        server = TelemetryServer(
            telemetry, port=0, health=manager, alerts=manager, history=history
        )
        bodies = {}
        with server.start():
            base = "http://127.0.0.1:%d" % server.port
            for path in ("/snapshot", "/health", "/alerts", "/rules", "/history", "/trace"):
                try:
                    bodies[path] = urllib.request.urlopen(base + path).read().decode()
                except urllib.error.HTTPError as exc:
                    assert (path, exc.code) == ("/health", 503)
                    bodies[path] = exc.read().decode()
        parsed = {
            path: json.loads(body, parse_constant=reject)
            for path, body in bodies.items()
            if path != "/trace"
        }
        records = [
            json.loads(line, parse_constant=reject)
            for line in bodies["/trace"].splitlines()
        ]
        assert "guarantee_violation" in [alert["alert"] for alert in parsed["/health"]["alerts"]]
        ratio = parsed["/snapshot"]["metrics"]["audit_bound_ratio"]["samples"][0]["value"]
        assert ratio == "+Inf"
        [epoch] = [record for record in records if record["name"] == "epoch"]
        assert epoch["fields"] == {"observed": "+Inf"}
        transitions = [record for record in records if record["name"] == "alert.transition"]
        assert "+Inf" in [record["fields"]["value"] for record in transitions]


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
        assert not telemetry.spans.spans(name="audit.violation")

        # Corrupt: Count-Min takes the per-row minimum, so a uniform
        # offset shifts every estimate by exactly that offset.
        monitor.sketch.counters += 10.0 * clean.bound
        broken = guard.check()
        assert broken.violated
        assert guard.violations == 1
        events = telemetry.spans.spans(name="audit.violation")
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
        assert not telemetry.spans.spans(name="audit.violation")

        # Corrupt: wiping the counters deflates the eps*L2 bound (it is
        # read from the same counters) to zero while every estimate's
        # error becomes the flow's exact truth.
        monitor.sketch.counters[:] = 0.0
        broken = guard.check()
        assert broken.violated
        assert broken.ratio == float("inf")
        assert telemetry.spans.spans(name="audit.violation")


# -- the stock health rules -------------------------------------------------

_AUDIT = {"component": "audit"}
_MEAN = {"component": "audit", "stat": "mean"}

#: Gauge settings of the retired per-rule tests plus the checkpoint and
#: drop-share thresholds, each with the verdict the retired engine gave
#: (its default rule set plus its queue-saturation rule).
PARITY_ROWS = [
    ("no_data", [], "ok"),
    ("error_1pct", [("audit_relative_error", 0.01, _MEAN)], "ok"),
    ("error_20pct", [("audit_relative_error", 0.2, _MEAN)], "fail"),
    (
        "ratio_0.9",
        [("audit_guarantee_violations", 0, _AUDIT), ("audit_bound_ratio", 0.9, _AUDIT)],
        "warn",
    ),
    (
        "ratio_0.2",
        [("audit_guarantee_violations", 0, _AUDIT), ("audit_bound_ratio", 0.2, _AUDIT)],
        "ok",
    ),
    (
        "violations",
        [("audit_guarantee_violations", 2, _AUDIT), ("audit_bound_ratio", 0.2, _AUDIT)],
        "fail",
    ),
    ("p_0.5", [("nitro_sampling_probability", 0.5, {})], "ok"),
    ("p_0.01", [("nitro_sampling_probability", 0.01, {})], "ok"),
    ("p_floor", [("nitro_sampling_probability", P_MIN, {})], "warn"),
    ("checks_10", [("nitro_convergence_checks_total", 10, {})], "ok"),
    ("checks_50", [("nitro_convergence_checks_total", 50, {})], "warn"),
    (
        "converged",
        [("nitro_convergence_checks_total", 50, {}), ("nitro_convergence_total", 1, {})],
        "ok",
    ),
    ("depth_5", [("daemon_queue_depth", 5, {"daemon": "d"})], "ok"),
    ("depth_9", [("daemon_queue_depth", 9, {"daemon": "d"})], "ok"),
    ("depth_16", [("daemon_queue_depth", 16, {"daemon": "d"})], "warn"),
    ("depth_20", [("daemon_queue_depth", 20, {})], "warn"),
    ("depth_64", [("daemon_queue_depth", 64, {"daemon": "d"})], "fail"),
    ("depth_100", [("daemon_queue_depth", 100, {})], "fail"),
    ("age_3", [("daemon_checkpoint_age_batches", 3, {})], "ok"),
    ("age_10", [("daemon_checkpoint_age_batches", 10, {})], "ok"),
    ("age_25", [("daemon_checkpoint_age_batches", 25, {})], "ok"),
    ("age_64", [("daemon_checkpoint_age_batches", 64, {})], "warn"),
    ("age_256", [("daemon_checkpoint_age_batches", 256, {})], "fail"),
    (
        "restore_failure",
        [
            ("daemon_checkpoint_age_batches", 0, {}),
            ("checkpoint_restore_failures_total", 1, {}),
        ],
        "warn",
    ),
    (
        "drops_1pct",
        [
            ("service_ingest_batches_total", 99, {"tenant": "a"}),
            ("service_dropped_batches_total", 1, {"tenant": "a"}),
        ],
        "warn",
    ),
    (
        "drops_25pct",
        [
            ("service_ingest_batches_total", 75, {"tenant": "a"}),
            ("service_dropped_batches_total", 25, {"tenant": "a"}),
        ],
        "fail",
    ),
]


def _health(settings=(), error_slo=0.05):
    """A manager over the stock rules, evaluated once over ``settings``."""
    telemetry = Telemetry()
    for metric, value, labels in settings:
        if metric.endswith("_total"):
            telemetry.count(metric, value, **labels)
        else:
            telemetry.gauge(metric, value, **labels)
    manager = AlertManager(telemetry, health_rules(error_slo=error_slo))
    manager.evaluate()
    return manager


def _firing(manager):
    return sorted(
        (state.name, labelset_key(state.labels)) for state in manager.firing()
    )


class TestHealthAlerts:
    @pytest.mark.parametrize(
        "settings, expected",
        [row[1:] for row in PARITY_ROWS],
        ids=[row[0] for row in PARITY_ROWS],
    )
    def test_verdict_parity_with_retired_engine(self, settings, expected):
        assert _health(settings).verdict() == expected

    def test_rule_set_shape(self):
        rules = health_rules()
        assert [rule.name for rule in rules] == [
            "error_slo",
            "guarantee_violation",
            "guarantee_margin",
            "p_floor",
            "convergence_stall",
            "queue_depth",
            "queue_backlog",
            "checkpoint_restore_failures",
            "checkpoint_age",
            "checkpoint_stale",
            "batches_dropped",
            "drop_share",
        ]
        assert sum(type(rule) is ThresholdRule for rule in rules) == 10
        assert list(inspect.signature(health_rules).parameters) == ["error_slo"]
        with pytest.raises(ValueError):
            health_rules(error_slo=0)

    def test_error_slo_rule(self):
        assert _firing(_health()) == []
        manager = _health([("audit_relative_error", 0.2, _MEAN)])
        assert _firing(manager) == [("error_slo", "component=audit,stat=mean")]
        assert manager.verdict() == "fail"
        # The audit CLIs' loose SLO tolerates the same error.
        loose = _health([("audit_relative_error", 0.2, _MEAN)], error_slo=5.0)
        assert loose.verdict() == "ok"

    def test_guarantee_rule(self):
        manager = _health(
            [("audit_guarantee_violations", 0, _AUDIT), ("audit_bound_ratio", 0.9, _AUDIT)]
        )
        assert _firing(manager) == [("guarantee_margin", "component=audit")]
        # A violated bound reads ratio inf: both alerts fire, the verdict fails.
        manager = _health(
            [
                ("audit_guarantee_violations", 1, _AUDIT),
                ("audit_bound_ratio", float("inf"), _AUDIT),
            ]
        )
        assert [name for name, _ in _firing(manager)] == [
            "guarantee_margin",
            "guarantee_violation",
        ]
        assert manager.verdict() == "fail"

    def test_probability_floor_rule(self):
        manager = _health([("nitro_sampling_probability", P_MIN, {})])
        assert _firing(manager) == [("p_floor", "")]
        assert manager.verdict() == "warn"

    def test_convergence_rule(self):
        telemetry = Telemetry()
        manager = AlertManager(telemetry, health_rules())
        telemetry.count("nitro_convergence_checks_total", 50)
        manager.evaluate()
        assert _firing(manager) == [("convergence_stall", "")]
        telemetry.count("nitro_convergence_total")
        manager.evaluate()
        assert manager.firing() == []
        assert manager.verdict() == "ok"

    def test_queue_depth_rule(self):
        manager = _health([("daemon_queue_depth", 100, {"daemon": "d"})])
        assert _firing(manager) == [
            ("queue_backlog", "daemon=d"),
            ("queue_depth", "daemon=d"),
        ]
        assert manager.verdict() == "fail"

    def test_alerts_are_per_labelset(self):
        """Two daemons at depth 10 each: the retired engine summed them
        to 20 and warned; each daemon's queue is fine on its own."""
        manager = _health(
            [
                ("daemon_queue_depth", 10, {"daemon": "a"}),
                ("daemon_queue_depth", 10, {"daemon": "b"}),
            ]
        )
        assert manager.verdict() == "ok"

    def test_audit_gauges_of_any_component_count(self):
        """The retired engine read only ``component="audit"``."""
        manager = _health(
            [("audit_relative_error", 0.2, {"component": "svc", "stat": "mean"})]
        )
        assert _firing(manager) == [("error_slo", "component=svc,stat=mean")]
        assert manager.verdict() == "fail"

    def test_drop_share_rule(self):
        manager = _health(
            [
                ("service_ingest_batches_total", 75, {"tenant": "a"}),
                ("service_dropped_batches_total", 25, {"tenant": "a"}),
            ]
        )
        assert _firing(manager) == [
            ("batches_dropped", "tenant=a"),
            ("drop_share", ""),
        ]
        (share,) = [s for s in manager.firing() if s.name == "drop_share"]
        assert share.value == pytest.approx(0.25)
        # Daemon-side drops count too, against the daemons' own batches.
        manager = _health(
            [
                ("daemon_batches_total", 1, {"daemon": "d"}),
                ("daemon_batches_dropped_total", 3, {"daemon": "d"}),
            ]
        )
        assert _firing(manager) == [("drop_share", "")]

    def test_metric_value_parses_non_finite_strings(self):
        snap = {
            "metrics": {
                "m": {
                    "samples": [
                        {"labels": {"a": "1"}, "value": "+Inf"},
                        {"labels": {"a": "2"}, "value": "-Inf"},
                        {"labels": {"a": "3"}, "value": "NaN"},
                        {"labels": {"a": "4"}, "buckets": [1.0], "counts": [0, 1]},
                    ]
                },
            }
        }
        assert metric_value(snap, "m", {"a": "1"}) == float("inf")
        assert metric_value(snap, "m", {"a": "2"}) == float("-inf")
        assert math.isnan(metric_value(snap, "m", {"a": "3"}))
        assert metric_value(snap, "m", {"a": "4"}) is None  # histogram: skipped
        assert metric_value(snap, "absent") is None

    def test_evaluator_aggregates_and_exports(self):
        telemetry = Telemetry()
        telemetry.gauge("audit_relative_error", 0.9, component="audit", stat="mean")
        manager = AlertManager(telemetry, health_rules(error_slo=0.05))
        manager.evaluate()
        assert manager.verdict() == "fail"
        snap = telemetry.snapshot()
        assert (
            metric_value(
                snap, "ALERTS", {"alertname": "error_slo", "alertstate": "firing"}
            )
            == 1.0
        )
        transitions = telemetry.spans.spans(name="alert.transition")
        assert [event.fields["alert"] for event in transitions] == ["error_slo"]
        # Second evaluation with the same verdict: no new transition.
        manager.evaluate()
        assert len(telemetry.spans.spans(name="alert.transition")) == 1
        assert [event["to"] for event in manager.transitions] == ["firing"]

    def test_report_as_dict_schema(self):
        telemetry = Telemetry()
        telemetry.gauge("daemon_queue_depth", 20.0, daemon="d")
        manager = AlertManager(telemetry, health_rules())
        with TelemetryServer(telemetry, port=0, health=manager).start() as server:
            url = "http://127.0.0.1:%d/health" % server.port
            with urllib.request.urlopen(url) as response:
                payload = json.loads(response.read().decode("utf-8"))
        assert set(payload) == {"status", "evaluations", "alerts"}
        assert payload["status"] == "warn"
        assert payload["evaluations"] == 1
        (alert,) = payload["alerts"]
        assert alert["alert"] == "queue_depth" and alert["state"] == "firing"
        assert {"alert", "labels", "severity", "state", "value", "detail"} <= set(alert)


# -- /health HTTP route -----------------------------------------------------


class TestHealthEndpoint:
    def test_health_route_ok_and_fail(self):
        telemetry = Telemetry()
        manager = AlertManager(telemetry, health_rules(error_slo=0.05))
        with TelemetryServer(telemetry, port=0, health=manager).start() as server:
            url = "http://127.0.0.1:%d/health" % server.port
            with urllib.request.urlopen(url) as response:
                assert response.status == 200
                payload = json.loads(response.read().decode("utf-8"))
            assert payload == {"status": "ok", "evaluations": 1, "alerts": []}
            # Force a failing verdict: 503 with the same JSON schema,
            # naming the critical alert behind it.
            telemetry.gauge(
                "audit_relative_error", 0.9, component="audit", stat="mean"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert body["status"] == "fail"
            assert body["evaluations"] == 2
            assert [(a["alert"], a["state"], a["severity"]) for a in body["alerts"]] == [
                ("error_slo", "firing", "critical")
            ]

    def test_health_body_is_strict_json(self):
        """A violated bound reads ratio inf; the body must still parse
        as strict JSON (no bare ``Infinity`` token)."""
        telemetry = Telemetry()
        telemetry.gauge("audit_guarantee_violations", 1, component="audit")
        telemetry.gauge("audit_bound_ratio", float("inf"), component="audit")
        manager = AlertManager(telemetry, health_rules())
        with TelemetryServer(telemetry, port=0, health=manager).start() as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen("http://127.0.0.1:%d/health" % server.port)
            text = excinfo.value.read().decode("utf-8")

        def reject(token):
            raise ValueError("non-strict JSON token %s" % token)

        body = json.loads(text, parse_constant=reject)
        values = {alert["alert"]: alert["value"] for alert in body["alerts"]}
        assert values == {"guarantee_margin": "+Inf", "guarantee_violation": 1.0}

    def test_concurrent_requests_share_one_state_machine(self):
        """Request threads evaluate one manager one at a time, so no
        evaluation is lost and its state machine never interleaves."""

        class Probe(AlertRule):
            inside = most = 0

            def evaluate(self, snap, history, now):
                Probe.inside += 1
                Probe.most = max(Probe.most, Probe.inside)
                time.sleep(0.002)  # releases the GIL mid-evaluation
                Probe.inside -= 1
                return []

        telemetry = Telemetry()
        manager = AlertManager(telemetry, health_rules() + [Probe("probe")])
        with TelemetryServer(telemetry, port=0, health=manager).start() as server:
            url = "http://127.0.0.1:%d/health" % server.port

            def hit():
                for _ in range(5):
                    urllib.request.urlopen(url, timeout=10).close()

            threads = [threading.Thread(target=hit) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        assert Probe.most == 1
        assert manager.evaluations == 30

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
        assert metric_value(snap, "daemon_queue_depth") == 2.0
        assert daemon.drain() == 2
        assert metric_value(telemetry.snapshot(), "daemon_queue_depth") == 0.0

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
        from repro.telemetry.scenario import Scenario

        telemetry = Telemetry()
        Scenario("clean", telemetry, 5_000, seed=7).run()
        AlertManager(telemetry, health_rules(error_slo=5.0)).evaluate()
        return telemetry

    def test_render_dashboard_frame(self):
        telemetry = self._audited_snapshot()
        frame = render_dashboard(telemetry.snapshot())
        assert "nitrosketch top" in frame
        assert "accuracy" in frame
        assert "guarantee" in frame
        assert "of bound" in frame
        assert "alerts      none active" in frame
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
