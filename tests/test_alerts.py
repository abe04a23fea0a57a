"""Tests for the alert plane, anomaly detectors, and their wiring.

Covers :class:`HistoryStore.window` (including post-compaction reads),
the threshold / for-duration / hysteresis state machine against a golden
transition log, the multi-window burn-rate rule, repeat-interval dedup,
notification sinks (including real-HTTP webhook delivery and failure
accounting), ``ALERTS`` exposition conformance, the ``/health``
verdict (503 ⇔ a firing critical alert), the sketch-driven DDoS scenario
(fires then resolves, deterministically), and the daemon / dashboard /
CLI wiring.
"""

import json
import os
import re
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import NitroSketch, nitro_kary
from repro.sketches import CountSketch
from repro.switchsim import MeasurementDaemon
from repro.telemetry import (
    AlertManager,
    BurnRateRule,
    HistoryStore,
    JsonlSink,
    LogSink,
    ManualClock,
    MemorySink,
    Notification,
    Telemetry,
    TelemetryServer,
    ThresholdRule,
    WebhookReceiver,
    WebhookSink,
)
from repro.telemetry.anomaly import SketchAnomalyDetectors, ddos_onset_trace
from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.scenario import Scenario
from repro.telemetry.health import health_rules
from repro.traffic import caida_like
from repro.traffic.replay import Batch

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name)) as handle:
        return handle.read()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- HistoryStore.window ----------------------------------------------------


def _gauge_snapshot(value, **labels):
    return {
        "metrics": {
            "speed": {
                "type": "gauge",
                "samples": [{"labels": labels, "value": float(value)}],
            }
        }
    }


class TestHistoryWindow:
    def test_trailing_range_anchored_at_newest(self):
        store = HistoryStore()
        for t in range(10):
            store.record(_gauge_snapshot(t), timestamp=float(t))
        window = store.window("speed", 3.0)
        assert window == [(6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]

    def test_explicit_now_excludes_future_samples(self):
        store = HistoryStore()
        for t in range(10):
            store.record(_gauge_snapshot(t), timestamp=float(t))
        assert store.window("speed", 2.0, now=5.0) == [
            (3.0, 3.0),
            (4.0, 4.0),
            (5.0, 5.0),
        ]

    def test_label_addressing(self):
        store = HistoryStore()
        store.record(_gauge_snapshot(1.0, worker="0"), timestamp=1.0)
        store.record(_gauge_snapshot(2.0, worker="0"), timestamp=2.0)
        assert store.window("speed", 10.0, worker="0") == [(1.0, 1.0), (2.0, 2.0)]
        assert store.window("speed", 10.0, worker="1") == []

    def test_empty_store_and_negative_range(self):
        store = HistoryStore()
        assert store.window("speed", 5.0) == []
        with pytest.raises(ValueError):
            store.window("speed", -1.0)

    def test_window_survives_compaction(self):
        """After downsampling, the window has coarser but correct points."""
        store = HistoryStore(capacity=8)
        for t in range(40):
            store.record(_gauge_snapshot(t), timestamp=float(t))
        assert store.compactions > 0
        window = store.window("speed", 1000.0)
        # Every surviving point is still (t, t) -- never interpolated --
        # and the newest sample always survives compaction.
        assert all(stamp == value for stamp, value in window)
        assert window[-1][0] == float(
            max(t for t in range(40) if t % store.stride == 0 or t == 39)
        ) or window[-1][1] == window[-1][0]
        assert window == sorted(window)


# -- the state machine vs the golden transition log -------------------------


def _scripted_lifecycle():
    """Queue backlog: 0,12,12,12,7,3,... with for=2s and hysteresis."""
    telemetry = Telemetry()
    sink = MemorySink()
    manager = AlertManager(
        telemetry,
        rules=[
            ThresholdRule(
                "queue_backlog",
                "queue_depth",
                threshold=10.0,
                clear_threshold=5.0,
                for_seconds=2.0,
                severity="warning",
                labels={"component": "ingest"},
            )
        ],
        sinks=[sink],
        repeat_interval=0.0,
        resolved_retention=3.0,
        clock=ManualClock(),
    )
    for value in (0.0, 12.0, 12.0, 12.0, 7.0, 3.0, 3.0, 3.0, 3.0):
        telemetry.gauge("queue_depth", value, component="ingest")
        manager.evaluate()
    return telemetry, manager, sink


class TestLifecycleGolden:
    def test_transitions_match_golden(self):
        _, manager, _ = _scripted_lifecycle()
        assert manager.transitions_jsonl() == _golden("alert_transitions.jsonl")

    def test_lifecycle_shape(self):
        _, manager, sink = _scripted_lifecycle()
        moves = [(e["from"], e["to"]) for e in manager.transitions]
        assert moves == [
            ("inactive", "pending"),  # t=1: first active sample
            ("pending", "firing"),  # t=3: held for 2s
            ("firing", "resolved"),  # t=5: crossed the clear threshold
            ("resolved", "inactive"),  # t=8: retention expired
        ]
        # Value 7 at t=4 is inside the hysteresis band: still firing.
        assert [n.state for n in sink.notifications] == ["firing", "resolved"]

    def test_counters_exported(self):
        telemetry, manager, _ = _scripted_lifecycle()
        snap = telemetry.snapshot()
        samples = snap["metrics"]["alerts_transitions_total"]["samples"]
        by_to = {s["labels"]["to"]: s["value"] for s in samples}
        assert by_to == {"pending": 1.0, "firing": 1.0, "resolved": 1.0, "inactive": 1.0}
        assert manager.evaluations == 9
        assert (
            snap["metrics"]["alerts_evaluations_total"]["samples"][0]["value"] == 9.0
        )

    def test_trace_events_recorded(self):
        telemetry, _, _ = _scripted_lifecycle()
        events = telemetry.spans.spans(name="alert.transition")
        assert [e.fields["state"] for e in events] == [
            "pending",
            "firing",
            "resolved",
            "inactive",
        ]


class TestClockDiscipline:
    """For-duration timing must ride a monotonic clock, never wall time."""

    def test_default_clock_is_monotonic(self):
        import time as _time

        manager = AlertManager(Telemetry(), rules=[])
        assert manager.clock is _time.monotonic
        assert manager.wall_clock is _time.time

    def test_injected_manual_clock_governs_both(self):
        # A test-injected clock is both the timer and the timestamp
        # source: event "time" fields equal the evaluation instants.
        clock = ManualClock()
        manager = AlertManager(Telemetry(), rules=[], clock=clock)
        assert manager.wall_clock is clock

    def test_backwards_wall_jump_does_not_mistransition(self):
        # Regression: the state machine used to time for-duration with
        # time.time(), so an NTP step backwards made "held for N
        # seconds" unreachable (elapsed went negative).  With the
        # monotonic/wall split, the pending alert must still promote on
        # schedule while display timestamps follow the (jumped) wall.
        telemetry = Telemetry()
        # One reading per transition/notification: pending stamps at
        # wall 1000, then the wall steps back to 400 before the firing
        # transition and its notification.
        wall_readings = iter([1_000.0, 400.0, 400.5, 401.0])
        manager = AlertManager(
            telemetry,
            rules=[
                ThresholdRule(
                    "stuck_backlog",
                    "queue_depth",
                    threshold=10.0,
                    for_seconds=2.0,
                )
            ],
            repeat_interval=0.0,
            clock=ManualClock(),
            wall_clock=lambda: next(wall_readings),
        )
        telemetry.gauge("queue_depth", 12.0)
        for _ in range(4):  # monotonic t = 0, 1, 2, 3
            manager.evaluate()
        moves = [(e["from"], e["to"]) for e in manager.transitions]
        assert moves == [("inactive", "pending"), ("pending", "firing")]
        # The firing transition landed after the wall clock jumped from
        # 1000.5 back to 400: its display timestamp is the jumped wall
        # reading, and the hold was still measured as 2 monotonic
        # seconds.
        assert manager.transitions[-1]["time"] == 400.0

    def test_forwards_wall_jump_does_not_fire_early(self):
        # The dual failure: a wall jump *forwards* used to promote a
        # pending alert instantly, before the condition really held.
        telemetry = Telemetry()
        wall_readings = iter([1_000.0, 999_999.0, 999_999.5])
        manager = AlertManager(
            telemetry,
            rules=[
                ThresholdRule(
                    "stuck_backlog",
                    "queue_depth",
                    threshold=10.0,
                    for_seconds=5.0,
                )
            ],
            clock=ManualClock(),
            wall_clock=lambda: next(wall_readings),
        )
        telemetry.gauge("queue_depth", 12.0)
        manager.evaluate()  # monotonic t=0: pending
        manager.evaluate()  # monotonic t=1: only 1s held despite the wall leap
        states = {state.state for state in manager._states.values()}
        assert states == {"pending"}


class TestHysteresisProperty:
    def test_band_oscillation_cannot_flap(self):
        """A series oscillating inside the band causes exactly one cycle."""
        rng = np.random.default_rng(11)
        telemetry = Telemetry()
        manager = AlertManager(
            telemetry,
            rules=[
                ThresholdRule(
                    "flappy",
                    "signal",
                    threshold=10.0,
                    clear_threshold=5.0,
                )
            ],
            repeat_interval=0.0,
            resolved_retention=1e9,
            clock=ManualClock(),
        )
        telemetry.gauge("signal", 12.0)
        manager.evaluate()  # -> firing (no for-duration)
        for _ in range(200):
            telemetry.gauge("signal", float(rng.uniform(5.0, 15.0)))
            manager.evaluate()
        # Values in [5, 15) never cross below clear=5: still firing, and
        # the only transition ever taken is the initial one.
        assert [s.state for s in manager.firing()] == ["firing"]
        assert len(manager.transitions) == 1

    def test_without_band_the_same_series_flaps(self):
        rng = np.random.default_rng(11)
        telemetry = Telemetry()
        manager = AlertManager(
            telemetry,
            rules=[ThresholdRule("flappy", "signal", threshold=10.0)],
            repeat_interval=0.0,
            resolved_retention=1e9,
            clock=ManualClock(),
        )
        telemetry.gauge("signal", 12.0)
        manager.evaluate()
        for _ in range(200):
            telemetry.gauge("signal", float(rng.uniform(5.0, 15.0)))
            manager.evaluate()
        assert len(manager.transitions) > 10

    def test_clear_threshold_orientation_validated(self):
        with pytest.raises(ValueError):
            ThresholdRule("x", "m", threshold=10.0, clear_threshold=20.0)
        with pytest.raises(ValueError):
            ThresholdRule("x", "m", threshold=10.0, op="<=", clear_threshold=5.0)


# -- burn rate --------------------------------------------------------------


class TestBurnRate:
    def _manager(self, rule):
        telemetry = Telemetry()
        history = HistoryStore()
        manager = AlertManager(
            telemetry,
            rules=[rule],
            history=history,
            repeat_interval=0.0,
            resolved_retention=1e9,
            clock=ManualClock(),
        )
        return telemetry, manager

    def test_fires_when_both_windows_burn_and_resolves_on_short(self):
        rule = BurnRateRule(
            "budget_burn",
            "ratio",
            budget=1.0,
            long_seconds=10.0,
            short_seconds=2.0,
            factor=0.9,
        )
        telemetry, manager = self._manager(rule)
        for value in (0.95, 0.95, 0.95, 0.95):
            telemetry.gauge("ratio", value)
            manager.evaluate()
        assert [s.name for s in manager.firing()] == ["budget_burn"]
        # Short window cools below factor -> hysteresis clears.
        for value in (0.1, 0.1, 0.1):
            telemetry.gauge("ratio", value)
            manager.evaluate()
        assert manager.firing() == []
        moves = [(e["from"], e["to"]) for e in manager.transitions]
        assert ("firing", "resolved") in moves

    def test_long_window_alone_does_not_fire(self):
        rule = BurnRateRule(
            "budget_burn",
            "ratio",
            long_seconds=10.0,
            short_seconds=2.0,
            factor=0.9,
        )
        telemetry, manager = self._manager(rule)
        # Long history of burning, but the short window has cooled off
        # by the time it could fire: never fires.
        for value in (0.95, 0.95, 0.2, 0.2):
            telemetry.gauge("ratio", value)
            manager.evaluate()
        assert manager.firing() == []

    def test_no_history_reports_nothing(self):
        telemetry = Telemetry()
        manager = AlertManager(
            telemetry,
            rules=[BurnRateRule("b", "ratio")],
            clock=ManualClock(),
        )
        telemetry.gauge("ratio", 5.0)
        assert manager.evaluate() == []
        assert manager.states() == []


# -- dedup / repeat-interval ------------------------------------------------


class TestRepeatInterval:
    def test_still_firing_renotifies_only_after_interval(self):
        telemetry = Telemetry()
        sink = MemorySink()
        manager = AlertManager(
            telemetry,
            rules=[ThresholdRule("hot", "signal", threshold=1.0)],
            sinks=[sink],
            repeat_interval=5.0,
            clock=ManualClock(),
        )
        telemetry.gauge("signal", 2.0)
        for _ in range(12):
            manager.evaluate()
        # Fired at t=0; repeats at t>=5 and t>=10 -- not every second.
        assert len(sink.notifications) == 3
        assert all(n.state == "firing" for n in sink.notifications)

    def test_zero_interval_disables_renotification(self):
        telemetry = Telemetry()
        sink = MemorySink()
        manager = AlertManager(
            telemetry,
            rules=[ThresholdRule("hot", "signal", threshold=1.0)],
            sinks=[sink],
            repeat_interval=0.0,
            clock=ManualClock(),
        )
        telemetry.gauge("signal", 2.0)
        for _ in range(12):
            manager.evaluate()
        assert len(sink.notifications) == 1


# -- notification sinks -----------------------------------------------------


def _notification(state="firing"):
    return Notification(
        alert="demo",
        state=state,
        severity="warning",
        labels={"component": "test"},
        value=1.5,
        detail="detail",
        timestamp=10.0,
    )


class TestSinks:
    def test_memory_log_and_jsonl_sinks(self, tmp_path):
        import io

        stream = io.StringIO()
        path = str(tmp_path / "alerts.jsonl")
        telemetry = Telemetry()
        sinks = [MemorySink(), LogSink(stream=stream), JsonlSink(path)]
        for sink in sinks:
            sink.telemetry = telemetry
            sink.notify(_notification())
        assert sinks[0].notifications[0].alert == "demo"
        assert "[FIRING] demo" in stream.getvalue()
        with open(path) as handle:
            record = json.loads(handle.readline())
        assert record["alert"] == "demo" and record["state"] == "firing"
        snap = telemetry.snapshot()
        sent = snap["metrics"]["notifications_sent_total"]["samples"]
        assert {s["labels"]["sink"] for s in sent} == {"memory", "log", "jsonl"}

    def test_webhook_delivers_over_real_http(self):
        telemetry = Telemetry()
        with WebhookReceiver() as receiver:
            sink = WebhookSink(receiver.url)
            sink.telemetry = telemetry
            sink.notify(_notification())
            assert sink.sent == 1 and sink.failed == 0
        assert receiver.received[0]["alert"] == "demo"
        snap = telemetry.snapshot()
        sent = snap["metrics"]["notifications_sent_total"]["samples"]
        assert sent[0]["labels"]["sink"] == "webhook" and sent[0]["value"] == 1.0

    def test_webhook_failure_is_counted_not_raised(self):
        telemetry = Telemetry()
        sink = WebhookSink("http://127.0.0.1:%d/hook" % _free_port(), timeout=0.5)
        sink.telemetry = telemetry
        sink.notify(_notification())  # must not raise
        assert sink.sent == 0 and sink.failed == 1
        assert sink.last_error
        snap = telemetry.snapshot()
        failed = snap["metrics"]["notifications_failed_total"]["samples"]
        assert failed[0]["labels"]["sink"] == "webhook"
        assert failed[0]["value"] == 1.0

    def test_webhook_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            WebhookSink("ftp://example.com/hook")

    def test_failing_sink_does_not_block_others(self):
        telemetry = Telemetry()
        memory = MemorySink()
        manager = AlertManager(
            telemetry,
            rules=[ThresholdRule("hot", "signal", threshold=1.0)],
            sinks=[
                WebhookSink("http://127.0.0.1:%d/x" % _free_port(), timeout=0.5),
                memory,
            ],
            clock=ManualClock(),
        )
        telemetry.gauge("signal", 2.0)
        manager.evaluate()
        assert len(memory.notifications) == 1


# -- ALERTS exposition conformance ------------------------------------------

_ALERTS_LINE = re.compile(
    r'^ALERTS\{alertname="(?P<name>[^"]+)",alertstate="(?P<state>[^"]+)"'
    r',labelset="(?P<labelset>[^"]*)",severity="[^"]+"\} (?P<value>\d+)$',
    re.MULTILINE,
)


class TestExpositionConformance:
    def test_one_hot_per_alert_and_labelset(self):
        telemetry, manager, _ = _scripted_lifecycle()
        text = telemetry.render_prometheus()
        rows = _ALERTS_LINE.findall(text)
        assert rows, "no ALERTS samples rendered"
        per_alert = {}
        for name, state, labelset, value in rows:
            per_alert.setdefault((name, labelset), []).append((state, value))
        for (name, labelset), states in per_alert.items():
            ones = [state for state, value in states if value == "1"]
            assert len(ones) == 1, (name, labelset, states)
            # All four machine states are present (former states zeroed).
            assert sorted(state for state, _ in states) == [
                "firing",
                "inactive",
                "pending",
                "resolved",
            ]
        # The scripted run ended back at inactive after retention.
        assert per_alert[("queue_backlog", "component=ingest")]
        ones = [
            state
            for state, value in per_alert[("queue_backlog", "component=ingest")]
            if value == "1"
        ]
        assert ones == ["inactive"]

    def test_help_and_type_headers_present(self):
        telemetry, _, _ = _scripted_lifecycle()
        text = telemetry.render_prometheus()
        assert "# TYPE ALERTS gauge" in text
        assert "# TYPE alerts_transitions_total counter" in text

    def test_export_happens_before_transition_callback(self):
        """An on_transition hook must see the new state already exported."""
        telemetry = Telemetry()
        seen = []

        def hook(event):
            text = telemetry.render_prometheus()
            pattern = r'^ALERTS\{alertname="hot",alertstate="%s"[^}]*\} 1$' % (
                event["to"],
            )
            seen.append(bool(re.search(pattern, text, re.MULTILINE)))

        manager = AlertManager(
            telemetry,
            rules=[ThresholdRule("hot", "signal", threshold=1.0)],
            clock=ManualClock(),
            on_transition=hook,
        )
        telemetry.gauge("signal", 2.0)
        manager.evaluate()
        assert seen == [True]


# -- health/alert unification -----------------------------------------------


class TestHealthUnification:
    """``/health`` is an ordinary alert manager over the stock rules."""

    def test_fail_means_503_and_firing_alert(self):
        telemetry = Telemetry()
        sink = MemorySink()
        manager = AlertManager(
            telemetry,
            health_rules(),
            sinks=[sink],
            repeat_interval=0.0,
            clock=ManualClock(),
        )
        telemetry.gauge("daemon_queue_depth", 100.0)  # >= QUEUE_DEPTH_FAIL
        with TelemetryServer(telemetry, port=0, health=manager).start() as server:
            url = "http://127.0.0.1:%d/health" % server.port
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url)
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode())
            assert payload["status"] == "fail"
            # The 503 and the firing critical alert are one state.
            firing = [(s.name, s.severity) for s in manager.firing()]
            assert firing == [("queue_backlog", "critical"), ("queue_depth", "warning")]
            assert [a["alert"] for a in payload["alerts"]] == [
                "queue_backlog",
                "queue_depth",
            ]
            assert ("queue_backlog", "firing") in [
                (n.alert, n.state) for n in sink.notifications
            ]

            # Recovery: the queue drains, /health goes 200, the firing
            # alerts resolve in the same evaluation.
            telemetry.gauge("daemon_queue_depth", 0.0)
            with urllib.request.urlopen(url) as response:
                assert response.status == 200
            assert manager.firing() == []
            moves = [
                (e["alert"], e["from"], e["to"]) for e in manager.transitions
            ]
            assert ("queue_backlog", "firing", "resolved") in moves

    def test_warn_parks_alert_in_pending(self):
        """A critical alert still inside its for-duration reads warn."""
        telemetry = Telemetry()
        manager = AlertManager(
            telemetry,
            [ThresholdRule("hot", "signal", 1.0, for_seconds=2.0, severity="critical")],
            clock=ManualClock(),
        )
        telemetry.gauge("signal", 5.0)
        manager.evaluate()  # t=0: pending
        assert [s.state for s in manager.active()] == ["pending"]
        assert manager.verdict() == "warn"
        manager.evaluate()  # t=1: still pending
        assert manager.verdict() == "warn"
        manager.evaluate()  # t=2: held for 2 s, fires
        assert manager.verdict() == "fail"

    def test_fail_then_warn_resolves_the_critical_alert(self):
        telemetry = Telemetry()
        manager = AlertManager(telemetry, health_rules(), clock=ManualClock())
        telemetry.gauge("daemon_queue_depth", 100.0)
        manager.evaluate()
        assert manager.verdict() == "fail"
        telemetry.gauge("daemon_queue_depth", 20.0)
        manager.evaluate()
        assert manager.verdict() == "warn"
        moves = {}
        for event in manager.transitions:
            moves.setdefault(event["alert"], []).append((event["from"], event["to"]))
        assert moves == {
            "queue_backlog": [("inactive", "firing"), ("firing", "resolved")],
            "queue_depth": [("inactive", "firing")],
        }


# -- sketch-driven anomaly detectors ----------------------------------------


class TestDetectors:
    def test_ddos_trace_collapses_entropy_then_recovers(self):
        telemetry = Telemetry()
        detectors = SketchAnomalyDetectors(telemetry=telemetry)
        monitor = nitro_kary(depth=5, width=8192, probability=0.25, top_k=64, seed=7)
        trace = ddos_onset_trace(60_000, seed=7)
        epochs, step = 12, len(trace) // 12
        drops = []
        for index in range(epochs):
            piece = trace.slice(index * step, (index + 1) * step)
            monitor.update_batch(piece.keys)
            signals = detectors.observe_epoch(monitor, len(piece))
            drops.append(signals["entropy_drop"])
        # Attack window (epochs 4..7 of 12 at onset 1/3, offset 2/3).
        assert max(drops[4:8]) > 0.5
        # Background on both sides sits near the frozen baseline.
        assert max(drops[:4]) < 0.2 and max(drops[9:]) < 0.2

    def test_change_score_spikes_at_onset_and_offset(self):
        telemetry = Telemetry()
        detectors = SketchAnomalyDetectors(telemetry=telemetry)
        monitor = nitro_kary(depth=5, width=8192, probability=0.25, top_k=64, seed=7)
        trace = ddos_onset_trace(60_000, seed=7)
        epochs, step = 12, len(trace) // 12
        scores = []
        for index in range(epochs):
            piece = trace.slice(index * step, (index + 1) * step)
            monitor.update_batch(piece.keys)
            scores.append(
                detectors.observe_epoch(monitor, len(piece))["change_score"]
            )
        assert scores[0] == 0.0  # first epoch: nothing to diff against
        onset, offset = scores[4], scores[8]
        background = max(scores[1:4])
        assert onset > 0.5 and offset > 0.5
        assert background < 0.2

    def test_churn_zero_for_stable_heavy_hitters(self):
        telemetry = Telemetry()
        detectors = SketchAnomalyDetectors(telemetry=telemetry)
        monitor = nitro_kary(depth=5, width=8192, probability=1.0, top_k=32, seed=3)
        trace = caida_like(30_000, n_flows=2_000, skew=1.3, seed=3)
        step = len(trace) // 3
        churns = []
        for index in range(3):
            piece = trace.slice(index * step, (index + 1) * step)
            monitor.update_batch(piece.keys)
            churns.append(detectors.observe_epoch(monitor, len(piece))["hh_churn"])
        assert churns[0] == 0.0
        assert max(churns[1:]) < 0.6  # same elephants every epoch

    def test_exports_gauges_and_epoch_counter(self):
        telemetry = Telemetry()
        detectors = SketchAnomalyDetectors(telemetry=telemetry)
        monitor = nitro_kary(depth=4, width=2048, probability=1.0, top_k=16, seed=1)
        monitor.update_batch(caida_like(5_000, n_flows=500, seed=1).keys)
        detectors.observe_epoch(monitor, 5_000)
        snap = telemetry.snapshot()
        for metric in (
            "anomaly_change_score",
            "anomaly_entropy_bits",
            "anomaly_entropy_drop",
            "anomaly_hh_churn",
            "anomaly_epochs_total",
        ):
            assert metric in snap["metrics"], metric
        assert telemetry.spans.spans(name="anomaly.epoch")

    def test_non_cumulative_mode_queries_directly(self):
        """One-epoch monitors (the windowed-daemon shape) need no diffing."""
        telemetry = Telemetry()
        detectors = SketchAnomalyDetectors(telemetry=telemetry)
        detectors.cumulative = False
        trace = caida_like(20_000, n_flows=1_000, skew=1.3, seed=5)
        step = len(trace) // 2
        for index in range(2):
            piece = trace.slice(index * step, (index + 1) * step)
            monitor = nitro_kary(
                depth=4, width=4096, probability=1.0, top_k=32, seed=5
            )
            monitor.update_batch(piece.keys)
            signals = detectors.observe_epoch(monitor, len(piece))
        # Same background both epochs: stable entropy, low churn.
        assert signals["entropy_drop"] < 0.2
        assert signals["hh_churn"] < 0.6


# -- the end-to-end demo ----------------------------------------------------


class TestAlertDemo:
    """The ``ddos`` scenario behind ``nitrosketch alerts``."""

    @staticmethod
    def _run(**kwargs):
        scenario = Scenario("ddos", Telemetry(), 30_000, seed=7, **kwargs)
        scenario.run()
        return scenario

    @pytest.fixture(scope="class")
    def run(self):
        return self._run()

    def test_full_lifecycle_fires_and_resolves(self, run):
        transitions = run.entropy_transitions()
        assert ("pending", "firing") in transitions
        assert ("firing", "resolved") in transitions
        assert run.problems() == []

    def test_deterministic_under_fixed_seed(self, run):
        second = self._run()
        assert list(run.manager.transitions) == list(second.manager.transitions)
        assert run.daemon.anomaly.last_signals == second.daemon.anomaly.last_signals

    def test_webhook_delivery_expected_when_configured(self):
        with WebhookReceiver() as receiver:
            scenario = self._run(webhook_url=receiver.url)
            assert scenario.webhook.sent > 0
            assert scenario.problems() == []
            assert any(
                body["alert"] == "entropy_collapse" and body["state"] == "firing"
                for body in receiver.received
            )


# -- wiring: daemon, control plane, parallel engine, server, dashboard ------


def _make_batch(keys):
    keys = np.asarray(keys, dtype=np.int64)
    return Batch(
        keys=keys,
        sizes=np.full(len(keys), 64, dtype=np.int64),
        timestamps=np.arange(len(keys), dtype=np.float64) * 1e-6,
    )


class TestDaemonWiring:
    def _daemon(self, telemetry, epoch_batches=2):
        monitor = NitroSketch(CountSketch(4, 2048, seed=0), probability=1.0, top_k=16)
        detectors = SketchAnomalyDetectors(telemetry=telemetry)
        manager = AlertManager(
            telemetry,
            rules=[ThresholdRule("hot", "signal", threshold=1.0)],
            clock=ManualClock(),
        )
        daemon = MeasurementDaemon(
            monitor,
            telemetry=telemetry,
            anomaly=detectors,
            alerts=manager,
            epoch_batches=epoch_batches,
        )
        return daemon, detectors, manager

    def test_epoch_boundary_fires_every_n_batches(self):
        telemetry = Telemetry()
        daemon, detectors, manager = self._daemon(telemetry, epoch_batches=2)
        for _ in range(5):
            daemon.ingest(_make_batch([1, 2, 3]))
        assert daemon.epochs_completed == 2
        assert detectors.epochs == 2
        assert manager.evaluations == 2

    def test_manual_epoch_boundary_and_empty_epoch_noop(self):
        telemetry = Telemetry()
        daemon, detectors, _ = self._daemon(telemetry, epoch_batches=0)
        daemon.epoch_boundary()  # zero packets: no epoch
        assert daemon.epochs_completed == 0
        daemon.ingest(_make_batch([1, 2]))
        daemon.epoch_boundary()
        assert daemon.epochs_completed == 1 and detectors.epochs == 1

    def test_reset_clears_epoch_state(self):
        telemetry = Telemetry()
        daemon, detectors, _ = self._daemon(telemetry, epoch_batches=2)
        daemon.ingest(_make_batch([1, 2, 3]))
        daemon.ingest(_make_batch([1, 2, 3]))
        daemon.reset()
        assert daemon.epochs_completed == 0
        assert detectors.epochs == 0 and detectors.last_signals is None

    def test_epoch_batches_validated(self):
        with pytest.raises(ValueError):
            MeasurementDaemon(CountSketch(4, 64, seed=0), epoch_batches=-1)


class TestServerRoutes:
    def test_alerts_and_rules_routes(self):
        telemetry, manager, _ = _scripted_lifecycle()
        with TelemetryServer(telemetry, port=0, alerts=manager).start() as server:
            base = "http://127.0.0.1:%d" % server.port
            alerts = json.loads(urllib.request.urlopen(base + "/alerts").read())
            rules = json.loads(urllib.request.urlopen(base + "/rules").read())
        assert alerts["transitions_total"] == 4
        assert {s["alert"] for s in alerts["states"]} == {"queue_backlog"}
        assert rules[0]["name"] == "queue_backlog"
        assert rules[0]["threshold"] == 10.0

    def test_routes_404_without_manager(self):
        with TelemetryServer(Telemetry(), port=0).start() as server:
            base = "http://127.0.0.1:%d" % server.port
            for path in ("/alerts", "/rules"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(base + path)
                assert excinfo.value.code == 404


class TestDashboardPanel:
    def test_firing_alerts_render_in_panel(self):
        telemetry = Telemetry()
        manager = AlertManager(
            telemetry,
            rules=[
                ThresholdRule("hot", "signal", threshold=1.0, severity="critical")
            ],
            clock=ManualClock(),
        )
        telemetry.gauge("signal", 2.0)
        manager.evaluate()
        frame = render_dashboard(telemetry.snapshot())
        assert "alerts      1 active (1 firing)" in frame
        assert "FIRING" in frame and "hot" in frame and "critical" in frame

    def test_none_active_line(self):
        telemetry = Telemetry()
        manager = AlertManager(
            telemetry,
            rules=[ThresholdRule("hot", "signal", threshold=10.0)],
            clock=ManualClock(),
        )
        telemetry.gauge("signal", 0.0)
        manager.evaluate()
        frame = render_dashboard(telemetry.snapshot())
        assert "alerts      none active" in frame

    def test_no_panel_without_alert_plane(self):
        frame = render_dashboard(Telemetry().snapshot())
        assert "alerts " not in frame


class TestCli:
    def test_alerts_demo_exits_zero(self, capsys):
        assert cli_main(["alerts", "--demo", "--packets", "30000"]) == 0
        err = capsys.readouterr().err
        assert "lifecycle verified over HTTP" in err

    def test_alerts_eval_prints_states(self, capsys):
        assert cli_main(["alerts", "--eval", "--packets", "30000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {s["alert"] for s in payload["states"]} >= {"entropy_collapse"}

    def test_alerts_without_mode_is_usage_error(self):
        assert cli_main(["alerts"]) == 2
