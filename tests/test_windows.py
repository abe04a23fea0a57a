"""Tests for sliding-window monitoring and UnivMon frequency moments."""

from collections import Counter

import numpy as np
import pytest

from repro.control import SlidingWindowMonitor
from repro.core import NitroConfig, NitroSketch
from repro.sketches import CountSketch, UnivMon
from repro.traffic import zipf_keys


def nitro_factory(seed=5, probability=0.2):
    def make():
        return NitroSketch(
            CountSketch(4, 4096, seed=seed),
            NitroConfig(probability=probability, top_k=100, seed=seed),
        )

    return make


def vanilla_factory(seed=5):
    return lambda: CountSketch(4, 4096, seed=seed)


class TestSlidingWindow:
    def test_window_counts_recent_epochs_only(self):
        window = SlidingWindowMonitor(vanilla_factory(), window_epochs=2, epoch_packets=1000)
        window.update_batch(np.full(1000, 7, dtype=np.int64))   # epoch 0
        window.update_batch(np.full(1000, 8, dtype=np.int64))   # epoch 1
        window.update_batch(np.full(1000, 9, dtype=np.int64))   # epoch 2
        # Window of 2 epochs = last completed epoch (key 9) + the empty
        # in-progress epoch; epochs 0 and 1 have aged out.
        assert window.query(9) == pytest.approx(1000, abs=50)
        assert window.query(7) == pytest.approx(0, abs=50)

    def test_scalar_updates_rotate(self):
        window = SlidingWindowMonitor(vanilla_factory(), window_epochs=3, epoch_packets=100)
        for _ in range(250):
            window.update(3)
        assert window.epochs_rotated == 2
        assert window.window_packets() == 250
        assert window.query(3) == pytest.approx(250, abs=20)

    def test_aging_out(self):
        window = SlidingWindowMonitor(
            nitro_factory(), window_epochs=3, epoch_packets=5000
        )
        heavy = np.concatenate(
            [np.full(2000, 42), zipf_keys(3000, 1000, 1.0, seed=1)]
        ).astype(np.int64)
        background = zipf_keys(5000, 1000, 1.0, seed=2)
        window.update_batch(heavy)
        inside = window.query(42)
        for _ in range(3):
            window.update_batch(background)
        assert window.query(42) < inside / 4

    def test_heavy_hitters_over_window(self):
        window = SlidingWindowMonitor(
            nitro_factory(probability=0.5), window_epochs=2, epoch_packets=4000
        )
        keys = np.concatenate(
            [np.full(1500, 99), zipf_keys(2500, 800, 1.0, seed=3)]
        ).astype(np.int64)
        window.update_batch(keys)
        hitters = dict(window.heavy_hitters(500))
        assert 99 in hitters

    def test_merged_equals_sum_of_queries(self):
        window = SlidingWindowMonitor(vanilla_factory(), window_epochs=3, epoch_packets=500)
        window.update_batch(zipf_keys(1400, 100, 1.1, seed=4))
        merged = window.merged()
        for key in range(20):
            assert merged.query(key) == pytest.approx(window.query(key), abs=1e-6)

    def test_memory_scales_with_window(self):
        small = SlidingWindowMonitor(vanilla_factory(), window_epochs=1, epoch_packets=100)
        large = SlidingWindowMonitor(vanilla_factory(), window_epochs=4, epoch_packets=100)
        for _ in range(350):
            small.update(1)
            large.update(1)
        assert large.memory_bytes() > small.memory_bytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowMonitor(vanilla_factory(), window_epochs=0, epoch_packets=10)
        with pytest.raises(ValueError):
            SlidingWindowMonitor(vanilla_factory(), window_epochs=2, epoch_packets=-1)

    def test_manual_rotation_mode(self):
        # epoch_packets=0 disables automatic rotation: the owner (the
        # daemon) calls rotate() on its own epoch boundaries.
        window = SlidingWindowMonitor(vanilla_factory(), window_epochs=2, epoch_packets=0)
        window.update_batch(np.full(5000, 7, dtype=np.int64))
        assert window.epochs_rotated == 0
        window.rotate()
        assert window.epochs_rotated == 1
        assert window.window_packets() == 5000
        window.rotate()
        assert window.query(7) == pytest.approx(0, abs=50)


class TestWindowSemantics:
    def test_w1_heavy_hitters_only_from_current_epoch(self):
        # A W=1 window is just the in-progress epoch: a flow that was
        # heavy in an aged-out epoch must not resurface as a candidate.
        window = SlidingWindowMonitor(
            nitro_factory(probability=0.5), window_epochs=1, epoch_packets=4000
        )
        window.update_batch(np.full(4000, 11, dtype=np.int64))  # epoch 0, rotated
        window.update_batch(
            np.concatenate(
                [np.full(2000, 22), zipf_keys(1500, 500, 1.0, seed=6)]
            ).astype(np.int64)
        )
        hitters = dict(window.heavy_hitters(500))
        assert 22 in hitters
        assert 11 not in hitters

    def test_merged_view_is_cached_until_ingest(self):
        window = SlidingWindowMonitor(vanilla_factory(), window_epochs=2, epoch_packets=100)
        window.update_batch(np.full(150, 4, dtype=np.int64))
        first = window.merged()
        assert window.merged() is first  # cache hit, no rebuild
        window.update(4)
        assert window.merged() is not first  # ingest invalidated it
        assert window.query(4) == pytest.approx(151, abs=1e-6)

    def test_from_template_wraps_prebuilt_monitor(self):
        monitor = vanilla_factory()()
        window = SlidingWindowMonitor.from_template(monitor, window_epochs=3)
        assert window.current_monitor() is monitor
        assert window.epoch_packets == 0  # owner-driven rotation
        window.update_batch(np.full(500, 9, dtype=np.int64))
        window.rotate()
        # The recycled/fresh epochs come from the template, so merging
        # still works and the ring round-trips the serializer.
        from repro.control import deserialize_monitor, serialize_monitor

        blob = serialize_monitor(window)
        restored = deserialize_monitor(blob)
        assert serialize_monitor(restored) == blob
        assert restored.query(9) == pytest.approx(500, abs=1e-6)

    def test_export_window_metrics_gauges(self):
        from repro.control import export_window_metrics
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        window = SlidingWindowMonitor(
            nitro_factory(probability=0.5), window_epochs=2, epoch_packets=3000
        )
        window.update_batch(
            np.concatenate(
                [np.full(2000, 99), zipf_keys(2000, 400, 1.0, seed=8)]
            ).astype(np.int64)
        )
        export_window_metrics(window, telemetry)
        snap = telemetry.snapshot()["metrics"]

        def gauge(name):
            return snap[name]["samples"][0]["value"]

        assert gauge("window_packets") == 4000.0
        assert gauge("window_epochs_spanned") == len(window.window_monitors())
        assert gauge("window_epochs_rotated") == window.epochs_rotated
        assert gauge("window_memory_bytes") == window.memory_bytes()
        assert gauge("window_heavy_hitters") >= 1.0  # key 99 at 1% share
        assert gauge("window_entropy_bits") > 0.0


class TestPipelineWiring:
    def test_daemon_wraps_monitor_and_exports_window_gauges(self):
        from repro.switchsim import MeasurementDaemon
        from repro.telemetry import Telemetry
        from repro.telemetry.anomaly import SketchAnomalyDetectors
        from repro.traffic import caida_like
        from repro.traffic.replay import Replayer

        telemetry = Telemetry()
        detectors = SketchAnomalyDetectors(telemetry=telemetry)
        assert detectors.cumulative  # default
        daemon = MeasurementDaemon(
            nitro_factory()(),
            telemetry=telemetry,
            anomaly=detectors,
            epoch_batches=2,
            window_epochs=3,
        )
        assert isinstance(daemon.monitor, SlidingWindowMonitor)
        assert daemon.windowed and daemon.window_epochs == 3
        assert not detectors.cumulative  # forced off: one epoch per sketch
        trace = caida_like(4096, n_flows=300, seed=9)
        for batch in Replayer(trace, batch_size=512).batches():
            daemon.ingest(batch)
        assert daemon.monitor.epochs_rotated == 4
        snap = telemetry.snapshot()["metrics"]
        assert snap["window_packets"]["samples"][0]["value"] > 0
        assert snap["anomaly_epochs_total"]["samples"][0]["value"] == 4.0

    def test_daemon_window_accepts_negative_wire_keys(self):
        """Regression: wire keys are signed int64, and the window's
        heavy-hitter query cast its candidates to uint64, so a negative
        key raised OverflowError at the first epoch boundary."""
        from repro.service.records import batch_from_keys
        from repro.switchsim import MeasurementDaemon
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        daemon = MeasurementDaemon(
            nitro_factory()(), telemetry=telemetry, epoch_batches=4, window_epochs=2
        )
        keys = np.random.default_rng(31).integers(-1000, 1000, 8192)
        keys[::4] = -7
        for start in range(0, len(keys), 512):
            daemon.ingest(batch_from_keys(keys[start : start + 512]))
        window = daemon.monitor
        assert window.epochs_rotated == 4
        snap = telemetry.snapshot()["metrics"]
        assert snap["window_heavy_hitters"]["samples"][0]["value"] >= 1.0
        hitters = window.heavy_hitters(0.1 * window.window_packets())
        assert [key for key, _ in hitters] == [-7]

    def test_window_heavy_hitters_keep_keys_above_int64(self):
        window = SlidingWindowMonitor(nitro_factory(), window_epochs=2, epoch_packets=1000)
        big = (1 << 63) + 12345
        window.update_batch(np.full(1500, big, dtype=np.uint64))
        assert [key for key, _ in window.heavy_hitters(100.0)] == [big]

    def test_null_telemetry_boundary_builds_no_merged_window(self, monkeypatch):
        from repro.switchsim import MeasurementDaemon
        from repro.traffic import caida_like
        from repro.traffic.replay import Replayer

        merges = []
        merged = SlidingWindowMonitor.merged

        def spy(window):
            merges.append(window)
            return merged(window)

        monkeypatch.setattr(SlidingWindowMonitor, "merged", spy)
        daemon = MeasurementDaemon(nitro_factory()(), epoch_batches=2, window_epochs=3)
        trace = caida_like(4096, n_flows=300, seed=9)
        for batch in Replayer(trace, batch_size=512).batches():
            daemon.ingest(batch)
        assert daemon.monitor.epochs_rotated == 4
        assert merges == []
        daemon.monitor.query_batch(trace.keys[:8])  # queries still merge
        assert merges == [daemon.monitor]

    def test_live_telemetry_window_gauges_describe_the_window(self):
        from repro.switchsim import MeasurementDaemon
        from repro.telemetry import Telemetry
        from repro.telemetry.anomaly import entropy_from_estimates
        from repro.traffic import caida_like
        from repro.traffic.replay import Replayer

        telemetry = Telemetry()
        daemon = MeasurementDaemon(
            nitro_factory()(), telemetry=telemetry, epoch_batches=2, window_epochs=3
        )
        trace = caida_like(4096, n_flows=300, seed=9)
        for batch in Replayer(trace, batch_size=512).batches():
            daemon.ingest(batch)
        window = daemon.monitor
        packets = window.window_packets()
        hitters = window.heavy_hitters(0.01 * packets)
        snap = telemetry.snapshot()["metrics"]
        gauges = {
            name: snap[name]["samples"][0]["value"]
            for name in snap
            if name.startswith("window_")
        }
        assert gauges == {
            "window_epochs_spanned": float(len(window.window_monitors())),
            "window_epochs_rotated": 4.0,
            "window_packets": float(packets),
            "window_memory_bytes": float(window.memory_bytes()),
            "window_heavy_hitters": float(len(hitters)),
            "window_entropy_bits": entropy_from_estimates(dict(hitters), float(packets)),
        }

    def test_daemon_rejects_negative_window(self):
        from repro.switchsim import MeasurementDaemon

        with pytest.raises(ValueError):
            MeasurementDaemon(nitro_factory()(), window_epochs=-1)

    def test_windowed_daemon_passes_batch_duration_through(self):
        """AlwaysLineRate adapts under a window exactly as without one:
        the window hands each batch's duration to its epoch monitor."""
        from repro.control.export import serialize_monitor
        from repro.core import NitroMode
        from repro.switchsim import MeasurementDaemon
        from repro.traffic.replay import Batch

        def line_rate():
            return NitroSketch(
                CountSketch(5, 4096, seed=3),
                NitroConfig(probability=0.1, mode=NitroMode.ALWAYS_LINE_RATE, seed=3),
            )

        plain = MeasurementDaemon(line_rate())
        windowed = MeasurementDaemon(line_rate(), window_epochs=2)
        rng = np.random.default_rng(12)
        for index in range(40):
            # 4,096 packets spanning 10 ms each (0.41 Mpps); no epoch
            # boundary, so the window's current monitor sees them all.
            batch = Batch(
                keys=rng.integers(0, 5000, 4096),
                sizes=np.full(4096, 64, dtype=np.int32),
                timestamps=index * 0.01 + np.linspace(0.0, 0.01, 4096),
            )
            plain.ingest(batch)
            windowed.ingest(batch)
        current = windowed.monitor.current_monitor()
        assert plain.monitor.probability == 1.0
        assert current.probability == plain.monitor.probability
        assert serialize_monitor(current) == serialize_monitor(plain.monitor)

    def test_packet_driven_split_shares_batch_duration(self):
        """A batch crossing epoch boundaries hands each slice its packet
        share of the batch duration."""
        from repro.sketches import Monitor

        calls = []

        class Recorder(Monitor):
            def update_batch(self, keys, weights=None, duration_seconds=None):
                calls.append((len(keys), duration_seconds))

            def reset(self):
                pass

        window = SlidingWindowMonitor(Recorder, window_epochs=2, epoch_packets=1000)
        window.update_batch(np.arange(600), duration_seconds=0.006)
        window.update_batch(np.arange(1500), duration_seconds=0.03)
        assert calls[0] == (600, 0.006)
        assert [count for count, _ in calls[1:]] == [400, 1000, 100]
        assert [duration for _, duration in calls[1:]] == pytest.approx(
            [0.008, 0.02, 0.002]
        )
        assert sum(duration for _, duration in calls[1:]) == pytest.approx(0.03)
        assert window.epochs_rotated == 2

    def make_univmon(self):
        return UnivMon(levels=10, depth=5, widths=4096, k=300, seed=7)

    def test_f1_is_total(self):
        keys = zipf_keys(30000, 500, 1.2, seed=7)
        um = self.make_univmon()
        um.update_batch(keys)
        assert um.frequency_moment(1) == pytest.approx(30000, rel=0.35)

    def test_f2_matches_truth(self):
        keys = zipf_keys(30000, 2000, 1.2, seed=8)
        um = self.make_univmon()
        um.update_batch(keys)
        truth = sum(v * v for v in Counter(keys.tolist()).values())
        assert um.frequency_moment(2) == pytest.approx(truth, rel=0.35)

    def test_f0_is_distinct(self):
        um = self.make_univmon()
        um.update_batch(zipf_keys(10000, 300, 1.0, seed=9))
        assert um.frequency_moment(0) == um.distinct_estimate()

    def test_order_validation(self):
        with pytest.raises(ValueError):
            self.make_univmon().frequency_moment(-1)
