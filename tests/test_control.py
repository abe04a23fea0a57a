"""Tests for the control plane: tasks, epochs, and the K-ary adapter."""

import numpy as np
import pytest

from repro.control import (
    ControlPlane,
    DistinctFlowsTask,
    EntropyTask,
    HeavyHitterTask,
    KAryChangeMonitor,
)
from repro.core import nitro_kary, nitro_univmon
from repro.sketches import KArySketch, TrackedSketch, UnivMon
from repro.traffic import caida_like, remap_flows


def make_univmon_factory(seed=1):
    return lambda epoch: UnivMon(levels=8, depth=5, widths=4096, k=200, seed=seed)


class TestHeavyHitterTask:
    def test_detects_and_scores(self):
        trace = caida_like(50000, n_flows=5000, seed=1)
        monitor = UnivMon(levels=8, depth=5, widths=8192, k=300, seed=1)
        monitor.update_batch(trace.keys)
        task = HeavyHitterTask(0.001)
        report = task.evaluate(monitor, len(trace))
        assert report.detected
        report = task.score(report, trace.counts())
        assert report.recall is not None and report.recall > 0.8
        assert report.error is not None and report.error < 0.2

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            HeavyHitterTask(0.0)


class TestScalarTasks:
    def test_entropy_task(self):
        trace = caida_like(50000, n_flows=3000, seed=2)
        monitor = UnivMon(levels=10, depth=5, widths=8192, k=300, seed=2)
        monitor.update_batch(trace.keys)
        task = EntropyTask()
        report = task.score(task.evaluate(monitor, len(trace)), trace.counts())
        assert report.estimate is not None
        assert report.error < 0.5

    def test_distinct_task(self):
        trace = caida_like(50000, n_flows=2000, seed=3)
        monitor = UnivMon(levels=10, depth=5, widths=8192, k=300, seed=3)
        monitor.update_batch(trace.keys)
        task = DistinctFlowsTask()
        report = task.score(task.evaluate(monitor, len(trace)), trace.counts())
        assert report.estimate is not None
        assert report.error < 0.6


class TestControlPlane:
    def test_epoch_slicing(self):
        trace = caida_like(30000, n_flows=2000, seed=4)
        plane = ControlPlane(make_univmon_factory(4), [HeavyHitterTask(0.001)])
        reports = plane.run_epochs(trace, epoch_packets=10000)
        assert len(reports) == 3
        assert all(r.packets == 10000 for r in reports)
        assert all("heavy_hitters" in r.reports for r in reports)

    def test_partial_final_epoch(self):
        trace = caida_like(25000, n_flows=2000, seed=5)
        plane = ControlPlane(make_univmon_factory(5), [HeavyHitterTask(0.001)])
        reports = plane.run_epochs(trace, epoch_packets=10000)
        assert reports[-1].packets == 5000

    def test_scoring_disabled(self):
        trace = caida_like(10000, n_flows=500, seed=6)
        plane = ControlPlane(
            make_univmon_factory(6), [HeavyHitterTask(0.001)], score=False
        )
        reports = plane.run_epochs(trace, epoch_packets=10000)
        assert reports[0].reports["heavy_hitters"].recall is None

    def test_monitors_retained(self):
        trace = caida_like(20000, n_flows=1000, seed=7)
        plane = ControlPlane(make_univmon_factory(7), [])
        plane.run_epochs(trace, epoch_packets=10000)
        assert len(plane.monitors) == 2

    def test_invalid_epoch(self):
        plane = ControlPlane(make_univmon_factory(), [])
        with pytest.raises(ValueError):
            plane.run_epochs(caida_like(100, seed=8), epoch_packets=0)


class TestKAryChangeMonitor:
    def test_detects_new_heavy_flow(self):
        first = caida_like(100000, n_flows=5000, seed=9)
        giant = np.full(8000, 987654321, dtype=np.int64)
        second_keys = np.concatenate([first.keys, giant])
        a = KAryChangeMonitor(nitro_kary(probability=0.05, top_k=200, seed=9))
        b = KAryChangeMonitor(nitro_kary(probability=0.05, top_k=200, seed=9))
        a.update_batch(first.keys)
        b.update_batch(second_keys)
        changes = b.change_detection(a, threshold=3000)
        assert changes
        assert changes[0][0] == 987654321
        assert changes[0][1] == pytest.approx(8000, rel=0.25)

    def test_churn_detection(self):
        trace = caida_like(200000, n_flows=20000, seed=10)
        half = 100000
        first = trace.keys[:half]
        second = remap_flows(trace.keys[half:], 0.4)
        a = KAryChangeMonitor(nitro_kary(probability=0.05, top_k=300, seed=10))
        b = KAryChangeMonitor(nitro_kary(probability=0.05, top_k=300, seed=10))
        a.update_batch(first)
        b.update_batch(second)
        changes = b.change_detection(a, threshold=0.001 * half)
        assert len(changes) > 5

    def test_query_delegates(self):
        monitor = KAryChangeMonitor(nitro_kary(probability=1.0, top_k=50, seed=11))
        for _ in range(100):
            monitor.update(5)
        assert monitor.query(5) == pytest.approx(100, abs=10)

    def test_reset(self):
        monitor = KAryChangeMonitor(nitro_kary(probability=0.5, top_k=50, seed=12))
        monitor.update(1)
        monitor.reset()
        assert monitor.query(1) == pytest.approx(0.0, abs=1.0)

    def test_vanilla_inner_scalar_and_batch_agree(self):
        # The vanilla K-ary monitor of fig12: a TrackedSketch inner must
        # take the same update/update_batch call shape as NitroSketch.
        keys = caida_like(5000, n_flows=500, seed=13).keys
        scalar = KAryChangeMonitor(TrackedSketch(KArySketch(5, 1024, 13), k=50))
        batch = KAryChangeMonitor(TrackedSketch(KArySketch(5, 1024, 13), k=50))
        for key in keys.tolist():
            scalar.update(key, timestamp=1.0)
        batch.update_batch(keys, duration_seconds=1.0)
        assert np.array_equal(
            scalar.inner.sketch.counters, batch.inner.sketch.counters
        )

    def test_inner_type_error_propagates_after_one_call(self):
        class Failing:
            calls = 0

            def update_batch(self, keys, weights=None, duration_seconds=None):
                Failing.calls += 1
                raise TypeError("raised inside the inner update")

        monitor = KAryChangeMonitor(Failing())
        with pytest.raises(TypeError, match="inside the inner update"):
            monitor.update_batch(np.arange(10))
        assert Failing.calls == 1
