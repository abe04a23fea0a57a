"""Tests for Count Sketch and the K-ary sketch."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sketches import CountSketch, KArySketch

KEY_LISTS = st.lists(st.integers(min_value=0, max_value=300), min_size=5, max_size=300)


class TestCountSketch:
    def test_exact_single_flow(self):
        cs = CountSketch(5, 1024, seed=1)
        for _ in range(25):
            cs.update(9)
        assert cs.query(9) == pytest.approx(25.0)

    def test_median_estimator_accuracy(self):
        rng = np.random.default_rng(0)
        keys = rng.zipf(1.3, size=30000) % 2000
        cs = CountSketch(5, 4096, seed=2)
        cs.update_batch(keys)
        truth = Counter(keys.tolist())
        top = max(truth, key=truth.get)
        assert cs.query(int(top)) == pytest.approx(truth[top], rel=0.05)

    @given(KEY_LISTS)
    @settings(max_examples=40, deadline=None)
    def test_l2_error_bound(self, keys):
        """|est - f_x| <= c * L2 / sqrt(w) whp (generous constant)."""
        width = 256
        cs = CountSketch(5, width, seed=3)
        for key in keys:
            cs.update(key)
        truth = Counter(keys)
        l2 = math.sqrt(sum(v * v for v in truth.values()))
        bound = 8.0 * l2 / math.sqrt(width) + 1.0
        for key, count in truth.items():
            assert abs(cs.query(key) - count) <= bound

    def test_l2_estimate(self):
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 500, size=20000)
        cs = CountSketch(5, 4096, seed=4)
        cs.update_batch(keys)
        truth = Counter(keys.tolist())
        true_l2 = math.sqrt(sum(v * v for v in truth.values()))
        assert cs.l2_estimate() == pytest.approx(true_l2, rel=0.1)

    def test_batch_matches_scalar(self):
        keys = np.array([1, 2, 3, 4, 5] * 40)
        a = CountSketch(4, 128, seed=5)
        b = CountSketch(4, 128, seed=5)
        for key in keys.tolist():
            a.update(key)
        b.update_batch(keys)
        assert np.allclose(a.counters, b.counters)

    def test_signed_updates_cancel(self):
        """Two flows in one bucket with opposite signs partially cancel --
        counters can go negative, unlike Count-Min."""
        cs = CountSketch(1, 1, seed=0)
        cs.update(1)
        cs.update(2)
        value = cs.counters[0, 0]
        assert value in (-2.0, 0.0, 2.0)

    def test_from_error_bounds(self):
        cs = CountSketch.from_error_bounds(0.1, 0.05)
        assert cs.width >= 3.0 / 0.01 - 1
        assert cs.depth >= 2

    def test_update_and_estimate_matches_query(self):
        cs = CountSketch(5, 512, seed=7)
        estimate = cs.update_and_estimate(11)
        assert estimate == cs.query(11)


class TestKArySketch:
    def test_mean_corrected_estimate(self):
        kary = KArySketch(5, 512, seed=1)
        keys = list(range(100)) * 5 + [7] * 200
        for key in keys:
            kary.update(key)
        assert kary.total == pytest.approx(len(keys))
        assert kary.query(7) == pytest.approx(205, rel=0.25)

    def test_unbiased_background_removal(self):
        """Uniform background should give near-zero estimates for absent keys."""
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 10000, size=50000)
        kary = KArySketch(5, 2048, seed=2)
        kary.update_batch(keys)
        absent = [20001, 20002, 20003]
        for key in absent:
            assert abs(kary.query(key)) < 200  # ~ L2 noise, not ~m/w bias

    def test_total_tracked_in_batch(self):
        kary = KArySketch(3, 128, seed=3)
        kary.update_batch(np.arange(50), weights=np.full(50, 2.0))
        assert kary.total == pytest.approx(100.0)

    def test_total_tracked_scalar(self):
        kary = KArySketch(3, 128, seed=3)
        for key in range(10):
            kary.update(key)
        assert kary.total == pytest.approx(10.0)

    def test_merge_carries_the_mass_total(self):
        """Regression: merge summed the counters but dropped the other
        half's total, so every mean-corrected query read the wrong
        background mass and check_invariants flagged mass leakage."""
        keys = np.random.default_rng(6).integers(0, 1000, size=10_000)
        whole = KArySketch(5, 256, seed=6)
        whole.update_batch(keys)
        merged = KArySketch(5, 256, seed=6)
        other = KArySketch(5, 256, seed=6)
        merged.update_batch(keys[:5_000])
        other.update_batch(keys[5_000:])
        merged.merge(other)
        assert np.array_equal(merged.counters, whole.counters)
        assert merged.total == pytest.approx(10_000.0)
        assert merged.query(0) == pytest.approx(whole.query(0))
        assert merged.check_invariants() == []

    def test_difference_sketch(self):
        a = KArySketch(5, 512, seed=4)
        b = KArySketch(5, 512, seed=4)
        for _ in range(100):
            a.update(1)
        for _ in range(40):
            b.update(1)
        diff = a.difference(b)
        assert diff.query(1) == pytest.approx(60, abs=10)
        assert diff.total == pytest.approx(60)

    def test_difference_requires_same_seed(self):
        a = KArySketch(5, 512, seed=4)
        b = KArySketch(5, 512, seed=5)
        with pytest.raises(ValueError):
            a.difference(b)

    def test_reset_clears_total(self):
        kary = KArySketch(3, 128, seed=6)
        kary.update(1)
        kary.reset()
        assert kary.total == 0.0
        assert kary.query(1) == pytest.approx(0.0)

    def test_width_one_degenerate(self):
        kary = KArySketch(2, 1, seed=7)
        kary.update(1)
        assert kary.query(1) == pytest.approx(1.0)

    @given(KEY_LISTS)
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, keys):
        """sketch(A) + sketch(B) == sketch(A ++ B) counter-wise."""
        half = len(keys) // 2
        a = KArySketch(3, 64, seed=8)
        b = KArySketch(3, 64, seed=8)
        combined = KArySketch(3, 64, seed=8)
        for key in keys[:half]:
            a.update(key)
        for key in keys[half:]:
            b.update(key)
        for key in keys:
            combined.update(key)
        assert np.allclose(a.counters + b.counters, combined.counters)
        assert a.total + b.total == pytest.approx(combined.total)
