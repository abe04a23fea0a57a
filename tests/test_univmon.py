"""Tests for the UnivMon universal sketch."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.metrics.accuracy import empirical_entropy
from repro.sketches import HeavyHitterSketch, UnivMon, paper_widths
from repro.sketches.univmon import g_distinct, g_entropy, g_l1, g_l2_squared
from repro.traffic import zipf_keys


def make_univmon(**kwargs):
    defaults = dict(levels=8, depth=5, widths=2048, k=100, seed=3)
    defaults.update(kwargs)
    return UnivMon(**defaults)


class TestGFunctions:
    def test_g_entropy(self):
        assert g_entropy(1.0) == 0.0
        assert g_entropy(8.0) == pytest.approx(24.0)  # 8 * log2(8)

    def test_g_distinct(self):
        assert g_distinct(0.0) == 0.0
        assert g_distinct(0.4) == 0.0
        assert g_distinct(1.0) == 1.0

    def test_g_l2(self):
        assert g_l2_squared(3.0) == 9.0

    def test_g_l1_clamps(self):
        assert g_l1(-5.0) == 0.0
        assert g_l1(5.0) == 5.0


class TestSampling:
    def test_level0_sees_everything(self):
        um = make_univmon()
        for key in range(100):
            assert um.sampled_depth(key) >= 0

    def test_sampled_depth_halves_per_level(self):
        um = make_univmon(levels=10)
        depths = [um.sampled_depth(k) for k in range(20000)]
        # ~half the keys reach level >= 1, quarter level >= 2, ...
        at_least_1 = sum(1 for d in depths if d >= 1) / len(depths)
        at_least_2 = sum(1 for d in depths if d >= 2) / len(depths)
        assert 0.45 < at_least_1 < 0.55
        assert 0.2 < at_least_2 < 0.3

    def test_sample_bit_consistency(self):
        um = make_univmon()
        for key in range(500):
            depth = um.sampled_depth(key)
            for level in range(1, um.levels):
                assert um.sample_bit(level, key) == (1 if depth >= level else 0)

    def test_sampled_depth_batch_matches_scalar(self):
        um = make_univmon()
        keys = np.arange(2000)
        batch = um.sampled_depth_batch(keys)
        assert batch.tolist() == [um.sampled_depth(int(k)) for k in keys]

    def test_nested_substreams(self):
        """A key in level j must be in every level below j."""
        um = make_univmon()
        for key in range(300):
            depth = um.sampled_depth(key)
            assert 0 <= depth < um.levels


class TestUpdateAndQuery:
    def test_batch_matches_scalar_counters(self):
        keys = zipf_keys(15000, 2000, 1.1, seed=5)
        a = make_univmon()
        b = make_univmon()
        for key in keys.tolist():
            a.update(key)
        b.update_batch(keys)
        for level in range(a.levels):
            assert np.allclose(
                a.sketches[level].sketch.counters, b.sketches[level].sketch.counters
            )
        assert a.total == b.total
        assert a.packets_seen == b.packets_seen

    def test_point_query(self):
        um = make_univmon()
        for _ in range(500):
            um.update(77)
        assert um.query(77) == pytest.approx(500, rel=0.05)

    def test_heavy_hitters_sorted_desc(self):
        keys = zipf_keys(20000, 1000, 1.3, seed=7)
        um = make_univmon()
        um.update_batch(keys)
        hitters = um.heavy_hitters(threshold=10)
        estimates = [est for _, est in hitters]
        assert estimates == sorted(estimates, reverse=True)

    def test_entropy_estimate(self):
        keys = zipf_keys(60000, 3000, 1.1, seed=9)
        um = make_univmon(levels=10, widths=4096, k=200)
        um.update_batch(keys)
        truth = empirical_entropy(Counter(keys.tolist()))
        assert um.entropy_estimate() == pytest.approx(truth, rel=0.35)

    def test_distinct_estimate(self):
        keys = zipf_keys(40000, 800, 1.05, seed=11)
        um = make_univmon(levels=10, widths=4096, k=300)
        um.update_batch(keys)
        true_distinct = len(set(keys.tolist()))
        assert um.distinct_estimate() == pytest.approx(true_distinct, rel=0.4)

    def test_l1_gsum_matches_total(self):
        keys = zipf_keys(30000, 500, 1.2, seed=13)
        um = make_univmon(levels=8, widths=4096, k=300)
        um.update_batch(keys)
        assert um.g_sum(g_l1) == pytest.approx(um.total, rel=0.35)

    def test_l2_squared_estimate(self):
        keys = zipf_keys(30000, 2000, 1.2, seed=15)
        um = make_univmon(widths=8192)
        um.update_batch(keys)
        truth = sum(v * v for v in Counter(keys.tolist()).values())
        assert um.l2_squared_estimate() == pytest.approx(truth, rel=0.15)

    def test_change_detection(self):
        first = zipf_keys(20000, 1000, 1.2, seed=17)
        # Second epoch: one brand-new giant flow appears.
        second = np.concatenate([first, np.full(5000, 10**7, dtype=np.int64)])
        a = make_univmon(seed=21)
        b = make_univmon(seed=21)
        a.update_batch(first)
        b.update_batch(second)
        changes = b.change_detection(a, threshold=2000)
        assert changes, "the new giant flow must be detected"
        assert changes[0][0] == 10**7
        assert changes[0][1] == pytest.approx(5000, rel=0.25)

    def test_change_detection_requires_same_seed(self):
        a = make_univmon(seed=1)
        b = make_univmon(seed=2)
        with pytest.raises(ValueError):
            a.change_detection(b, 10)

    def test_reset(self):
        um = make_univmon()
        um.update(1)
        um.reset()
        assert um.total == 0.0
        assert um.packets_seen == 0
        assert um.query(1) == pytest.approx(0.0)

    def test_entropy_zero_for_empty(self):
        assert make_univmon().entropy_estimate() == 0.0


class TestConfiguration:
    def test_paper_widths_plan(self):
        widths = paper_widths(6, depth=5)
        assert widths[0] == 4 * 2**20 // 20
        assert widths[3] == 500 * 2**10 // 20
        assert widths[4] == widths[5] == 250 * 2**10 // 20

    def test_per_level_widths(self):
        um = UnivMon(levels=3, depth=2, widths=[64, 32, 16], k=10, seed=1)
        assert [s.sketch.width for s in um.sketches] == [64, 32, 16]

    def test_width_list_length_validated(self):
        with pytest.raises(ValueError):
            UnivMon(levels=3, widths=[64, 32], k=10)

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            UnivMon(levels=0)

    def test_memory_bytes_sums_levels(self):
        um = UnivMon(levels=2, depth=2, widths=100, k=10, seed=1)
        assert um.memory_bytes() >= 2 * 2 * 100 * 4

    def test_ops_propagates_to_levels(self):
        from repro.metrics.opcount import OpCounter

        um = make_univmon()
        ops = OpCounter()
        um.ops = ops
        um.update(5)
        assert ops.hashes > 0
        assert ops.counter_updates >= um.depth

    def test_level_type_error_propagates_after_one_call(self):
        calls = []

        class FailingLevel(HeavyHitterSketch):
            def update_batch(self, keys, weights=None, duration_seconds=None):
                calls.append(len(keys))
                raise TypeError("raised inside the level update")

        um = UnivMon(
            levels=4,
            depth=3,
            widths=64,
            k=5,
            seed=1,
            level_factory=lambda level, d, w, k, s: FailingLevel(d, w, k, s),
        )
        with pytest.raises(TypeError, match="inside the level update"):
            um.update_batch(np.arange(100))
        assert calls == [100]


class TestHeavyHitterSketch:
    def test_update_offers_to_topk(self):
        unit = HeavyHitterSketch(4, 512, k=10, seed=1)
        for _ in range(20):
            unit.update(3)
        assert 3 in unit.topk
        assert unit.query(3) == pytest.approx(20, rel=0.1)

    def test_top_items_fresh_estimates(self):
        unit = HeavyHitterSketch(4, 512, k=10, seed=1)
        for _ in range(10):
            unit.update(3)
        items = dict(unit.top_items())
        assert items[3] == unit.query(3)

    def test_reset(self):
        unit = HeavyHitterSketch(4, 512, k=10, seed=1)
        unit.update(3)
        unit.reset()
        assert len(unit.topk) == 0
