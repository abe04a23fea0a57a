"""Tests for Count-Min Sketch (and the conservative-update variant)."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.opcount import OpCounter
from repro.sketches import ConservativeCountMinSketch, CountMinSketch

KEY_LISTS = st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300)


class TestCountMin:
    def test_exact_without_collisions(self):
        cms = CountMinSketch(4, 4096, seed=1)
        for _ in range(10):
            cms.update(42)
        assert cms.query(42) == 10.0

    def test_unseen_key_small(self):
        cms = CountMinSketch(4, 4096, seed=1)
        cms.update(1)
        assert cms.query(999) <= 1.0

    @given(KEY_LISTS)
    @settings(max_examples=60, deadline=None)
    def test_never_underestimates(self, keys):
        """The CMS invariant: query(x) >= true frequency, always."""
        cms = CountMinSketch(3, 64, seed=7)
        for key in keys:
            cms.update(key)
        truth = Counter(keys)
        for key, count in truth.items():
            assert cms.query(key) >= count

    @given(KEY_LISTS)
    @settings(max_examples=30, deadline=None)
    def test_l1_error_bound(self, keys):
        """query(x) <= f_x + (e/w) * L1 whp; with d=5 rows failure is rare
        enough to assert deterministically at this scale."""
        width = 64
        cms = CountMinSketch(5, width, seed=11)
        for key in keys:
            cms.update(key)
        truth = Counter(keys)
        bound = math.e / width * len(keys)
        for key, count in truth.items():
            assert cms.query(key) <= count + max(bound, 1) * 6

    def test_weighted_updates(self):
        cms = CountMinSketch(4, 1024, seed=2)
        cms.update(5, weight=3.5)
        assert cms.query(5) >= 3.5

    def test_batch_matches_scalar(self):
        keys = np.array([1, 2, 3, 1, 2, 1] * 50)
        a = CountMinSketch(4, 256, seed=3)
        b = CountMinSketch(4, 256, seed=3)
        for key in keys.tolist():
            a.update(key)
        b.update_batch(keys)
        assert np.allclose(a.counters, b.counters)

    def test_merge(self):
        a = CountMinSketch(3, 128, seed=4)
        b = CountMinSketch(3, 128, seed=4)
        a.update(1)
        b.update(1)
        a.merge(b)
        assert a.query(1) == 2.0

    def test_merge_requires_same_config(self):
        a = CountMinSketch(3, 128, seed=4)
        b = CountMinSketch(3, 128, seed=5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_reset(self):
        cms = CountMinSketch(3, 128, seed=4)
        cms.update(1)
        cms.reset()
        assert cms.query(1) == 0.0

    def test_from_error_bounds_sizing(self):
        cms = CountMinSketch.from_error_bounds(0.01, 0.01)
        assert cms.width >= math.e / 0.01 - 1
        assert cms.depth >= math.log(100) - 1

    def test_from_error_bounds_validation(self):
        with pytest.raises(ValueError):
            CountMinSketch.from_error_bounds(0, 0.1)
        with pytest.raises(ValueError):
            CountMinSketch.from_error_bounds(0.1, 1.5)

    def test_memory_bytes(self):
        assert CountMinSketch(5, 10000).memory_bytes() == 5 * 10000 * 4

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CountMinSketch(0, 10)
        with pytest.raises(ValueError):
            CountMinSketch(1, 0)

    def test_ops_accounting(self):
        cms = CountMinSketch(5, 128, seed=1)
        ops = OpCounter()
        cms.ops = ops
        cms.update(1)
        assert ops.packets == 1
        assert ops.hashes == 5
        assert ops.counter_updates == 5

    def test_update_and_estimate_matches_query(self):
        cms = CountMinSketch(5, 1024, seed=9)
        estimate = cms.update_and_estimate(3)
        assert estimate == cms.query(3)

    def test_row_sum_of_squares(self):
        cms = CountMinSketch(2, 64, seed=1)
        cms.update(1, 3.0)
        assert cms.row_sum_of_squares(0) == pytest.approx(9.0)


class TestConservativeCountMin:
    @given(KEY_LISTS)
    @settings(max_examples=40, deadline=None)
    def test_still_never_underestimates(self, keys):
        sketch = ConservativeCountMinSketch(3, 64, seed=5)
        for key in keys:
            sketch.update(key)
        truth = Counter(keys)
        for key, count in truth.items():
            assert sketch.query(key) >= count

    @given(KEY_LISTS)
    @settings(max_examples=40, deadline=None)
    def test_at_most_vanilla_estimate(self, keys):
        """Conservative update strictly dominates plain CMS."""
        vanilla = CountMinSketch(3, 32, seed=6)
        conservative = ConservativeCountMinSketch(3, 32, seed=6)
        for key in keys:
            vanilla.update(key)
            conservative.update(key)
        for key in set(keys):
            assert conservative.query(key) <= vanilla.query(key) + 1e-9

    def test_batch_path_stays_conservative(self):
        """Regression: update_batch was the inherited plain Count-Min
        scatter, so batch ingest lost conservative update."""
        keys = np.random.default_rng(1).integers(0, 2_000, 20_000)
        scalar = ConservativeCountMinSketch(4, 256, seed=1)
        for key in keys.tolist():
            scalar.update(key)
        batch = ConservativeCountMinSketch(4, 256, seed=1)
        batch.update_batch(keys, duration_seconds=0.1)
        assert np.array_equal(scalar.counters, batch.counters)
        assert batch.counters.sum() < 4 * len(keys)
