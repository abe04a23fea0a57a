"""Tests for repro.hashing.families."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing.families import (
    MERSENNE_PRIME_61,
    FourWiseHash,
    HashPair,
    KWiseHash,
    MultiplyShiftHash,
    MultiplyShiftSign,
    PairwiseHash,
    SignHash,
    derive_seeds,
    key_array,
    make_hash_pairs,
)

KEYS = st.integers(min_value=0, max_value=2**63 - 1)


class TestKWiseHash:
    def test_deterministic(self):
        h1 = KWiseHash(2, 100, seed=5)
        h2 = KWiseHash(2, 100, seed=5)
        assert all(h1(k) == h2(k) for k in range(1000))

    def test_range(self):
        h = KWiseHash(4, 37, seed=9)
        assert all(0 <= h(k) < 37 for k in range(5000))

    def test_different_seeds_differ(self):
        h1 = KWiseHash(2, 1000, seed=1)
        h2 = KWiseHash(2, 1000, seed=2)
        collisions = sum(1 for k in range(1000) if h1(k) == h2(k))
        assert collisions < 50  # ~1/1000 expected

    def test_batch_matches_scalar(self):
        h = KWiseHash(2, 997, seed=3)
        keys = np.arange(0, 2000, 7)
        batch = h.batch(keys)
        scalar = [h(int(k)) for k in keys]
        assert batch.tolist() == scalar

    def test_roughly_uniform(self):
        h = PairwiseHash(10, seed=4)
        buckets = np.bincount([h(k) for k in range(20000)], minlength=10)
        assert buckets.min() > 1500
        assert buckets.max() < 2500

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KWiseHash(0, 10, 1)
        with pytest.raises(ValueError):
            KWiseHash(2, 0, 1)

    @given(KEYS)
    @settings(max_examples=50)
    def test_raw_below_prime(self, key):
        h = FourWiseHash(100, seed=8)
        assert 0 <= h.raw(key) < MERSENNE_PRIME_61


class TestSignHash:
    def test_values_are_pm_one(self):
        g = SignHash(seed=7)
        assert set(g(k) for k in range(1000)) == {-1, 1}

    def test_roughly_balanced(self):
        g = SignHash(seed=7)
        total = sum(g(k) for k in range(20000))
        assert abs(total) < 600

    def test_constant_one(self):
        g = SignHash(seed=7, constant_one=True)
        assert all(g(k) == 1 for k in range(100))

    def test_batch_matches_scalar(self):
        g = SignHash(seed=11)
        keys = np.arange(500)
        assert g.batch(keys).tolist() == [g(int(k)) for k in keys]

    def test_constant_one_batch(self):
        g = SignHash(seed=11, constant_one=True)
        assert g.batch(np.arange(10)).tolist() == [1] * 10


class TestMultiplyShiftHash:
    def test_range_any_width(self):
        for width in (1, 2, 3, 10, 1000, 102400, 12345):
            h = MultiplyShiftHash(width, seed=width)
            assert all(0 <= h(k) < width for k in range(500))

    def test_batch_matches_scalar(self):
        h = MultiplyShiftHash(1000, seed=17)
        keys = np.arange(0, 5000, 13)
        assert h.batch(keys).tolist() == [h(int(k)) for k in keys]

    def test_roughly_uniform(self):
        h = MultiplyShiftHash(8, seed=23)
        buckets = np.bincount([h(k) for k in range(40000)], minlength=8)
        assert buckets.min() > 4000

    def test_width_validation(self):
        with pytest.raises(ValueError):
            MultiplyShiftHash(0, 1)
        with pytest.raises(ValueError):
            MultiplyShiftHash(2**33, 1)

    def test_width_one(self):
        h = MultiplyShiftHash(1, seed=1)
        assert h(12345) == 0
        assert h.batch(np.arange(10)).tolist() == [0] * 10

    @given(KEYS)
    @settings(max_examples=50)
    def test_deterministic_property(self, key):
        h = MultiplyShiftHash(64, seed=99)
        assert h(key) == h(key)


class TestMultiplyShiftSign:
    def test_pm_one_and_balance(self):
        g = MultiplyShiftSign(seed=31)
        values = [g(k) for k in range(10000)]
        assert set(values) == {-1, 1}
        assert abs(sum(values)) < 500

    def test_batch_matches_scalar(self):
        g = MultiplyShiftSign(seed=37)
        keys = np.arange(300)
        assert g.batch(keys).tolist() == [g(int(k)) for k in keys]


class TestHashPairs:
    def test_make_hash_pairs_count_and_independence(self):
        pairs = make_hash_pairs(5, 100, seed=1)
        assert len(pairs) == 5
        # Rows should disagree on most keys.
        agreements = sum(
            1 for k in range(200) if pairs[0].index(k) == pairs[1].index(k)
        )
        assert agreements < 20

    def test_hash_pair_call(self):
        pair = HashPair(50, seed=3)
        bucket, sign = pair(42)
        assert 0 <= bucket < 50
        assert sign in (-1, 1)

    def test_unsigned_pair(self):
        pair = HashPair(50, seed=3, signed=False)
        assert all(pair(k)[1] == 1 for k in range(50))

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            make_hash_pairs(0, 10, 1)


class TestDeriveSeeds:
    def test_deterministic(self):
        assert derive_seeds(5, 10) == derive_seeds(5, 10)

    def test_distinct(self):
        seeds = derive_seeds(5, 100)
        assert len(set(seeds)) == 100

    def test_count(self):
        assert len(derive_seeds(1, 7)) == 7


class TestKeyArray:
    def test_int64_when_every_key_fits(self):
        keys = key_array([-5, 0, 2**63 - 1])
        assert keys.dtype == np.int64
        assert keys.tolist() == [-5, 0, 2**63 - 1]

    def test_uint64_across_both_halves(self):
        """np.asarray makes this list float64; the keys must stay exact."""
        keys = key_array([1, 2**63, 2**64 - 1])
        assert keys.dtype == np.uint64
        assert keys.tolist() == [1, 2**63, 2**64 - 1]

    def test_empty_is_int64(self):
        keys = key_array([])
        assert keys.dtype == np.int64 and len(keys) == 0

    @pytest.mark.parametrize("keys", [[-1, 2**63], [2**64]])
    def test_keys_no_64_bit_dtype_holds_raise(self, keys):
        with pytest.raises(ValueError):
            key_array(keys)
