"""Tests for repro.sketches.topk.TopK."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.opcount import OpCounter
from repro.sketches.topk import TopK


class TestTopKBasics:
    def test_tracks_up_to_k(self):
        topk = TopK(3)
        for key in range(3):
            assert topk.offer(key, float(key + 1))
        assert len(topk) == 3

    def test_eviction_of_minimum(self):
        topk = TopK(2)
        topk.offer(1, 10.0)
        topk.offer(2, 20.0)
        assert topk.offer(3, 15.0)  # evicts key 1
        assert 1 not in topk
        assert set(topk.keys()) == {2, 3}

    def test_rejects_below_minimum(self):
        topk = TopK(2)
        topk.offer(1, 10.0)
        topk.offer(2, 20.0)
        assert not topk.offer(3, 5.0)
        assert set(topk.keys()) == {1, 2}

    def test_update_existing_key(self):
        topk = TopK(2)
        topk.offer(1, 10.0)
        topk.offer(1, 30.0)
        assert topk.estimate(1) == 30.0
        assert len(topk) == 1

    def test_stale_estimate_not_lowered(self):
        topk = TopK(2)
        topk.offer(1, 30.0)
        topk.offer(1, 10.0)  # lower re-offer keeps the max
        assert topk.estimate(1) == 30.0

    def test_ranked_order(self):
        topk = TopK(5)
        for key, est in ((1, 5.0), (2, 50.0), (3, 20.0)):
            topk.offer(key, est)
        assert [key for key, _ in topk.ranked()] == [2, 3, 1]

    def test_min_estimate(self):
        topk = TopK(3)
        assert topk.min_estimate() == 0.0
        topk.offer(1, 7.0)
        topk.offer(2, 3.0)
        assert topk.min_estimate() == 3.0

    def test_min_estimate_after_updates(self):
        topk = TopK(2)
        topk.offer(1, 1.0)
        topk.offer(2, 2.0)
        topk.offer(1, 5.0)  # stale (1.0, 1) entry must be skipped
        assert topk.min_estimate() == 2.0

    def test_estimate_keyerror(self):
        with pytest.raises(KeyError):
            TopK(2).estimate(1)

    def test_reset(self):
        topk = TopK(2)
        topk.offer(1, 1.0)
        topk.reset()
        assert len(topk) == 0
        assert topk.min_estimate() == 0.0

    def test_items_iterates_pairs(self):
        topk = TopK(3)
        topk.offer(1, 2.0)
        assert list(topk.items()) == [(1, 2.0)]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopK(0)

    def test_memory_positive(self):
        topk = TopK(4)
        topk.offer(1, 1.0)
        assert topk.memory_bytes() > 0

    def test_ops_recording(self):
        topk = TopK(2)
        ops = OpCounter()
        topk.ops = ops
        topk.offer(1, 1.0)
        assert ops.table_lookups == 1
        assert ops.heap_ops == 1  # insertion push


class TestTopKProperty:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.floats(0.1, 1000)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=100)
    def test_monotone_offers_match_exact_topk(self, offers):
        """With monotonically growing per-key estimates, the store holds
        exactly the top-k keys by final value."""
        k = 5
        topk = TopK(k)
        best = {}
        for key, value in offers:
            # Make per-key sequences monotone (like growing counters).
            value = max(value, best.get(key, 0.0) + 0.001)
            best[key] = value
            topk.offer(key, value)
        held = set(topk.keys())
        assert len(held) == min(k, len(best))
        # Every held key's estimate matches its final offered value.
        for key in held:
            assert topk.estimate(key) == pytest.approx(best[key])
        # Monotone offers guarantee every held key's final value is >= the
        # k-th largest final value (ties may swap equal-valued keys).
        kth_value = sorted(best.values(), reverse=True)[: k][-1]
        for key in held:
            assert best[key] >= kth_value - 1e-9


class TestHeapCompaction:
    def test_heap_bounded_under_tracked_reoffers(self):
        """Regression: re-offering tracked keys must not grow the heap.

        Updating an already-tracked key never evicts, so nothing lazily
        pops its stale heap entries -- before amortized compaction the
        heap held one tuple per offer and a long-lived monitor re-offering
        its heavy hitters grew without bound.
        """
        from repro.sketches.topk import COMPACT_FACTOR

        k = 16
        topk = TopK(k)
        for index in range(5000):
            topk.offer(index % k, float(index))
        assert len(topk) == k
        assert len(topk._heap) <= COMPACT_FACTOR * k
        assert topk.check_invariants() == []
        # Estimates are the freshest offers despite the compactions.
        for key in range(k):
            expected = max(i for i in range(5000) if i % k == key)
            assert topk.estimate(key) == float(expected)

    def test_compaction_preserves_eviction_order(self):
        from repro.sketches.topk import COMPACT_FACTOR

        k = 4
        topk = TopK(k)
        # Grow stale entries past the compaction trigger...
        for index in range(10 * COMPACT_FACTOR * k):
            topk.offer(index % k, float(index + 10))
        # ...then eviction must still target the true minimum.
        floor = min(topk.estimate(key) for key in topk.keys())
        assert topk.offer(999, floor + 1000.0)
        assert 999 in topk
        assert len(topk) == k

    def test_check_invariants_clean_on_fresh_and_used(self):
        topk = TopK(8)
        assert topk.check_invariants() == []
        for index in range(100):
            topk.offer(index, float(index))
        assert topk.check_invariants() == []


def _scalar_offers(topk, keys, estimates):
    for key, estimate in zip(keys, estimates):
        topk.offer(key, estimate)


class TestOfferBatch:
    """``offer_batch`` must be indistinguishable from the scalar loop."""

    @given(
        st.integers(1, 6),
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 40),
                    # A few small values force ties with the minimum.
                    st.one_of(
                        st.integers(0, 6).map(float),
                        st.floats(0.0, 200.0, allow_nan=False),
                    ),
                ),
                max_size=40,
            ),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=300)
    def test_matches_scalar_loop_exactly(self, k, rounds):
        """Raw heap list, dict item order and every OpCounter field agree
        after each round -- reading the minimum by popping stale entries
        keeps the same live set but not the same heap list."""
        scalar, batch = TopK(k), TopK(k)
        scalar.ops, batch.ops = OpCounter(), OpCounter()
        for offers in rounds:
            ordered = sorted(dict(offers).items())
            keys = [key for key, _ in ordered]
            estimates = [estimate for _, estimate in ordered]
            _scalar_offers(scalar, keys, estimates)
            batch.offer_batch(
                np.asarray(keys, dtype=np.int64), np.asarray(estimates)
            )
            assert batch._heap == scalar._heap
            assert list(batch._best.items()) == list(scalar._best.items())
            assert batch.ops.as_dict() == scalar.ops.as_dict()
            assert batch.check_invariants() == []

    def test_uint64_keys_match_scalar_loop(self):
        keys = np.array([3, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
        scalar, batch = TopK(1), TopK(1)
        for round_estimates in ([5.0, 1.0, 9.0], [2.0, 3.0, 9.5]):
            _scalar_offers(scalar, keys.tolist(), round_estimates)
            batch.offer_batch(keys, np.asarray(round_estimates))
        assert batch._heap == scalar._heap
        assert list(batch._best.items()) == list(scalar._best.items())

    @pytest.mark.parametrize(
        "keys", [[2, 1], [1, 1], [1, 3, 2], [5, 5, 6]], ids=str
    )
    def test_unsorted_or_duplicate_keys_raise(self, keys):
        topk = TopK(2)
        with pytest.raises(ValueError):
            topk.offer_batch(np.asarray(keys), np.ones(len(keys)))
        assert len(topk) == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            TopK(2).offer_batch(np.arange(3), np.ones(2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_estimate_raises_before_any_change(self, bad):
        topk = TopK(2)
        topk.offer(7, 1.0)
        with pytest.raises(ValueError):
            topk.offer_batch(np.arange(3), np.array([4.0, bad, 5.0]))
        assert list(topk.items()) == [(7, 1.0)]


class TestNonFiniteEstimates:
    def test_nan_estimate_cannot_corrupt_the_store(self):
        """Regression: a NaN never equals itself, so its heap entry read
        as stale and ``_peek_valid`` popped it.  That left a tracked key
        with no live entry, compared later offers against the wrong
        minimum, and with two NaN keys emptied the heap under
        ``min_estimate``."""
        nan = float("nan")
        topk = TopK(2)
        topk.offer(1, 5.0)
        with pytest.raises(ValueError):
            topk.offer(2, nan)
        # Symptom 1: every tracked key keeps a live heap entry.
        assert topk.check_invariants() == []
        # Symptom 2: the store is not full, so a small newcomer is
        # admitted rather than compared against 5.0.
        assert topk.offer(3, 1.0)
        assert set(topk.keys()) == {1, 3}
        assert topk.min_estimate() == 1.0
        # Symptom 3: two NaN keys never empty the heap.
        twice = TopK(2)
        for key in (1, 2):
            with pytest.raises(ValueError):
                twice.offer(key, nan)
        assert twice.min_estimate() == 0.0
        with pytest.raises(ValueError):
            twice.offer(3, float("inf"))


class TestSortedDistinct:
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [7],
            [1, 2, 3, 10],
            [10, 3, 2, 1],
            [5, 1, 5, 5, 2, 1, 1, 9, 5, 2] * 20,
        ],
        ids=["empty", "single", "sorted", "reversed", "duplicates"],
    )
    def test_equals_np_unique(self, values, dtype):
        from repro.kernels import sorted_distinct

        array = np.asarray(values, dtype=dtype)
        got = sorted_distinct(array)
        expected = np.unique(array)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_large_uint64_values(self):
        from repro.kernels import sorted_distinct

        array = np.array([2**64 - 1, 0, 2**63, 2**64 - 1, 0], dtype=np.uint64)
        assert np.array_equal(sorted_distinct(array), np.unique(array))


class TestSortedDistinctCount:
    @pytest.mark.parametrize(
        "values",
        [[], [4], [4, 4, 4], [0, 0, 1, 3, 3, 3, 8], list(range(50))],
        ids=["empty", "single", "one-run", "runs", "all-distinct"],
    )
    def test_equals_np_unique_size_on_sorted_input(self, values):
        from repro.kernels import sorted_distinct_count

        array = np.asarray(values, dtype=np.int64)
        assert sorted_distinct_count(array) == np.unique(array).size


class TestOfferDistinct:
    def test_bills_every_probe_and_offers_each_key_once(self):
        keys = np.array([9, 3, 9, 9, 1, 3], dtype=np.int64)
        distinct = TopK(2)
        distinct.ops = OpCounter()
        distinct.offer_distinct(keys, lambda unique: unique * 2.0, probes=8)
        scalar = TopK(2)
        scalar.ops = OpCounter()
        scalar.ops.table_lookup(8 - 3)
        for key in (1, 3, 9):
            scalar.offer(key, key * 2.0)
        assert distinct._heap == scalar._heap
        assert list(distinct.items()) == list(scalar.items())
        assert distinct.ops.as_dict() == scalar.ops.as_dict()
        assert distinct.ops.table_lookups == 8
