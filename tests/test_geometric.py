"""Tests for the geometric sampler (Idea B)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometric import GeometricSampler, geometric_gaps, geometric_positions
from repro.metrics.opcount import OpCounter


class TestGeometricSampler:
    def test_gaps_are_positive(self):
        sampler = GeometricSampler(0.2, seed=1)
        assert all(sampler.next_gap() >= 1 for _ in range(2000))

    def test_mean_gap_is_inverse_probability(self):
        sampler = GeometricSampler(0.1, seed=2)
        gaps = [sampler.next_gap() for _ in range(30000)]
        assert np.mean(gaps) == pytest.approx(10.0, rel=0.05)

    def test_p_one_always_one_and_no_prng(self):
        sampler = GeometricSampler(1.0, seed=3)
        ops = OpCounter()
        sampler.ops = ops
        assert all(sampler.next_gap() == 1 for _ in range(100))
        assert ops.prng_draws == 0

    def test_prng_billed_per_draw(self):
        sampler = GeometricSampler(0.5, seed=4)
        ops = OpCounter()
        sampler.ops = ops
        for _ in range(50):
            sampler.next_gap()
        assert ops.prng_draws == 50

    def test_probability_change_takes_effect(self):
        sampler = GeometricSampler(0.5, seed=5)
        sampler.set_probability(0.01)
        gaps = [sampler.next_gap() for _ in range(5000)]
        assert np.mean(gaps) == pytest.approx(100.0, rel=0.15)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            GeometricSampler(0.0)
        sampler = GeometricSampler(0.5)
        with pytest.raises(ValueError):
            sampler.set_probability(1.5)

    def test_expected_gap(self):
        assert GeometricSampler(0.25).expected_gap() == 4.0

    def test_deterministic(self):
        a = GeometricSampler(0.3, seed=9)
        b = GeometricSampler(0.3, seed=9)
        assert [a.next_gap() for _ in range(100)] == [b.next_gap() for _ in range(100)]

    def test_gaps_batch_distribution(self):
        sampler = GeometricSampler(0.2, seed=11)
        gaps = sampler.gaps_batch(20000)
        assert gaps.min() >= 1
        assert np.mean(gaps) == pytest.approx(5.0, rel=0.05)

    def test_gaps_batch_p_one(self):
        sampler = GeometricSampler(1.0, seed=11)
        assert sampler.gaps_batch(10).tolist() == [1] * 10


class TestGeometricPositions:
    def test_positions_within_range(self):
        rng = np.random.default_rng(0)
        positions, leftover = geometric_positions(0.1, 1000, rng)
        assert positions.min() >= 0
        assert positions.max() < 1000
        assert leftover >= 0

    def test_positions_strictly_increasing(self):
        rng = np.random.default_rng(1)
        positions, _ = geometric_positions(0.3, 5000, rng)
        assert np.all(np.diff(positions) >= 1)

    def test_density_matches_probability(self):
        rng = np.random.default_rng(2)
        positions, _ = geometric_positions(0.05, 200000, rng)
        assert len(positions) == pytest.approx(10000, rel=0.1)

    def test_p_one_covers_every_slot(self):
        rng = np.random.default_rng(3)
        positions, leftover = geometric_positions(1.0, 10, rng)
        assert positions.tolist() == list(range(10))
        assert leftover == 0

    def test_zero_slots(self):
        rng = np.random.default_rng(4)
        positions, leftover = geometric_positions(0.5, 0, rng)
        assert positions.size == 0
        assert leftover >= 0

    def test_leftover_continuation_preserves_density(self):
        """Splitting a slot range into chunks (carrying leftover) must give
        the same overall sampling density as one big range."""
        rng = np.random.default_rng(5)
        total = 0
        pending = 0
        for _ in range(100):
            chunk = 1000
            if pending >= chunk:
                pending -= chunk
                continue
            first = pending
            tail, leftover = geometric_positions(0.1, chunk - first - 1, rng)
            total += 1 + len(tail)
            pending = leftover
        assert total == pytest.approx(0.1 * 100 * 1000, rel=0.1)

    def test_probability_validation(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            geometric_positions(0.0, 10, rng)
        with pytest.raises(ValueError):
            geometric_positions(0.5, -1, rng)

    @given(st.floats(min_value=0.01, max_value=1.0), st.integers(0, 2000))
    @settings(max_examples=50, deadline=None)
    def test_invariants_property(self, probability, slots):
        rng = np.random.default_rng(7)
        positions, leftover = geometric_positions(probability, slots, rng)
        assert leftover >= 0
        if positions.size:
            assert positions.min() >= 0
            assert positions.max() < slots
            assert np.all(np.diff(positions) >= 1)


class TestGapsBatchBitIdentity:
    """The vectorised batch path must replay the scalar draw stream."""

    @pytest.mark.parametrize("probability", [0.03, 0.2, 0.7])
    def test_gaps_batch_matches_scalar_draws(self, probability):
        scalar = GeometricSampler(probability, seed=21)
        expected = [scalar.next_gap() for _ in range(6000)]
        batch = GeometricSampler(probability, seed=21)
        assert batch.gaps_batch(6000).tolist() == expected
        # Both consumed the same PRNG stream, so the cursors agree and
        # the *next* draw agrees too.
        assert batch.getstate() == scalar.getstate()
        assert batch.next_gap() == scalar.next_gap()

    def test_interleaved_scalar_and_batch(self):
        reference = GeometricSampler(0.1, seed=4)
        expected = [reference.next_gap() for _ in range(900)]
        mixed = GeometricSampler(0.1, seed=4)
        got = [mixed.next_gap() for _ in range(100)]
        got += mixed.gaps_batch(500).tolist()
        got += [mixed.next_gap() for _ in range(100)]
        got += mixed.gaps_batch(200).tolist()
        assert got == expected

    def test_state_roundtrip(self):
        sampler = GeometricSampler(0.25, seed=8)
        sampler.gaps_batch(137)
        snapshot = sampler.getstate()
        expected = sampler.gaps_batch(50).tolist()
        replayed = GeometricSampler(0.5, seed=999)
        replayed.setstate(snapshot)
        assert replayed.probability == 0.25
        assert replayed.gaps_batch(50).tolist() == expected


class _RecordingRng:
    """A ``Generator`` stand-in that logs which draw method is called.

    ``shrink`` scales every exponential draw down, and ``geometric``
    inverts the scaled draws the way numpy does below ``p = 1/3``, so
    both methods agree and the gaps come out shorter than Geometric(p).
    """

    def __init__(self, seed, shrink=1.0):
        self._rng = np.random.default_rng(seed)
        self._shrink = shrink
        self.calls = []

    def standard_exponential(self, size):
        self.calls.append("standard_exponential")
        return self._rng.standard_exponential(size) * self._shrink

    def geometric(self, probability, size):
        self.calls.append("geometric")
        if self._shrink == 1.0:
            return self._rng.geometric(probability, size=size)
        draws = self._rng.standard_exponential(size) * self._shrink
        return np.ceil(draws / -math.log1p(-probability)).astype(np.int64)


def _mask_geometric_positions(probability, total_slots, rng):
    """``geometric_positions`` as it was: ``rng.geometric`` draws, cut
    with two boolean masks."""
    if probability >= 1.0:
        return np.arange(total_slots, dtype=np.int64), 0
    expected = probability * total_slots
    budget = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 2
    positions = np.cumsum(rng.geometric(probability, size=budget)).astype(np.int64) - 1
    while positions[-1] < total_slots:
        extra = (
            np.cumsum(rng.geometric(probability, size=budget)).astype(np.int64)
            + positions[-1]
        )
        positions = np.concatenate([positions, extra])
    beyond = positions[positions >= total_slots]
    return positions[positions < total_slots], int(beyond[0]) - total_slots


class TestGeometricGapsIdentity:
    """``geometric_gaps`` is ``rng.geometric``, draw for draw."""

    @pytest.mark.parametrize("size", [1, 8737])
    @pytest.mark.parametrize("probability", [0.01, 0.1, 1 / 16, 1 / 128, 0.3])
    def test_inversion_equals_numpy_draws_and_state(self, probability, size):
        for seed in range(5):
            ours = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            gaps = geometric_gaps(probability, size, ours)
            expected = reference.geometric(probability, size=size)
            assert gaps.dtype == expected.dtype == np.int64
            np.testing.assert_array_equal(gaps, expected)
            assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "probability, method",
        [
            (0.3, "standard_exponential"),
            (1 / 3, "geometric"),
            (0.5, "geometric"),
        ],
    )
    def test_method_switches_at_one_third(self, probability, method):
        rng = _RecordingRng(seed=12)
        gaps = geometric_gaps(probability, 500, rng)
        assert rng.calls == [method]
        expected = np.random.default_rng(12).geometric(probability, size=500)
        np.testing.assert_array_equal(gaps, expected)


class TestGeometricPositionsCut:
    """The ``searchsorted`` cut equals the two-mask cut it replaced."""

    @pytest.mark.parametrize("total_slots", [0, 1, 5, 4096, 81920])
    @pytest.mark.parametrize("probability", [0.01, 0.1, 1 / 3, 0.5, 1.0])
    def test_matches_mask_reference(self, probability, total_slots):
        for seed in range(3):
            ours = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            positions, leftover = geometric_positions(probability, total_slots, ours)
            expected, expected_leftover = _mask_geometric_positions(
                probability, total_slots, reference
            )
            assert positions.dtype == np.int64
            np.testing.assert_array_equal(positions, expected)
            assert leftover == expected_leftover
            assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("probability", [0.1, 0.5])
    def test_budget_overflow_loop(self, probability):
        ours = _RecordingRng(seed=13, shrink=0.2)
        reference = _RecordingRng(seed=13, shrink=0.2)
        positions, leftover = geometric_positions(probability, 20000, ours)
        expected, expected_leftover = _mask_geometric_positions(
            probability, 20000, reference
        )
        assert len(ours.calls) > 1  # the first budget fell short
        np.testing.assert_array_equal(positions, expected)
        assert leftover == expected_leftover
