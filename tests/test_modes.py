"""Tests for adaptive modes (Idea C): AlwaysLineRate and AlwaysCorrect."""

import numpy as np
import pytest

from repro.core import (
    NitroConfig,
    NitroMode,
    NitroSketch,
    P_MIN,
    PROBABILITY_LADDER,
    snap_to_ladder,
)
from repro.core.modes import AlwaysCorrectController, AlwaysLineRateController
from repro.sketches import CountSketch
from repro.traffic import zipf_keys


class TestLadder:
    def test_ladder_contents(self):
        assert PROBABILITY_LADDER[0] == 1.0
        assert PROBABILITY_LADDER[-1] == 2**-7
        assert len(PROBABILITY_LADDER) == 8

    def test_snap_rounds_down(self):
        assert snap_to_ladder(0.3) == 0.25
        assert snap_to_ladder(0.5) == 0.5
        assert snap_to_ladder(2.0) == 1.0

    def test_snap_clamps_to_pmin(self):
        assert snap_to_ladder(0.0001) == P_MIN

    def test_figure6_examples(self):
        """Paper Figure 6: 'if 40Mpps, p=1/64; if 10Mpps, p=1/16'."""
        config = NitroConfig()
        assert config.probability_for_rate(40.0) == 1 / 64
        assert config.probability_for_rate(10.0) == 1 / 16

    def test_low_rate_gives_p_one(self):
        config = NitroConfig()
        assert config.probability_for_rate(0.1) == 1.0
        assert config.probability_for_rate(0.0) == 1.0


class TestAlwaysLineRateController:
    def test_adapts_after_epoch(self):
        config = NitroConfig(
            probability=0.01,
            mode=NitroMode.ALWAYS_LINE_RATE,
            adaptation_epoch_seconds=0.1,
        )
        controller = AlwaysLineRateController(config)
        # 10 Mpps offered: 1M packets over 0.1s -> p should become 1/16.
        new_p = None
        for i in range(1_000):
            result = controller.on_packet(i * 1e-4)  # 10 kpps... scale below
        # Use on_batch for the rate computation directly instead.
        new_p = controller.on_batch(1_000_000, 0.1)
        assert new_p == 1 / 16

    def test_no_timestamp_no_adaptation(self):
        config = NitroConfig(mode=NitroMode.ALWAYS_LINE_RATE)
        controller = AlwaysLineRateController(config)
        assert controller.on_packet(None) is None

    def test_on_packet_epoch_boundary(self):
        config = NitroConfig(
            probability=0.5,
            mode=NitroMode.ALWAYS_LINE_RATE,
            adaptation_epoch_seconds=0.1,
        )
        controller = AlwaysLineRateController(config)
        # 40 Mpps: packets every 25ns; feed one epoch's worth sparsely.
        result = controller.on_packet(0.0)
        assert result is None
        result = controller.on_packet(0.05)
        assert result is None
        # Crossing the 0.1s boundary with 4M packets counted => 40 Mpps.
        controller._epoch_packets = 4_000_000
        result = controller.on_packet(0.11)
        assert result == 1 / 64

    def test_on_batch_unchanged_probability_returns_none(self):
        config = NitroConfig(probability=1 / 16, mode=NitroMode.ALWAYS_LINE_RATE)
        controller = AlwaysLineRateController(config)
        # 10 Mpps maps to the already-current 1/16: no change signalled.
        assert controller.on_batch(1_000_000, 0.1) is None
        # 40 Mpps maps to 1/64: change signalled once, then stable.
        assert controller.on_batch(4_000_000, 0.1) == 1 / 64
        assert controller.on_batch(4_000_000, 0.1) is None

    def test_integrated_with_sketch(self):
        config = NitroConfig(
            probability=1.0,
            mode=NitroMode.ALWAYS_LINE_RATE,
            adaptation_epoch_seconds=0.001,
            seed=5,
        )
        nitro = NitroSketch(CountSketch(5, 4096, seed=5), config)
        # Feed 1 Mpps for several epochs -> p should fall below 1
        # (0.625 Mpps budget / 1 Mpps -> 1/2).
        for i in range(5000):
            nitro.update(i % 100, timestamp=i * 1e-6)
        assert nitro.probability < 1.0


class TestAlwaysCorrectController:
    def test_threshold_formula(self):
        config = NitroConfig(probability=0.1, epsilon=0.2)
        expected = 121 * (1 + 0.2 * 0.1**0.5) / (0.2**4 * 0.1**2)
        assert config.convergence_threshold() == pytest.approx(expected)

    def test_converges_when_l2_grows(self):
        config = NitroConfig(
            probability=0.1,
            epsilon=0.5,
            mode=NitroMode.ALWAYS_CORRECT,
            convergence_check_period=100,
            seed=7,
        )
        nitro = NitroSketch(CountSketch(5, 4096, seed=7), config)
        assert not nitro.converged
        assert nitro.probability == 1.0  # exact until convergence
        # One giant flow drives L2^2 past T quickly.
        for _ in range(30000):
            nitro.update(1)
            if nitro.converged:
                break
        assert nitro.converged
        assert nitro.probability == 0.1
        assert nitro.correctness.converged_at_packet is not None

    def test_exact_before_convergence(self):
        config = NitroConfig(
            probability=0.01, epsilon=0.05, mode=NitroMode.ALWAYS_CORRECT, seed=8
        )
        nitro = NitroSketch(CountSketch(5, 4096, seed=8), config)
        for key in range(1000):
            nitro.update(key)
        # Far below threshold: still exact, so queries are vanilla-exact.
        assert not nitro.converged
        assert nitro.query(5) == pytest.approx(1.0, abs=0.6)

    def test_batch_convergence(self):
        config = NitroConfig(
            probability=0.1,
            epsilon=0.5,
            mode=NitroMode.ALWAYS_CORRECT,
            convergence_check_period=1000,
            seed=9,
        )
        nitro = NitroSketch(CountSketch(5, 4096, seed=9), config)
        nitro.update_batch(np.full(40000, 1, dtype=np.int64))
        assert nitro.converged

    def test_check_period_respected(self):
        config = NitroConfig(
            probability=0.5,
            epsilon=0.9,
            mode=NitroMode.ALWAYS_CORRECT,
            convergence_check_period=500,
        )
        sketch = CountSketch(5, 1024, seed=10)
        controller = AlwaysCorrectController(config, sketch)
        # Give the sketch enormous counters so the check passes when run.
        sketch.counters[:, 0] = 1e9
        for _ in range(499):
            assert not controller.on_packet()
        assert controller.on_packet()  # packet 500 triggers the check

    def test_reset_restores_warmup(self):
        config = NitroConfig(
            probability=0.1, epsilon=0.5, mode=NitroMode.ALWAYS_CORRECT, seed=11
        )
        nitro = NitroSketch(CountSketch(5, 4096, seed=11), config)
        nitro.update_batch(np.full(40000, 1, dtype=np.int64))
        assert nitro.converged
        nitro.reset()
        assert not nitro.converged
        assert nitro.probability == 1.0


class TestConfigValidation:
    def test_mode_from_string(self):
        config = NitroConfig(mode="always_correct")
        assert config.mode is NitroMode.ALWAYS_CORRECT

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            NitroConfig(probability=0)
        with pytest.raises(ValueError):
            NitroConfig(epsilon=1.0)
        with pytest.raises(ValueError):
            NitroConfig(delta=0)
        with pytest.raises(ValueError):
            NitroConfig(top_k=-1)
        with pytest.raises(ValueError):
            NitroConfig(convergence_check_period=0)
        with pytest.raises(ValueError):
            NitroConfig(adaptation_epoch_seconds=0)
        with pytest.raises(ValueError):
            NitroConfig(sampling="quantum")

    def test_recommended_sizing(self):
        config = NitroConfig(probability=0.1, epsilon=0.1, delta=0.05)
        assert config.recommended_width("l2") == 8000
        assert config.recommended_width("l1") == 40
        assert config.recommended_depth() >= 4
        ac = NitroConfig(
            probability=0.1, epsilon=0.1, delta=0.05, mode=NitroMode.ALWAYS_CORRECT
        )
        assert ac.recommended_width("l2") == 11000

    def test_recommended_width_validation(self):
        with pytest.raises(ValueError):
            NitroConfig().recommended_width("l3")


class TestEpochAccounting:
    def test_constant_rate_counts_every_epoch_exactly(self):
        """Regression: every epoch counts its opening packet exactly once.

        With packets exactly 1/1024 s apart and 0.125 s epochs (both
        exact in binary floating point), every epoch spans exactly 128
        packets; the boundary packet opens the next epoch.  The old
        accounting dropped the boundary packet from both epochs, so
        each epoch under-counted by one and the measured rate skewed
        low.
        """
        from repro.telemetry import Telemetry

        config = NitroConfig(
            probability=0.5,
            mode=NitroMode.ALWAYS_LINE_RATE,
            adaptation_epoch_seconds=0.125,
        )
        controller = AlwaysLineRateController(config)
        controller.telemetry = Telemetry()
        spacing = 1.0 / 1024.0
        for i in range(3 * 128 + 50):
            controller.on_packet(i * spacing)
        events = controller.telemetry.spans.spans(name="nitro.epoch")
        assert len(events) == 3
        expected_rate = 128 / 0.125 / 1e6
        assert [event.fields["rate_mpps"] for event in events] == [expected_rate] * 3
        # The in-flight epoch holds its opening (boundary) packet plus
        # the 49 that followed.
        assert controller.getstate()["epoch_packets"] == 50

    def test_state_roundtrip(self):
        config = NitroConfig(
            probability=0.25,
            mode=NitroMode.ALWAYS_LINE_RATE,
            adaptation_epoch_seconds=0.125,
        )
        source = AlwaysLineRateController(config)
        for i in range(300):
            source.on_packet(i / 1024.0)
        clone = AlwaysLineRateController(config)
        clone.setstate(source.getstate())
        for i in range(300, 600):
            assert clone.on_packet(i / 1024.0) == source.on_packet(i / 1024.0)
        assert clone.getstate() == source.getstate()


class TestBatchEpochDiscipline:
    def _controller(self, probability=0.01, epoch=0.1):
        config = NitroConfig(
            probability=probability,
            mode=NitroMode.ALWAYS_LINE_RATE,
            adaptation_epoch_seconds=epoch,
        )
        return AlwaysLineRateController(config)

    def test_sub_epoch_batches_accumulate(self):
        """Regression: sub-epoch batches must accumulate into one epoch
        instead of producing one noisy rate evaluation each."""
        from repro.telemetry import Telemetry

        controller = self._controller()
        controller.telemetry = Telemetry()
        # Three 40 ms batches: the first two sit inside the open epoch.
        assert controller.on_batch(1_000, 0.04) is None
        assert controller.on_batch(1_000, 0.04) is None
        assert len(controller.telemetry.spans.spans(name="nitro.epoch")) == 0
        # The third crosses 100 ms: one epoch, rate 3000/0.12 = 25 kpps,
        # which maps to p = 1.0 (far below the 0.625 Mpps budget).
        assert controller.on_batch(1_000, 0.04) == 1.0
        events = controller.telemetry.spans.spans(name="nitro.epoch")
        assert len(events) == 1
        assert events[0].fields["rate_mpps"] == pytest.approx(0.025)
        # The accumulators restart with the new epoch.
        state = controller.getstate()
        assert state["batch_packets"] == 0
        assert state["batch_elapsed"] == 0.0

    def test_epoch_count_matches_elapsed_time(self):
        from repro.telemetry import Telemetry

        controller = self._controller()
        controller.telemetry = Telemetry()
        for _ in range(120):
            controller.on_batch(1_000, 0.01)
        events = controller.telemetry.spans.spans(name="nitro.epoch")
        # 1.2 s of accumulated batch time over 0.1 s epochs; float
        # accumulation can stretch an epoch by one 10 ms batch, so 10-12
        # epochs close -- far from the 120 the per-batch bug produced.
        assert 10 <= len(events) <= 12

    def test_batch_accumulator_state_roundtrip(self):
        source = self._controller()
        source.on_batch(1_000, 0.04)  # mid-epoch
        clone = self._controller()
        clone.setstate(source.getstate())
        for _ in range(4):
            assert clone.on_batch(1_000, 0.04) == source.on_batch(1_000, 0.04)
        assert clone.getstate() == source.getstate()

    def test_setstate_accepts_pre_accumulator_checkpoints(self):
        """Old checkpoints have no batch accumulator keys; they restore
        with fresh accumulators instead of raising."""
        source = self._controller()
        state = source.getstate()
        del state["batch_packets"]
        del state["batch_elapsed"]
        clone = self._controller()
        clone.setstate(state)
        assert clone.getstate()["batch_packets"] == 0
        assert clone.getstate()["batch_elapsed"] == 0.0

    def test_reset_restores_constructed_state(self):
        """Regression: reset must clear ``current_probability`` and the
        epoch/batch accumulators, or the no-change short-circuit strands
        a reset sketch at the stale p."""
        controller = self._controller(probability=0.5)
        controller.on_packet(0.0)
        # 4 Mpps: 0.625 / 4 sits between rungs, snapping down to 1/8.
        assert controller.on_batch(400_000, 0.1) == 1 / 8
        controller.on_batch(1_000, 0.04)  # leave a partial epoch behind
        controller.reset()
        fresh = self._controller(probability=0.5)
        assert controller.current_probability == 0.5
        assert controller.getstate() == fresh.getstate()
        # Post-reset adaptation behaves exactly like a fresh controller's.
        assert controller.on_batch(400_000, 0.1) == 1 / 8
