"""Geometric sampling of counter-array slots (paper Idea B, Figure 5).

Uniformly sampling each (packet, row) slot with probability ``p`` is
mathematically equivalent to drawing, after each sampled slot, a
Geometric(p) variate telling how many slots to skip until the next one.
The win is operational: unsampled slots cost a single integer decrement
instead of a PRNG draw, which is what lets NitroSketch pass 40 GbE where
per-packet coin flips cannot (Section 4.1, Strawman 2 lesson).

:class:`GeometricSampler` draws the variates with the inverse-CDF method
``G = floor(ln U / ln(1 - p)) + 1`` over a deterministic xorshift64*
stream, and degrades gracefully to "every slot" at ``p = 1``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.hashing.prng import XorShift64Star
from repro.metrics.opcount import NULL_OPS
from repro.telemetry import NULL_TELEMETRY


class GeometricSampler:
    """Draws Geometric(p) inter-sample gaps (support {1, 2, 3, ...}).

    The sampling probability can be changed at any time (the adaptive
    modes do); draws made after the change use the new ``p``.
    """

    def __init__(self, probability: float, seed: int = 0) -> None:
        self.ops = NULL_OPS
        self.telemetry = NULL_TELEMETRY
        self._seed = seed
        self._rng = XorShift64Star(seed or 0x9E3779B97F4A7C15)
        self._log1m: float = 0.0
        self._probability: float = 1.0
        self.set_probability(probability)

    def reset(self, probability: Optional[float] = None) -> None:
        """Reseed the PRNG to its initial cursor (and optionally reset ``p``).

        After ``reset`` the sampler replays exactly the gap sequence a
        freshly-constructed sampler with the same seed would draw --
        the contract :meth:`NitroSketch.reset` relies on for
        reset-equals-fresh equivalence.
        """
        self._rng = XorShift64Star(self._seed or 0x9E3779B97F4A7C15)
        if probability is not None:
            self.set_probability(probability)

    @property
    def probability(self) -> float:
        """Current per-slot sampling probability ``p``."""
        return self._probability

    def set_probability(self, probability: float) -> None:
        """Change ``p``; affects draws made from now on."""
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1], got %r" % (probability,))
        self._probability = probability
        self._log1m = math.log1p(-probability) if probability < 1.0 else 0.0
        self.telemetry.gauge("nitro_sampling_probability", probability)

    def next_gap(self) -> int:
        """Slots until (and including) the next sampled slot.

        Returns 1 with probability ``p``, 2 with ``p(1-p)``, etc.  At
        ``p = 1`` every slot is sampled and no PRNG draw is made -- the
        AlwaysCorrect warm-up therefore costs zero sampling overhead.
        """
        if self._probability >= 1.0:
            return 1
        self.ops.prng()
        self.telemetry.count("nitro_geometric_draws_total")
        u = self._rng.next_float()
        # Guard the measure-zero u == 0 case (log would be -inf).
        while u <= 0.0:
            u = self._rng.next_float()
        return int(math.log(u) / self._log1m) + 1

    def gaps_batch(self, count: int) -> "np.ndarray":
        """Draw ``count`` gaps at once (used by the buffered batch path)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if self._probability >= 1.0:
            return np.ones(count, dtype=np.int64)
        self.ops.prng(count)
        self.telemetry.count("nitro_geometric_draws_total", count)
        uniforms = self._rng.fill_floats(count)
        uniforms = np.clip(uniforms, np.finfo(np.float64).tiny, None)
        return (np.log(uniforms) / self._log1m).astype(np.int64) + 1

    def expected_gap(self) -> float:
        """Mean inter-sample gap, ``1/p``."""
        return 1.0 / self._probability

    def getstate(self) -> dict:
        """Snapshot probability + PRNG cursor (for checkpointing)."""
        return {"probability": self._probability, "rng": self._rng.getstate()}

    def setstate(self, state: dict) -> None:
        """Restore a snapshot from :meth:`getstate`; replays identically."""
        self.set_probability(float(state["probability"]))
        self._rng.setstate(int(state["rng"]))


#: Below this ``p`` numpy's ``Generator.geometric`` draws by inversion,
#: ``ceil(E / -log1p(-p))`` for a standard exponential ``E``; at and
#: above it, it uses a sequential search.
_INVERSION_LIMIT = 1.0 / 3.0


def geometric_gaps(
    probability: float, size: int, rng: "np.random.Generator"
) -> "np.ndarray":
    """``size`` Geometric(p) gaps as int64: the draws
    ``Generator.geometric`` would make from ``rng``, draw for draw.

    Below ``p = 1/3`` this is numpy's own inversion method written as
    whole-array operations, so it leaves ``rng`` in the same state and
    returns the same values while skipping numpy's per-element dispatch
    (about half the time for 8k draws).  At and above ``1/3``, where
    numpy switches to its search method, it calls ``Generator.geometric``.
    """
    if probability >= _INVERSION_LIMIT:
        return rng.geometric(probability, size=size)
    draws = rng.standard_exponential(size)
    draws /= -math.log1p(-probability)
    np.ceil(draws, out=draws)
    return draws.astype(np.int64)


def geometric_positions(
    probability: float, total_slots: int, rng: "np.random.Generator"
):
    """Vectorised geometric slot sampling over ``[0, total_slots)``.

    Simulates the slot process "skip Geometric(p)-1 slots, sample one,
    repeat" from a fresh start and returns ``(positions, leftover)``:

    * ``positions`` -- int64 array of sampled slot indices ``< total_slots``
      (the first sampled slot is ``G1 - 1`` for the first gap ``G1``);
    * ``leftover`` -- how many slots of the *next* range to skip before its
      first sample, i.e. ``first_position_beyond - total_slots``.

    This is the fully vectorised path used by
    :meth:`repro.core.nitro.NitroSketch.update_batch` (Idea D): one bulk
    RNG call (:func:`geometric_gaps`) replaces ~``p * total_slots``
    scalar draws.
    """
    if not 0.0 < probability <= 1.0:
        raise ValueError("probability must be in (0, 1], got %r" % (probability,))
    if total_slots < 0:
        raise ValueError("total_slots must be non-negative")
    if probability >= 1.0:
        return np.arange(total_slots, dtype=np.int64), 0
    expected = probability * total_slots
    # Overshoot by 6 sigma so one bulk draw almost always covers the range.
    budget = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 2
    positions = np.cumsum(geometric_gaps(probability, budget, rng)) - 1
    while positions[-1] < total_slots:
        extra = np.cumsum(geometric_gaps(probability, budget, rng)) + positions[-1]
        positions = np.concatenate([positions, extra])
    # Gaps are >= 1, so positions ascend strictly.
    inside = int(np.searchsorted(positions, total_slots))
    return positions[:inside], int(positions[inside]) - total_slots
