"""Strawman 2: uniform packet sampling in front of a sketch (Section 4.1).

"Run sketch only over sampled packets": flip one coin per packet with
probability ``p``; sampled packets update *all* rows of the underlying
sketch, and queries are scaled by ``p**-1``.  The paper's Appendix B
proves this needs asymptotically more space than NitroSketch's
counter-array sampling for the same guarantee --
``Omega(eps^-2 p^-1 log(1/delta) + eps^-2 p^-1.5 m^-0.5 log^1.5(1/delta))``
-- because all rows see the *same* sampled substream, whose L2 inflation
is correlated across rows.

This class is the experimental counterpart of that analysis and the
ablation baseline for Idea A.  It also demonstrates the per-packet PRNG
cost the geometric trick removes: one ``prng_draw`` is recorded per
packet regardless of the sampling outcome.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hashing.prng import XorShift64Star
from repro.sketches.base import CanonicalSketch, Monitor


class UniformSampledSketch(Monitor):
    """Uniform per-packet sampling wrapper around a canonical sketch.

    Parameters
    ----------
    sketch:
        The wrapped canonical sketch (all rows updated per sampled packet).
    probability:
        Per-packet sampling probability ``p``.
    scale_updates:
        When True (default) each sampled update is pre-scaled by ``p**-1``
        so queries read directly in stream units; when False the scaling
        happens at query time instead.  Both are unbiased.
    """

    def __init__(
        self,
        sketch: CanonicalSketch,
        probability: float,
        seed: int = 0,
        scale_updates: bool = True,
    ) -> None:
        if not 0 < probability <= 1:
            raise ValueError("probability must be in (0, 1], got %r" % (probability,))
        self.sketch = sketch
        self.probability = probability
        self.scale_updates = scale_updates
        self._rng = XorShift64Star(seed or 0x5EED)
        self.packets_seen = 0
        self.packets_sampled = 0

    @property
    def ops(self):
        return self.sketch.ops

    @ops.setter
    def ops(self, sink) -> None:
        self.sketch.ops = sink

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        """One coin flip per packet; sampled packets pay the full d-row cost."""
        self.packets_seen += 1
        self.ops.packet()
        self.ops.prng()
        if self._rng.next_float() >= self.probability:
            return
        self.packets_sampled += 1
        scale = 1.0 / self.probability if self.scale_updates else 1.0
        for row in range(self.sketch.depth):
            self.sketch.row_update(row, key, weight * scale)

    def update_batch(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        duration_seconds: Optional[float] = None,
    ) -> None:
        """Vectorised variant: one uniform draw per packet, then batch update."""
        keys = np.asarray(keys)
        count = len(keys)
        self.packets_seen += count
        self.ops.packet(count)
        self.ops.prng(count)
        draws = np.array([self._rng.next_float() for _ in range(count)])
        mask = draws < self.probability
        sampled = keys[mask]
        self.packets_sampled += int(np.count_nonzero(mask))
        if len(sampled) == 0:
            return
        scale = 1.0 / self.probability if self.scale_updates else 1.0
        if weights is None:
            batch_weights = np.full(len(sampled), scale)
        else:
            batch_weights = np.asarray(weights, dtype=np.float64)[mask] * scale
        # The batch is already billed as packets above; the inner update
        # must not recount the sampled subset.
        self.sketch.update_batch(sampled, batch_weights, count_packets=False)

    def query(self, key: int) -> float:
        estimate = self.sketch.query(key)
        if self.scale_updates:
            return estimate
        return estimate / self.probability

    def memory_bytes(self) -> int:
        return self.sketch.memory_bytes()

    def reset(self) -> None:
        self.sketch.reset()
        self.packets_seen = 0
        self.packets_sampled = 0
