"""Count-Min Sketch (Cormode & Muthukrishnan 2005, paper ref [27]).

The canonical L1-guarantee sketch: ``d`` rows of ``w`` counters, unsigned
``+weight`` updates, point query = minimum over rows.  With
``w = ceil(e / eps)`` and ``d = ceil(ln(1/delta))`` the estimate satisfies
``f_x <= est <= f_x + eps*L1`` with probability ``1 - delta``.

The paper's evaluation configures CMS as 5 rows x 1000 counters
(Figure 2) or 5 x 10000 / 200 KB (Section 7 parameters).
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.sketches.base import CanonicalSketch, Monitor


class CountMinSketch(CanonicalSketch):
    """Count-Min Sketch: unsigned updates, min-of-rows query."""

    def __init__(
        self, depth: int, width: int, seed: int = 0, hash_family: str = "multiply_shift"
    ) -> None:
        super().__init__(depth, width, seed, signed=False, hash_family=hash_family)

    def combine_rows(self, estimates: List[float]) -> float:
        return min(estimates)

    def _combine_rows_batch(self, estimates: "np.ndarray") -> "np.ndarray":
        return estimates.min(axis=0)

    @classmethod
    def from_error_bounds(cls, epsilon: float, delta: float, seed: int = 0) -> "CountMinSketch":
        """Size the sketch for an ``epsilon * L1`` error with prob. ``1-delta``."""
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1), got %r" % (epsilon,))
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1), got %r" % (delta,))
        width = int(math.ceil(math.e / epsilon))
        depth = max(1, int(math.ceil(math.log(1.0 / delta))))
        return cls(depth, width, seed)


class ConservativeCountMinSketch(CountMinSketch):
    """Count-Min with conservative update (Estan & Varghese).

    Only raises the counters that currently equal the row minimum, which
    strictly reduces overestimation while preserving the ``est >= f_x``
    invariant.  Included as an optional-extension baseline: it shows the
    overestimation-bias effect the paper observes in Section 7.3 ("CMS
    achieves better-than-original results when NitroSketch is enabled...
    sampling corrects such an overestimation") from a different angle.

    Note: conservative update needs the current minimum across *all* rows
    before incrementing, so it is inherently a whole-packet (not per-row)
    operation and cannot be wrapped by NitroSketch's row sampling.
    """

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        self.ops.packet()
        buckets = [self.row_bucket(row, key) for row in range(self.depth)]
        values = [self.counters[row, bucket] for row, bucket in enumerate(buckets)]
        target = min(values) + weight
        for row, bucket in enumerate(buckets):
            if self.counters[row, bucket] < target:
                self.counters[row, bucket] = target
                self.ops.counter_update()

    def update_batch(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        count_packets: bool = True,
        duration_seconds: Optional[float] = None,
    ) -> None:
        """Feed :meth:`update` key by key: conservative update is sequential.

        The fused scatter-add would run plain Count-Min.  Nothing passes
        ``count_packets=False`` (NitroSketch cannot wrap this sketch), so
        every key is billed as a packet.
        """
        Monitor.update_batch(self, keys, weights)
