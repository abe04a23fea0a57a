"""Count Sketch (Charikar, Chen & Farach-Colton 2002, paper ref [17]).

The canonical L2-guarantee sketch: signed ±1 updates, point query =
median over rows of ``C[i][h_i(x)] * g_i(x)``.  With ``w = O(1/eps**2)``
and ``d = O(log(1/delta))`` the estimate satisfies
``|est - f_x| <= eps * L2`` with probability ``1 - delta``.

Count Sketch also doubles as an AMS L2 estimator: the median across rows
of the sum of squared counters is a ``(1 +- eps)`` approximation of
``L2**2`` (used by AlwaysCorrect NitroSketch's convergence test and by
UnivMon's G-sum machinery).

Paper configuration: 5 rows x 10000 counters inside UnivMon (Figure 2),
5 x 102400 / 2 MB standalone (Section 7 parameters).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.kernels.median import lower_median_rows
from repro.sketches.base import CanonicalSketch


class CountSketch(CanonicalSketch):
    """Count Sketch: signed updates, median-of-rows query."""

    def __init__(
        self, depth: int, width: int, seed: int = 0, hash_family: str = "multiply_shift"
    ) -> None:
        super().__init__(depth, width, seed, signed=True, hash_family=hash_family)

    def combine_rows(self, estimates: List[float]) -> float:
        ordered = sorted(estimates)
        return ordered[(len(ordered) - 1) // 2]

    def _combine_rows_batch(self, estimates: "np.ndarray") -> "np.ndarray":
        # Lower median, matching combine_rows (np.median would average
        # the middle pair for even depths).
        return lower_median_rows(estimates)

    def l2_estimate(self) -> float:
        """``sqrt`` of the AMS median-of-rows L2² estimator."""
        return math.sqrt(max(self.l2_squared_estimate(), 0.0))

    @classmethod
    def from_error_bounds(cls, epsilon: float, delta: float, seed: int = 0) -> "CountSketch":
        """Size the sketch for an ``epsilon * L2`` error with prob. ``1-delta``.

        Uses the standard ``w = ceil(3 / eps**2)``, ``d = ceil(ln(1/delta))``
        sizing (constants per [17]).
        """
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1), got %r" % (epsilon,))
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1), got %r" % (delta,))
        width = int(math.ceil(3.0 / (epsilon * epsilon)))
        depth = max(1, int(math.ceil(math.log(1.0 / delta))))
        return cls(depth, width, seed)
