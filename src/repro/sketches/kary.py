"""K-ary sketch for change detection (Krishnamurthy et al. 2003, ref [51]).

Structurally a ``d x w`` unsigned counter grid, but the point estimator
removes the per-bucket background mass:

    est_i(x) = (C[i][h_i(x)] - m/w) / (1 - 1/w),      est = median_i est_i

where ``m`` is the total stream weight.  This unbiased estimator is what
lets the K-ary sketch detect *heavy changers*: build one sketch per epoch,
subtract (the structure is linear), and query the difference sketch.

The paper runs K-ary as one of the four NitroSketch-accelerated sketches
(10 rows x 51200 counters / 2 MB, Section 7 parameters) and uses it for
the change-detection task in Figure 12.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.kernels.median import lower_median_rows
from repro.sketches.base import CanonicalSketch


class KArySketch(CanonicalSketch):
    """K-ary sketch: unsigned updates, mean-corrected median query."""

    def __init__(
        self, depth: int, width: int, seed: int = 0, hash_family: str = "multiply_shift"
    ) -> None:
        super().__init__(depth, width, seed, signed=False, hash_family=hash_family)
        self.total = 0.0

    def row_update(self, row: int, key: int, increment: float) -> None:
        # All updates (vanilla and NitroSketch row-sampled) flow through
        # here.  Each row sees an unbiased p^-1-scaled share of the stream,
        # so accumulating increment/depth keeps E[total] equal to the true
        # stream weight under both update disciplines.
        super().row_update(row, key, increment)
        self.total += increment / self.depth

    def update_batch(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        count_packets: bool = True,
        duration_seconds: Optional[float] = None,
    ) -> None:
        keys = np.asarray(keys)
        super().update_batch(keys, weights, count_packets=count_packets)
        if weights is None:
            self.total += float(len(keys))
        else:
            self.total += float(np.sum(weights))

    def note_batch_mass(self, mass: float) -> None:
        # Each row_update would have added increment/depth; a batch that
        # applied ``mass`` total increments contributes mass/depth.
        self.total += mass / self.depth

    def merge(self, other: "KArySketch") -> None:
        """Add the other sketch's counters and its stream-mass total."""
        super().merge(other)
        self.total += other.total

    def combine_rows(self, estimates: List[float]) -> float:
        ordered = sorted(estimates)
        return ordered[(len(ordered) - 1) // 2]

    def _combine_rows_batch(self, estimates: "np.ndarray") -> "np.ndarray":
        return lower_median_rows(estimates)

    def row_estimate(self, row: int, key: int) -> float:
        bucket = self.row_hashes[row](key)
        raw = self.counters[row, bucket]
        if self.width == 1:
            return raw
        return (raw - self.total / self.width) / (1.0 - 1.0 / self.width)

    def query_batch(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorised mean-corrected point queries.

        Mirrors the scalar path exactly, including its op accounting:
        K-ary's ``row_estimate`` reads counters without billing a hash
        (the correction reuses the update-time hash values), so the
        batch variant bills nothing either.
        """
        keys = np.asarray(keys)
        if len(keys) == 0:
            return np.zeros(0, dtype=np.float64)
        raw = self.kernel.estimate_matrix(keys)
        if self.width > 1:
            raw = (raw - self.total / self.width) / (1.0 - 1.0 / self.width)
        return self._combine_rows_batch(raw)

    def difference(self, other: "KArySketch") -> "KArySketch":
        """Return the (self - other) sketch for change detection.

        Both sketches must share seed and shape.  The result's queries
        estimate ``f_x(self) - f_x(other)``.
        """
        if (
            other.depth != self.depth
            or other.width != self.width
            or other.seed != self.seed
        ):
            raise ValueError("can only subtract sketches with identical configuration")
        diff = KArySketch(self.depth, self.width, self.seed)
        diff.counters = self.counters - other.counters
        diff.total = self.total - other.total
        return diff

    def check_invariants(self) -> List[str]:
        """Mass conservation on top of the base structural checks.

        Every update path (scalar ``row_update``, the fused batch kernel
        plus :meth:`note_batch_mass`, merges and differences) must keep
        ``total == sum(counters) / depth`` -- each row absorbs the full
        stream mass, and ``total`` accumulates a ``1/depth`` share per
        row touch.  A drifting total silently biases every mean-corrected
        estimate.
        """
        violations = super().check_invariants()
        counter_mass = float(np.sum(self.counters)) / self.depth
        tolerance = 1e-6 * max(1.0, abs(counter_mass))
        if abs(self.total - counter_mass) > tolerance:
            violations.append(
                "kary: tracked total %.9g != counter mass %.9g (tol %.3g)"
                % (self.total, counter_mass, tolerance)
            )
        return violations

    def reset(self) -> None:
        super().reset()
        self.total = 0.0
