"""A canonical sketch bundled with a top-k key store.

Vanilla sketches answer point queries but cannot *enumerate* heavy
flows; deployments therefore pair them with a TopKeys structure
(paper Section 3, Bottleneck 3).  :class:`TrackedSketch` is that
pairing for any canonical sketch -- the vanilla counterpart of what
:class:`repro.core.NitroSketch` provides internally, and the unit the
throughput figures run when they say "Count-Min Sketch" or "K-ary".
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.sketches.base import CanonicalSketch
from repro.sketches.topk import TopK


class TrackedSketch:
    """``sketch + TopK``: per-packet update, estimate, heap offer."""

    def __init__(self, sketch: CanonicalSketch, k: int = 100) -> None:
        self.sketch = sketch
        self.topk = TopK(k)

    @property
    def ops(self):
        return self.sketch.ops

    @ops.setter
    def ops(self, sink) -> None:
        self.sketch.ops = sink
        self.topk.ops = sink

    @property
    def depth(self) -> int:
        return self.sketch.depth

    def update(
        self, key: int, weight: float = 1.0, timestamp: Optional[float] = None
    ) -> None:
        """Update all rows and offer the fresh estimate to the heap.

        ``timestamp`` is accepted (and ignored) so wrappers can drive
        this and NitroSketch through one call shape.
        """
        estimate = self.sketch.update_and_estimate(key, weight)
        self.topk.offer(key, estimate)

    def update_many(self, keys) -> None:
        for key in keys:
            self.update(key)

    def update_batch(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        duration_seconds: Optional[float] = None,
    ) -> None:
        """Vectorised ingest; the heap is refreshed with final estimates.

        ``duration_seconds`` is accepted (and ignored), as for ``update``.
        """
        keys = np.asarray(keys)
        if len(keys) == 0:
            return
        self.sketch.update_batch(keys, weights)
        unique = np.unique(keys)
        # Scalar ingest probes the top-keys table once per packet; the
        # batch path only offers distinct keys, so bill the difference to
        # keep operation counts faithful to the per-packet workflow.
        self.sketch.ops.table_lookup(len(keys) - len(unique))
        estimates = self.sketch.query_batch(unique)
        for key, estimate in zip(unique.tolist(), estimates.tolist()):
            self.topk.offer(int(key), float(estimate))

    def query(self, key: int) -> float:
        return self.sketch.query(key)

    def heavy_hitters(self, threshold: float) -> List[Tuple[int, float]]:
        """Tracked flows with a fresh estimate above ``threshold``."""
        tracked = list(self.topk.keys())
        if not tracked:
            return []
        estimates = self.sketch.query_batch(np.asarray(tracked))
        hitters = [
            (key, float(est))
            for key, est in zip(tracked, estimates.tolist())
            if est > threshold
        ]
        hitters.sort(key=lambda item: (-item[1], item[0]))
        return hitters

    def memory_bytes(self) -> int:
        return self.sketch.memory_bytes() + self.topk.memory_bytes()

    def reset(self) -> None:
        self.sketch.reset()
        self.topk.reset()
