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

from repro.hashing import key_array
from repro.sketches.base import CanonicalSketch, Monitor
from repro.sketches.topk import TopK


class TrackedSketch(Monitor):
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
        """Update all rows and offer the fresh estimate to the heap."""
        estimate = self.sketch.update_and_estimate(key, weight)
        self.topk.offer(key, estimate)

    def update_batch(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        duration_seconds: Optional[float] = None,
    ) -> None:
        """Vectorised ingest; the heap is refreshed with final estimates."""
        keys = np.asarray(keys)
        if len(keys) == 0:
            return
        self.sketch.update_batch(keys, weights)
        # Scalar ingest probes the top-keys table once per packet.
        self.topk.offer_distinct(keys, self.sketch.query_batch, len(keys))

    def query(self, key: int) -> float:
        return self.sketch.query(key)

    def heavy_hitters(self, threshold: float) -> List[Tuple[int, float]]:
        """Tracked flows with a fresh estimate above ``threshold``."""
        tracked = list(self.topk.keys())
        if not tracked:
            return []
        estimates = self.sketch.query_batch(key_array(tracked))
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
