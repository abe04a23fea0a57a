"""Space-Saving heavy-hitter summary (Metwally et al. 2005, paper ref [61]).

The other classic deterministic HH algorithm (alongside Misra-Gries):
maintain ``k`` counters; a miss on a full table *overwrites* the
minimum-count entry, with the newcomer inheriting the victim's count as
its error bound.  Guarantees ``f_x <= est <= f_x + m/k`` -- an
over-estimating mirror image of MG's under-estimation.

Included as a substrate because [61] is among the heavy-hitter
algorithms the paper's task taxonomy cites, because the HHH baselines
([64]) are built from Space-Saving instances, and because it makes a
useful third point of comparison in the ablation benches (deterministic
per-key state vs randomized counter sharing).

Implemented with the same lazy min-heap trick as :class:`TopK` so
updates stay O(log k).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.sketches.base import Sketch


class SpaceSaving(Sketch):
    """Space-Saving: k counters, overwrite-the-minimum eviction."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        self.k = k
        self._counts: Dict[int, float] = {}
        self._errors: Dict[int, float] = {}
        self._heap: List[Tuple[float, int]] = []

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        self.ops.packet()
        self.ops.table_lookup()
        counts = self._counts
        if key in counts:
            counts[key] += weight
            heapq.heappush(self._heap, (counts[key], key))
            self.ops.counter_update()
            return
        if len(counts) < self.k:
            counts[key] = weight
            self._errors[key] = 0.0
            heapq.heappush(self._heap, (weight, key))
            self.ops.counter_update()
            return
        victim_key, victim_count = self._pop_min()
        del counts[victim_key]
        del self._errors[victim_key]
        counts[key] = victim_count + weight
        self._errors[key] = victim_count
        heapq.heappush(self._heap, (victim_count + weight, key))
        self.ops.heap_op()
        self.ops.counter_update(2)

    def _pop_min(self) -> Tuple[int, float]:
        """Pop the minimum-count entry, skipping stale heap snapshots."""
        while self._heap:
            count, key = heapq.heappop(self._heap)
            if self._counts.get(key) == count:
                return key, count
        raise RuntimeError("eviction requested on an empty Space-Saving table")

    def query(self, key: int) -> float:
        """Upper-bound estimate (0 for untracked keys)."""
        return self._counts.get(key, 0.0)

    def guaranteed(self, key: int) -> float:
        """Lower bound: count minus the inherited error."""
        if key not in self._counts:
            return 0.0
        return self._counts[key] - self._errors[key]

    def heavy_hitters(self, threshold: float) -> List[Tuple[int, float]]:
        """Keys whose guaranteed count exceeds ``threshold``, largest first."""
        hitters = [
            (key, self._counts[key])
            for key in self._counts
            if self.guaranteed(key) > threshold
        ]
        hitters.sort(key=lambda item: (-item[1], item[0]))
        return hitters

    def items(self) -> List[Tuple[int, float]]:
        """Tracked (key, count) pairs, largest first."""
        return sorted(self._counts.items(), key=lambda item: (-item[1], item[0]))

    def memory_bytes(self) -> int:
        return self.k * 24  # key + count + error

    def reset(self) -> None:
        self._counts.clear()
        self._errors.clear()
        self._heap.clear()
