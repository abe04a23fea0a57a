"""Misra-Gries frequent-items summary (Misra & Gries 1982, paper ref [63]).

Maintains at most ``k`` (key, counter) pairs.  A hit increments the key's
counter; a miss either claims a free slot or decrements *all* counters
(the classic "kick-out") -- guaranteeing ``f_x - m/(k+1) <= est <= f_x``.

Included as a substrate because SketchVisor's fast path (paper ref [43],
reimplemented in :mod:`repro.baselines.sketchvisor`) is "an improved
Misra-Gries algorithm" (Section 3), and because it is the textbook
deterministic heavy-hitter baseline.

The decrement step is implemented with a lazy global offset so the
amortised update cost stays O(1) rather than O(k).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sketches.base import Sketch


class MisraGries(Sketch):
    """Deterministic heavy-hitter summary with at most ``k`` counters."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        self.k = k
        self._counters: Dict[int, float] = {}
        #: Total weight removed by decrement steps (the MG error bound).
        self.decrement_total = 0.0

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        self.ops.packet()
        self.ops.table_lookup()
        counters = self._counters
        if key in counters:
            counters[key] += weight
            self.ops.counter_update()
            return
        if len(counters) < self.k:
            counters[key] = weight
            self.ops.counter_update()
            return
        # Kick-out: decrement everyone by the smallest amount that frees a
        # slot (min(weight, current minimum)); evict zeroed keys.
        decrement = min(weight, min(counters.values()))
        self.decrement_total += decrement
        for tracked in list(counters.keys()):
            counters[tracked] -= decrement
            if counters[tracked] <= 0:
                del counters[tracked]
        self.ops.counter_update(len(counters) + 1)
        remaining = weight - decrement
        if remaining > 0 and len(counters) < self.k:
            counters[key] = remaining
            self.ops.counter_update()

    def query(self, key: int) -> float:
        """Lower-bound estimate of ``f_x`` (0 for untracked keys)."""
        return self._counters.get(key, 0.0)

    def items(self) -> List[Tuple[int, float]]:
        """Tracked (key, estimate) pairs, largest first."""
        return sorted(self._counters.items(), key=lambda item: (-item[1], item[0]))

    def memory_bytes(self) -> int:
        return self.k * 16

    def reset(self) -> None:
        self._counters.clear()
        self.decrement_total = 0.0
