"""Per-flow hash-table monitoring (Alipourfard et al. [1, 2], "Small-HT").

The simplest possible monitor: one exact counter per flow in a hash
table.  On skewed traffic with few flows this is both exact and fast --
which is precisely the argument of [1, 2] -- but it is *not robust*
(paper Section 2): the table grows with the number of flows, falls out of
the last-level cache, and every update then takes a DRAM miss
(Figure 3a's throughput collapse past ~1M flows).  Memory and operation
counts are tracked so the cost model reproduces that collapse.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sketches.base import Sketch

#: Bytes per table entry: 13 B five-tuple key padded + 8 B counter +
#: pointer/overhead, matching a compact C open-addressing table.
ENTRY_BYTES = 32


class HashTableMonitor(Sketch):
    """Exact per-flow counters in a dictionary."""

    def __init__(self) -> None:
        self._table: Dict[int, float] = {}

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        self.ops.packet()
        self.ops.hash()
        self.ops.table_lookup()
        self.ops.counter_update()
        self._table[key] = self._table.get(key, 0.0) + weight

    def query(self, key: int) -> float:
        return self._table.get(key, 0.0)

    def flow_count(self) -> int:
        """Number of distinct flows currently tracked (exact)."""
        return len(self._table)

    def heavy_hitters(self, threshold: float) -> List[Tuple[int, float]]:
        """All flows above an absolute packet-count threshold (exact)."""
        hitters = [
            (key, count) for key, count in self._table.items() if count > threshold
        ]
        hitters.sort(key=lambda item: (-item[1], item[0]))
        return hitters

    def memory_bytes(self) -> int:
        """Working-set size -- the quantity that breaks LLC residency."""
        return len(self._table) * ENTRY_BYTES

    def reset(self) -> None:
        self._table.clear()
