"""SketchVisor (Huang et al., SIGCOMM 2017, paper ref [43]).

SketchVisor splits measurement into:

* a **normal path** -- the user's sketch (we use UnivMon, as the paper's
  comparison does), accurate but slow; and
* a **fast path** -- a small hash table driven by an *improved
  Misra-Gries* algorithm that absorbs packets whenever the normal path's
  queue backs up.

The fast path is Misra-Gries with the lazy-decrement improvement: a
global ``base`` offset stands in for MG's "decrement every counter"
step, so kick-outs are amortised O(1) (the role of the extra per-entry
counters in the SketchVisor paper is played by ``stored`` vs ``base``).
A flow's residual ``stored - base`` is a guaranteed lower bound on its
size; ``base`` bounds the undercount, and estimates report the midpoint
``residual + base/2``.  At the end of an epoch the control plane
*merges*: every fast-path flow's counts are added into the normal
path's estimates (the computationally intensive recovery step the
NitroSketch paper calls out in Section 4.3).

Robustness caveat reproduced here (paper Figures 13a/14): when a large
fraction of traffic takes the fast path on heavy-tailed traces, accuracy
degrades -- mice flows churn the table and the ``e`` error grows.

The source code of the original is not public; like the NitroSketch
authors, we reimplement the fast path from its published description.
"""

from __future__ import annotations

import heapq

from typing import Dict, List, Optional, Tuple

from repro.hashing.prng import XorShift64Star
from repro.metrics.opcount import NULL_OPS
from repro.sketches.base import Monitor
from repro.sketches.univmon import UnivMon


class FastPathEntry:
    """A resolved fast-path entry view: (estimate, bounds).

    The table itself stores one absolute counter per key plus a global
    decrement base (the lazy-decrement trick that makes Misra-Gries
    amortised O(1)); this view materialises the derived quantities.
    """

    __slots__ = ("residual", "max_error")

    def __init__(self, residual: float, max_error: float) -> None:
        self.residual = residual
        self.max_error = max_error

    def estimate(self) -> float:
        """Midpoint estimate: residual + half the maximum undercount."""
        return self.residual + self.max_error / 2.0

    def guaranteed(self) -> float:
        """Lower bound on the flow's true size (the MG residual)."""
        return self.residual


class SketchVisor(Monitor):
    """Fast path + normal path with control-plane merge.

    Parameters
    ----------
    fast_entries:
        Fast-path table capacity ``k`` (paper evaluation: 900 counters).
    normal_path:
        The accurate sketch; defaults to a UnivMon instance.
    fast_fraction:
        Fraction of packets routed to the fast path.  The NitroSketch
        evaluation drives this explicitly (20% / 50% / 100%) because the
        fast path only engages under load; we expose the same knob.
    """

    def __init__(
        self,
        fast_entries: int = 900,
        normal_path: Optional[UnivMon] = None,
        fast_fraction: float = 1.0,
        seed: int = 0,
    ) -> None:
        if fast_entries < 1:
            raise ValueError("fast_entries must be >= 1")
        if not 0.0 <= fast_fraction <= 1.0:
            raise ValueError("fast_fraction must be in [0, 1]")
        self.fast_entries = fast_entries
        self.fast_fraction = fast_fraction
        self.normal = normal_path if normal_path is not None else UnivMon(
            levels=8, depth=5, widths=2048, k=100, seed=seed
        )
        self._ops = NULL_OPS
        # Absolute counters; a key's MG residual is ``stored - base``.
        self._table: Dict[int, float] = {}
        # Lazy min-heap of (stored, key) snapshots for O(log k) slot
        # recycling; stale snapshots are refreshed on pop.
        self._eviction_heap: List[Tuple[float, int]] = []
        # Global decrement offset: MG's "decrement every counter" becomes
        # ``base += weight`` (the improved, amortised-O(1) variant).
        self._base = 0.0
        self._rng = XorShift64Star(seed ^ 0xFA57)
        self.fast_packets = 0
        self.normal_packets = 0
        self._merged: Optional[Dict[int, float]] = None

    @property
    def ops(self):
        """Operation sink; assigning it propagates to the normal path too."""
        return self._ops

    @ops.setter
    def ops(self, sink) -> None:
        self._ops = sink
        self.normal.ops = sink

    # -- data plane -----------------------------------------------------------

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        """Route one packet to the fast or normal path."""
        self._merged = None
        if self.fast_fraction >= 1.0 or (
            self.fast_fraction > 0.0 and self._rng.next_float() < self.fast_fraction
        ):
            self._fast_update(key, weight)
        else:
            self.normal_packets += 1
            self.normal.update(key, weight)

    def _fast_update(self, key: int, weight: float) -> None:
        self.fast_packets += 1
        self.ops.packet()
        # SketchVisor hands every packet through a FIFO into the
        # measurement path (Section 7.4 uses the same buffer as our
        # separate-thread NitroSketch); bill the header copy.
        self.ops.memcpy()
        self.ops.hash()
        self.ops.table_lookup()
        stored = self._table.get(key)
        if stored is not None:
            if stored <= self._base:
                # Zombie entry (decremented to zero): re-admit.
                stored = self._base
            self._table[key] = stored + weight
            heapq.heappush(self._eviction_heap, (stored + weight, key))
            self.ops.counter_update()
            return
        if len(self._table) < self.fast_entries:
            self._table[key] = self._base + weight
            heapq.heappush(self._eviction_heap, (self._base + weight, key))
            self.ops.counter_update()
            return
        # Table full: recycle a decremented-to-zero slot if one exists,
        # otherwise run MG's decrement-all (base += weight) and absorb the
        # packet -- the kick-out operation of the improved algorithm.
        zombie = self._pop_zombie()
        if zombie is not None:
            del self._table[zombie]
            self._table[key] = self._base + weight
            heapq.heappush(self._eviction_heap, (self._base + weight, key))
            self.ops.counter_update(2)
        else:
            self._base += weight
            self.ops.counter_update()
        self.ops.heap_op()

    def _pop_zombie(self) -> Optional[int]:
        """Return a key whose counter fell to/below the decrement base."""
        while self._eviction_heap:
            stored, key = self._eviction_heap[0]
            current = self._table.get(key)
            if current is None:
                heapq.heappop(self._eviction_heap)  # already recycled
                continue
            if current > stored:
                # Snapshot is stale: drop it (a fresher one exists).
                heapq.heappop(self._eviction_heap)
                continue
            if current <= self._base:
                heapq.heappop(self._eviction_heap)
                return key
            return None
        return None

    def fast_entry(self, key: int) -> Optional[FastPathEntry]:
        """Materialise the (residual, max_error) view of a tracked flow."""
        stored = self._table.get(key)
        if stored is None or stored <= self._base:
            return None
        return FastPathEntry(stored - self._base, self._base)

    # -- control plane ----------------------------------------------------------

    def merge(self) -> Dict[int, float]:
        """Merge fast-path state into normal-path estimates (end of epoch).

        Returns the merged per-flow estimates for every flow known to
        either path.  This models SketchVisor's SDN-controller recovery
        step; its cost is why the NitroSketch paper notes the approach is
        "computationally intensive" for the control plane.
        """
        if self._merged is not None:
            return self._merged
        merged: Dict[int, float] = {}
        for key in self._table:
            entry = self.fast_entry(key)
            if entry is not None:
                merged[key] = entry.estimate()
        for key, estimate in self.normal.sketches[0].top_items():
            merged[key] = merged.get(key, 0.0) + estimate
        self._merged = merged
        return merged

    def query(self, key: int) -> float:
        """Merged estimate for one flow."""
        merged = self.merge()
        if key in merged:
            return merged[key]
        if self.normal_packets > 0:
            return self.normal.query(key)
        return 0.0

    def heavy_hitters(self, threshold: float) -> List[Tuple[int, float]]:
        """Flows detected above ``threshold``, with merged estimates.

        Detection gates on each fast-path entry's *guaranteed* count
        (``count - error``) so churn-inflated mice are not reported as
        heavy -- without this the Space-Saving upper bounds would flood
        the detected set with false positives whose relative error is
        unbounded.  Reported estimates remain the midpoint estimates.
        """
        merged = self.merge()
        hitters = []
        for key, estimate in merged.items():
            entry = self.fast_entry(key)
            if entry is not None:
                normal_part = estimate - entry.estimate()
                gate = entry.guaranteed() + normal_part
            else:
                gate = estimate
            if gate > threshold:
                hitters.append((key, estimate))
        hitters.sort(key=lambda item: (-item[1], item[0]))
        return hitters

    # -- bookkeeping -------------------------------------------------------------

    def memory_bytes(self) -> int:
        fast = self.fast_entries * 3 * 8  # three counters per entry
        return fast + self.normal.memory_bytes()

    def reset(self) -> None:
        self._table.clear()
        self._eviction_heap.clear()
        self._base = 0.0
        self.fast_packets = 0
        self.normal_packets = 0
        self._merged = None
        self.normal.reset()
