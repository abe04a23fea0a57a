"""Top-k heavy-key store (the paper's "TopKeys" structure).

Sketches only hold anonymous counters; to *report* heavy hitters one must
also remember which keys are large (paper Section 3, Bottleneck 3).  The
standard implementation -- and the one profiled in Table 2 (``heap_find``,
``heapify``) -- is a min-heap of the current top-k keys alongside a
membership dictionary.

On every tracked update the caller offers ``(key, estimate)``; the store
admits the key if the estimate beats the current minimum.  Batch ingest
offers a whole sorted key set at once through :meth:`TopK.offer_batch`,
which touches the heap only for the keys that can change it.  Heap
operations are recorded in the ``ops`` sink so the cost model sees cost
``P``.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.kernels.distinct import sorted_distinct
from repro.metrics.opcount import NULL_OPS


#: Heap-size bound as a multiple of ``k``: once stale entries push the
#: heap past this, it is rebuilt from the live membership dict.
COMPACT_FACTOR = 4


class TopK:
    """Min-heap keyed store of the ``k`` (approximately) largest flows.

    Entries are lazily invalidated: re-offering a key pushes a fresh heap
    entry and marks the old one stale, which keeps offers O(log k) without
    a decrease-key primitive.  Stale entries cannot accumulate without
    bound: whenever the heap exceeds ``COMPACT_FACTOR * k`` entries it is
    compacted back to the live ``<= k`` set (amortised O(1) per offer).
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        self.k = k
        self.ops = NULL_OPS
        self._heap: List[Tuple[float, int]] = []
        self._best: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, key: int) -> bool:
        return key in self._best

    def offer(self, key: int, estimate: float) -> bool:
        """Offer a (key, estimate) pair; returns True if the key is tracked.

        Mirrors the sketch workflow in Figure 7: after updating counters,
        the estimated size of the current key is compared against the
        heap minimum.  The membership probe is billed as a table lookup
        (VTune's ``heap_find``); only actual heap modifications are
        billed as heap operations (``heapify``).  A non-finite estimate
        raises ``ValueError``: a NaN never equals itself, so its heap
        entry would read as stale and vanish.
        """
        if not math.isfinite(estimate):
            raise ValueError("TopK estimate must be finite, got %r" % (estimate,))
        return self._offer(key, estimate)

    def _offer(self, key: int, estimate: float) -> bool:
        """:meth:`offer` for an estimate already known to be finite."""
        self.ops.table_lookup()
        current = self._best.get(key)
        if current is not None:
            if estimate <= current:
                return True
            self._best[key] = estimate
            self._push(key, estimate)
            self.ops.heap_op()
            return True

        if len(self._best) < self.k:
            self._best[key] = estimate
            self._push(key, estimate)
            self.ops.heap_op()
            return True

        min_estimate, _ = self._peek_valid()
        if estimate <= min_estimate:
            return False

        # Evict the current minimum and admit the newcomer.
        _, evicted = self._pop_valid()
        del self._best[evicted]
        self._best[key] = estimate
        self._push(key, estimate)
        self.ops.heap_op(2)
        return True

    def offer_batch(self, keys: "np.ndarray", estimates: "np.ndarray") -> None:
        """Offer strictly ascending distinct ``keys`` with their estimates.

        Leaves the heap list, the dict's item order and every ``ops``
        field exactly as ``for key, est in zip(keys, estimates):
        offer(key, est)`` would, but walks only the keys that can change
        the store, in one loop that inlines :meth:`_offer`.

        While the store holds fewer than ``k`` keys (the fill), every key
        is admitted or re-offered, so the walk takes every key up to the
        untracked one that fills it.  From then on the live minimum never
        decreases and is at least ``floor``, the smaller of the heap top
        and the fill's new estimates, so an untracked key with
        ``estimate <= floor`` is rejected at its turn whatever came
        before it.  Such a reject only probes the table and pops stale
        entries off the heap top; popping them once per run of rejects,
        at the run's place in the sequence, replays that exactly.
        Tracked keys are always walked: a no-op re-offer must not pop
        stale entries.  Table probes and heap operations are billed once
        per call, in the scalar loop's totals.
        """
        keys = np.asarray(keys)
        estimates = np.asarray(estimates, dtype=np.float64)
        count = len(keys)
        if len(estimates) != count:
            raise ValueError(
                "offer_batch got %d keys but %d estimates" % (count, len(estimates))
            )
        if count > 1 and not bool(np.all(keys[1:] > keys[:-1])):
            raise ValueError("offer_batch keys must be strictly ascending")
        if not bool(np.isfinite(estimates).all()):
            raise ValueError("TopK estimates must be finite")
        if count == 0:
            return
        best = self._best
        k = self.k
        heap = self._heap
        # Every tracked key has a live heap entry, so the heap top bounds
        # the live minimum from below.  It is read without popping, since
        # the scalar loop may leave stale entries that checkpoints
        # serialize.
        floor = heap[0][0] if heap else math.inf
        tracked = np.zeros(count, dtype=bool)
        if best:
            stored = np.fromiter(best, dtype=keys.dtype, count=len(best))
            slots = keys[:-1].searchsorted(stored)  # always a valid index
            tracked[slots[keys[slots] == stored]] = True
        picked = tracked
        if len(best) < k:
            filling = np.flatnonzero(~tracked)[: k - len(best)]
            if len(filling):
                floor = min(floor, float(estimates[filling].min()))
                picked[: filling[-1] + 1] = True
        picked = np.flatnonzero(picked | (estimates > floor))
        get = best.get
        push = heapq.heappush
        pop = heapq.heappop
        bound = COMPACT_FACTOR * k
        heap_ops = 0
        expected = 0  # position right after the previous walked key
        for index, key, estimate in zip(
            picked.tolist(), keys[picked].tolist(), estimates[picked].tolist()
        ):
            if index != expected:
                # The rejects in between pop stale entries off the top.
                while get(heap[0][1]) != heap[0][0]:
                    pop(heap)
            expected = index + 1
            current = get(key)
            if current is not None:
                if estimate <= current:
                    continue
                heap_ops += 1
            elif len(best) < k:
                heap_ops += 1
            else:
                while get(heap[0][1]) != heap[0][0]:
                    pop(heap)
                smallest, evicted = heap[0]
                if estimate <= smallest:
                    continue
                pop(heap)
                del best[evicted]
                heap_ops += 2
            best[key] = estimate
            push(heap, (estimate, key))
            if len(heap) > bound:
                heap = [(value, tracked_key) for tracked_key, value in best.items()]
                heapq.heapify(heap)
                self._heap = heap
                heap_ops += 1
        if expected != count:
            while get(heap[0][1]) != heap[0][0]:
                pop(heap)
        self.ops.table_lookup(count)
        self.ops.heap_op(heap_ops)

    def offer_distinct(self, keys, estimate_batch, probes: int) -> None:
        """Offer each distinct value of ``keys`` once, with its estimate.

        ``estimate_batch`` maps the ascending distinct keys to their
        estimates (a sketch's ``query_batch``).  Scalar ingest probes the
        table once per offer, ``probes`` times in all; :meth:`offer_batch`
        bills one probe per distinct key, and the rest are billed here.
        """
        distinct = sorted_distinct(keys)
        self.ops.table_lookup(probes - len(distinct))
        self.offer_batch(distinct, estimate_batch(distinct))

    def _push(self, key: int, estimate: float) -> None:
        """Push a live entry, compacting if stale entries piled up."""
        heapq.heappush(self._heap, (estimate, key))
        if len(self._heap) > COMPACT_FACTOR * self.k:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from the live entries, dropping stale ones."""
        self._heap = [(estimate, key) for key, estimate in self._best.items()]
        heapq.heapify(self._heap)
        self.ops.heap_op()

    def _peek_valid(self) -> Tuple[float, int]:
        """Return the smallest non-stale heap entry without removing it."""
        while self._heap:
            estimate, key = self._heap[0]
            if self._best.get(key) == estimate:
                return estimate, key
            heapq.heappop(self._heap)  # stale entry
        raise IndexError("TopK heap is empty")

    def _pop_valid(self) -> Tuple[float, int]:
        """Pop the smallest non-stale entry."""
        while self._heap:
            estimate, key = heapq.heappop(self._heap)
            if self._best.get(key) == estimate:
                return estimate, key
        raise IndexError("TopK heap is empty")

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate over tracked ``(key, estimate)`` pairs (unordered)."""
        return iter(self._best.items())

    def keys(self) -> List[int]:
        """The tracked keys (unordered)."""
        return list(self._best.keys())

    def estimate(self, key: int) -> float:
        """The stored estimate for ``key`` (KeyError if untracked)."""
        return self._best[key]

    def ranked(self) -> List[Tuple[int, float]]:
        """Tracked pairs sorted by estimate, largest first."""
        return sorted(self._best.items(), key=lambda item: (-item[1], item[0]))

    def min_estimate(self) -> float:
        """The smallest tracked estimate (0.0 when empty)."""
        if not self._best:
            return 0.0
        return self._peek_valid()[0]

    def check_invariants(self) -> List[str]:
        """Heap/dict consistency checks; returns violation strings.

        * at most ``k`` tracked keys;
        * the heap never outgrows ``COMPACT_FACTOR * k`` entries (the
          compaction bound -- lazy invalidation alone grows without it);
        * every tracked key's current estimate has a live heap entry, so
          :meth:`min_estimate` / eviction can always find it.
        """
        violations: List[str] = []
        if len(self._best) > self.k:
            violations.append(
                "topk: tracking %d keys, capacity k=%d" % (len(self._best), self.k)
            )
        if len(self._heap) > COMPACT_FACTOR * self.k:
            violations.append(
                "topk: heap holds %d entries, compaction bound %d"
                % (len(self._heap), COMPACT_FACTOR * self.k)
            )
        live = {
            key for estimate, key in self._heap if self._best.get(key) == estimate
        }
        missing = len(self._best) - len(live)
        if missing:
            violations.append(
                "topk: %d tracked key(s) have no live heap entry" % missing
            )
        return violations

    def memory_bytes(self) -> int:
        """Rough footprint: heap entries + dict entries at 16 B each."""
        return (len(self._heap) + len(self._best)) * 16

    def reset(self) -> None:
        self._heap.clear()
        self._best.clear()
