"""UnivMon universal sketch (Liu et al., SIGCOMM 2016, paper ref [55]).

UnivMon answers *many* measurement tasks from one data structure by
maintaining ``L`` levels of progressively subsampled substreams:

* level 0 sees every packet;
* level ``j`` sees the keys whose sampling hashes ``h_1..h_j`` are all 1,
  i.e. an (expected) ``2**-j`` fraction of distinct keys;
* every level runs a Count Sketch plus a top-k heavy-hitter heap over its
  substream.

Any G-sum statistic ``sum_x g(f_x)`` (entropy, distinct count, frequency
moments, ...) is then estimated with the recursive Recursive Sum
Algorithm:

    Y_L = sum_{x in Q_L} g(f_x(L))
    Y_j = 2 * Y_{j+1} + sum_{x in Q_j} g(f_x(j)) * (1 - 2*h_{j+1}(x))

where ``Q_j`` is level j's heavy-hitter set, ``f_x(j)`` its Count-Sketch
estimate, and ``h_{j+1}(x)`` the next level's sampling bit.

The per-level frequency estimator is pluggable (``level_factory``) so the
NitroSketch core can substitute its accelerated Count Sketch per level --
exactly how the paper integrates the two systems ("replacing each Count
Sketch instance in UnivMon with ... NitroSketch", Section 8).
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

import numpy as np

from repro.hashing.families import derive_seeds
from repro.hashing.tabulation import TabulationHash
from repro.metrics.opcount import NULL_OPS
from repro.sketches.countsketch import CountSketch
from repro.sketches.topk import TopK

# ---------------------------------------------------------------------------
# G-functions for the G-sum estimator.
# ---------------------------------------------------------------------------


def g_entropy(frequency: float) -> float:
    """``g(f) = f * log2(f)`` -- yields Shannon entropy via
    ``H = log2(m) - Gsum/m`` (Lall et al. [52])."""
    if frequency <= 1.0:
        return 0.0
    return frequency * math.log2(frequency)


def g_distinct(frequency: float) -> float:
    """``g(f) = 1 if f >= ~1 else 0`` -- counts distinct flows (F0)."""
    return 1.0 if frequency >= 0.5 else 0.0


def g_l2_squared(frequency: float) -> float:
    """``g(f) = f**2`` -- the second frequency moment F2."""
    return frequency * frequency


def g_l1(frequency: float) -> float:
    """``g(f) = f`` -- total traffic (sanity-check statistic)."""
    return max(frequency, 0.0)


# ---------------------------------------------------------------------------
# Per-level heavy-hitter estimator.
# ---------------------------------------------------------------------------


class HeavyHitterSketch:
    """A Count Sketch paired with a top-k key store.

    This is the vanilla per-level unit of UnivMon (Figure 7a): every
    update touches all sketch rows, then queries the sketch and offers the
    estimate to the heap.  The NitroSketch wrapper in
    :mod:`repro.core.nitro` exposes the same interface, which is what lets
    UnivMon swap it in transparently.
    """

    def __init__(self, depth: int, width: int, k: int, seed: int = 0) -> None:
        self.sketch = CountSketch(depth, width, seed)
        self.topk = TopK(k)

    @property
    def ops(self):
        return self.sketch.ops

    @ops.setter
    def ops(self, sink) -> None:
        self.sketch.ops = sink
        self.topk.ops = sink

    def update(self, key: int, weight: float = 1.0) -> None:
        estimate = self.sketch.update_and_estimate(key, weight)
        self.topk.offer(key, estimate)

    def update_batch(self, keys, weights=None, duration_seconds=None) -> None:
        """Vectorised level update (Idea-D analogue for vanilla levels).

        Counter state is identical to per-packet updates; the top-k store
        is refreshed with each distinct key's *final* estimate, which can
        only improve on the online offers (estimates grow monotonically
        in expectation).
        """
        keys = np.asarray(keys)
        if len(keys) == 0:
            return
        self.sketch.update_batch(keys, weights)
        unique = np.unique(keys)
        # Bill the per-packet top-keys probes the scalar workflow performs
        # (the batch path only offers each distinct key once).
        self.sketch.ops.table_lookup(len(keys) - len(unique))
        estimates = self.sketch.query_batch(unique)
        for key, estimate in zip(unique.tolist(), estimates.tolist()):
            self.topk.offer(int(key), float(estimate))

    def query(self, key: int) -> float:
        return self.sketch.query(key)

    def top_items(self) -> List[Tuple[int, float]]:
        """Tracked (key, estimate) pairs with *fresh* sketch estimates."""
        return [(key, self.sketch.query(key)) for key in self.topk.keys()]

    def l2_estimate(self) -> float:
        return self.sketch.l2_estimate()

    def memory_bytes(self) -> int:
        return self.sketch.memory_bytes() + self.topk.memory_bytes()

    def reset(self) -> None:
        self.sketch.reset()
        self.topk.reset()


LevelFactory = Callable[[int, int, int, int, int], HeavyHitterSketch]
"""Signature: ``factory(level, depth, width, k, seed) -> estimator``."""


def default_level_factory(
    level: int, depth: int, width: int, k: int, seed: int
) -> HeavyHitterSketch:
    """Build a vanilla Count-Sketch + heap level."""
    return HeavyHitterSketch(depth, width, k, seed)


# ---------------------------------------------------------------------------
# UnivMon proper.
# ---------------------------------------------------------------------------


class UnivMon:
    """The universal sketch.

    Parameters
    ----------
    levels:
        Number of substream levels ``L`` (paper uses ~log2 of the key
        universe; 14-16 is typical).
    depth:
        Rows per Count Sketch (5 in the paper's configuration).
    widths:
        Either one width for all levels or a per-level sequence.  The
        paper sizes the first levels larger (4MB/2MB/1MB/500KB then
        250KB); :func:`paper_widths` reproduces that scheme.
    k:
        Heavy hitters tracked per level.
    level_factory:
        Hook to substitute the per-level estimator (NitroSketch uses it).
    """

    def __init__(
        self,
        levels: int = 14,
        depth: int = 5,
        widths=10000,
        k: int = 100,
        seed: int = 0,
        level_factory: LevelFactory = default_level_factory,
    ) -> None:
        if levels < 1:
            raise ValueError("levels must be >= 1, got %d" % levels)
        if isinstance(widths, int):
            width_list = [widths] * levels
        else:
            width_list = list(widths)
            if len(width_list) != levels:
                raise ValueError(
                    "widths sequence length %d != levels %d" % (len(width_list), levels)
                )
        self.levels = levels
        self.depth = depth
        self.k = k
        self.seed = seed
        seeds = derive_seeds(seed, levels + 1)
        self.sketches: List[HeavyHitterSketch] = [
            level_factory(j, depth, width_list[j], k, seeds[j]) for j in range(levels)
        ]
        # One sampler hash for all levels: a key belongs to level j iff the
        # j lowest bits of its hash are all ones, so membership at any
        # depth costs a single hash (the standard nested-substream trick;
        # essential for NitroSketch integration, where membership is
        # checked only on sampled slots).
        self._sampler = TabulationHash(seeds[levels])
        self.total = 0.0
        self.packets_seen = 0
        self._ops = NULL_OPS

    @property
    def ops(self):
        """Operation sink; assigning it propagates to every level."""
        return self._ops

    @ops.setter
    def ops(self, sink) -> None:
        self._ops = sink
        for sketch in self.sketches:
            sketch.ops = sink

    # -- sampling ----------------------------------------------------------

    def sampled_depth(self, key: int) -> int:
        """Deepest level containing ``key``: trailing ones of its hash."""
        h = self._sampler.hash64(key)
        # Count trailing one-bits (capped at levels - 1).
        trailing = ((~h) & (h + 1)).bit_length() - 1
        if trailing < 0:  # h was all ones
            trailing = 64
        return min(trailing, self.levels - 1)

    def sample_bit(self, level: int, key: int) -> int:
        """Level-``level`` membership indicator (level >= 1)."""
        return 1 if self.sampled_depth(key) >= level else 0

    def sampled_depth_batch(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorised :meth:`sampled_depth` for a key array."""
        hashes = self._sampler.batch(keys)
        with np.errstate(over="ignore", divide="ignore"):
            lowest_zero = (~hashes) & (hashes + np.uint64(1))
            trailing = np.where(
                lowest_zero == 0,
                64.0,
                np.log2(np.maximum(lowest_zero.astype(np.float64), 1.0)),
            ).astype(np.int64)
        return np.minimum(trailing, self.levels - 1)

    # -- data plane ---------------------------------------------------------

    def update(self, key: int, weight: float = 1.0) -> None:
        """Feed one packet into every level containing its key."""
        self.ops.packet()
        self.packets_seen += 1
        self.total += weight
        self.ops.hash()  # the single sampler hash
        deepest = self.sampled_depth(key)
        for level in range(deepest + 1):
            self.sketches[level].update(key, weight)

    def update_many(self, keys) -> None:
        for key in keys:
            self.update(key)

    def update_batch(
        self, keys, weights=None, duration_seconds=None, count_packets=True
    ) -> None:
        """Vectorised ingest: per-level sampler masks + batched updates.

        Produces the same level-sketch counters as scalar ingest.  Each
        level's sampler bits are evaluated in batch; keys failing level
        ``j`` never reach levels ``> j``.  ``count_packets=False`` skips
        the packet/mass bookkeeping for wrappers (NitroUnivMon's exact
        phase) that have already accounted for the batch.
        """
        keys = np.asarray(keys)
        count = len(keys)
        if count == 0:
            return
        if count_packets:
            self.ops.packet(count)
            self.packets_seen += count
            self.total += count if weights is None else float(np.sum(weights))
        self.ops.hash(count)  # one sampler hash per packet
        depths = self.sampled_depth_batch(keys)
        level_weights = None if weights is None else np.asarray(weights, dtype=np.float64)
        for level in range(self.levels):
            mask = depths >= level
            if not np.any(mask):
                break
            level_keys = keys[mask]
            selected_weights = None if level_weights is None else level_weights[mask]
            self.sketches[level].update_batch(
                level_keys, selected_weights, duration_seconds=duration_seconds
            )

    # -- queries ------------------------------------------------------------

    def query(self, key: int) -> float:
        """Point frequency estimate (from the level-0 Count Sketch)."""
        return self.sketches[0].query(key)

    def heavy_hitters(self, threshold: float) -> List[Tuple[int, float]]:
        """Flows whose level-0 estimate exceeds ``threshold``, largest first."""
        hitters = [
            (key, estimate)
            for key, estimate in self.sketches[0].top_items()
            if estimate > threshold
        ]
        hitters.sort(key=lambda item: (-item[1], item[0]))
        return hitters

    def g_sum(self, g: Callable[[float], float]) -> float:
        """Estimate ``sum_x g(f_x)`` with the recursive algorithm."""
        deepest = self.levels - 1
        y = 0.0
        for key, estimate in self.sketches[deepest].top_items():
            y += g(estimate)
        for level in range(deepest - 1, -1, -1):
            contribution = 0.0
            for key, estimate in self.sketches[level].top_items():
                indicator = self.sample_bit(level + 1, key) if level + 1 < self.levels else 0
                contribution += g(estimate) * (1.0 - 2.0 * indicator)
            y = 2.0 * y + contribution
        return y

    def entropy_estimate(self) -> float:
        """Shannon entropy (bits) of the flow-size distribution."""
        if self.total <= 0:
            return 0.0
        gsum = self.g_sum(g_entropy)
        return max(math.log2(self.total) - gsum / self.total, 0.0)

    def distinct_estimate(self) -> float:
        """Estimated number of distinct flows (F0)."""
        return max(self.g_sum(g_distinct), 0.0)

    def l2_squared_estimate(self) -> float:
        """Estimated second frequency moment F2 (via level-0 AMS)."""
        return self.sketches[0].l2_estimate() ** 2

    def frequency_moment(self, order: float) -> float:
        """Estimated frequency moment ``F_k = sum f_x**k`` via the G-sum.

        ``order = 0`` is the distinct count, ``order = 1`` the packet
        total, ``order = 2`` the repeat rate, etc.  UnivMon supports any
        such stream-polynomial statistic from the same structure -- the
        generality claim of [55] the paper leans on.
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        if order == 0:
            return self.distinct_estimate()

        def g_moment(frequency: float) -> float:
            return max(frequency, 0.0) ** order

        return max(self.g_sum(g_moment), 0.0)

    def change_detection(
        self, previous: "UnivMon", threshold: float
    ) -> List[Tuple[int, float]]:
        """Heavy changers vs a previous-epoch UnivMon (same seed).

        Estimates ``|f_now - f_prev|`` for every key tracked in either
        epoch's level-0 heap and reports those above ``threshold`` (an
        absolute packet-count threshold; callers usually pass a fraction
        of the total change, as in Section 7's Change task).
        """
        if previous.seed != self.seed:
            raise ValueError("change detection requires same-seed UnivMon epochs")
        candidates = {key for key, _ in self.sketches[0].top_items()}
        candidates |= {key for key, _ in previous.sketches[0].top_items()}
        changes = []
        for key in candidates:
            delta = abs(self.query(key) - previous.query(key))
            if delta > threshold:
                changes.append((key, delta))
        changes.sort(key=lambda item: (-item[1], item[0]))
        return changes

    # -- bookkeeping ----------------------------------------------------------

    @property
    def converged(self) -> bool:
        """AlwaysCorrect convergence of the level-0 estimator.

        True for vanilla levels; with NitroSketch levels in AlwaysCorrect
        mode, reflects whether the (dominant) level-0 sketch has started
        sampling.
        """
        return getattr(self.sketches[0], "converged", True)

    @property
    def packets_sampled(self) -> int:
        """Packets that caused at least one counter update somewhere.

        With NitroSketch levels this is (an upper bound on) the union of
        per-level sampled packets -- the quantity the separate-thread
        pre-processing stage copies.  Vanilla levels update on every
        packet, so the fraction is 1.
        """
        total = 0
        for sketch in self.sketches:
            sampled = getattr(sketch, "packets_sampled", None)
            if sampled is None:
                return self.packets_seen
            total += sampled
        return min(total, self.packets_seen)

    def memory_bytes(self) -> int:
        return sum(sketch.memory_bytes() for sketch in self.sketches)

    def reset(self) -> None:
        for sketch in self.sketches:
            sketch.reset()
        self.total = 0.0
        self.packets_seen = 0


def paper_widths(levels: int, depth: int = 5) -> List[int]:
    """Per-level Count-Sketch widths matching the paper's memory plan.

    Section 7: "we allocate 4MB, 2MB, 1MB, 500KB for the first HH
    sketches, and 250KB for the rest" -- with 4-byte counters and
    ``depth`` rows, width = bytes / (4 * depth).
    """
    plan_bytes = [4 * 2**20, 2 * 2**20, 1 * 2**20, 500 * 2**10]
    widths = []
    for level in range(levels):
        level_bytes = plan_bytes[level] if level < len(plan_bytes) else 250 * 2**10
        widths.append(max(1, level_bytes // (4 * depth)))
    return widths
