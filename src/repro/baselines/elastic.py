"""ElasticSketch (Yang et al., SIGCOMM 2018, paper ref [73]).

ElasticSketch splits processing into:

* a **heavy part** -- a hash table of buckets, each holding
  ``(key, positive_votes, negative_votes, flag)``.  A packet whose flow
  owns its bucket increments ``positive_votes``; otherwise it increments
  ``negative_votes`` and, when ``negative/positive >= lambda`` (the vote
  threshold, 8 in the ElasticSketch paper), *evicts* the incumbent into
  the light part and takes the bucket (setting the newcomer's ``flag``
  because part of its history now lives in the light part);
* a **light part** -- a single-row Count-Min of byte-ish counters that
  absorbs evicted and non-resident (mice) traffic.

Queries: a flagged heavy flow adds its light-part estimate; pure-light
flows read the light part alone.

Reproduced limitations (paper Section 2, Figure 3b):

* distinct-flow counting runs linear counting over the light part's
  zero-counter fraction -- it *overflows* when flows exceed the array
  size (relative error > 100%);
* entropy is estimated from heavy flows plus light counters treated as
  per-flow sizes -- collisions inflate the error as flows grow;
* the light part is a Count-Min, so only L1-type guarantees survive
  (no robust L2/entropy guarantee).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.hashing.families import MultiplyShiftHash, derive_seeds
from repro.sketches.base import Monitor


class _Bucket:
    """One heavy-part bucket."""

    __slots__ = ("key", "positive", "negative", "flag")

    def __init__(self) -> None:
        self.key: Optional[int] = None
        self.positive = 0.0
        self.negative = 0.0
        self.flag = False


class ElasticSketch(Monitor):
    """Heavy/light two-part sketch.

    Parameters
    ----------
    heavy_buckets:
        Number of heavy-part buckets.
    light_counters:
        Width of the single-row Count-Min light part.
    vote_threshold:
        The eviction ratio ``lambda`` (8 in the original paper).

    The paper's Figure 3b uses a 2.7 MB ElasticSketch; with 16-byte heavy
    buckets and 1-byte light counters, :func:`ElasticSketch.with_memory`
    reproduces that sizing.
    """

    def __init__(
        self,
        heavy_buckets: int = 32768,
        light_counters: int = 262144,
        vote_threshold: float = 8.0,
        seed: int = 0,
    ) -> None:
        if heavy_buckets < 1 or light_counters < 1:
            raise ValueError("heavy_buckets and light_counters must be >= 1")
        if vote_threshold <= 0:
            raise ValueError("vote_threshold must be positive")
        self.heavy_buckets = heavy_buckets
        self.light_counters = light_counters
        self.vote_threshold = vote_threshold
        seeds = derive_seeds(seed, 2)
        self._heavy_hash = MultiplyShiftHash(heavy_buckets, seeds[0])
        self._light_hash = MultiplyShiftHash(light_counters, seeds[1])
        self._buckets = [_Bucket() for _ in range(heavy_buckets)]
        self._light = np.zeros(light_counters, dtype=np.float64)
        self.total = 0.0

    @classmethod
    def with_memory(
        cls, total_bytes: int, heavy_fraction: float = 0.25, seed: int = 0
    ) -> "ElasticSketch":
        """Size heavy/light parts from a total memory budget.

        ElasticSketch's recommended split gives ~25% to the heavy part;
        heavy buckets cost 16 B (key + votes + flag), light counters 1 B.
        """
        heavy_bytes = int(total_bytes * heavy_fraction)
        light_bytes = total_bytes - heavy_bytes
        return cls(
            heavy_buckets=max(1, heavy_bytes // 16),
            light_counters=max(1, light_bytes),
            seed=seed,
        )

    # -- data plane ---------------------------------------------------------

    def _light_update(self, key: int, weight: float) -> None:
        self.ops.hash()
        self.ops.counter_update()
        self._light[self._light_hash(key)] += weight

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        """The ElasticSketch insertion algorithm (1H, 1C, <=1 eviction)."""
        self.ops.packet()
        self.ops.hash()
        self.ops.table_lookup()
        self.total += weight
        bucket = self._buckets[self._heavy_hash(key)]
        if bucket.key is None:
            bucket.key = key
            bucket.positive = weight
            bucket.negative = 0.0
            bucket.flag = False
            self.ops.counter_update()
            return
        if bucket.key == key:
            bucket.positive += weight
            self.ops.counter_update()
            return
        bucket.negative += weight
        self.ops.counter_update()
        if bucket.negative / max(bucket.positive, 1e-12) < self.vote_threshold:
            # Not voted out yet: the newcomer's packet goes to the light part.
            self._light_update(key, weight)
            return
        # Eviction: incumbent's count moves to the light part; the newcomer
        # takes the bucket with its history flagged as split.
        self._light_update(bucket.key, bucket.positive)
        bucket.key = key
        bucket.positive = weight
        bucket.negative = 0.0
        bucket.flag = True
        self.ops.counter_update()

    # -- queries ------------------------------------------------------------

    def light_query(self, key: int) -> float:
        return float(self._light[self._light_hash(key)])

    def query(self, key: int) -> float:
        bucket = self._buckets[self._heavy_hash(key)]
        if bucket.key == key:
            if bucket.flag:
                return bucket.positive + self.light_query(key)
            return bucket.positive
        return self.light_query(key)

    def heavy_hitters(self, threshold: float) -> List[Tuple[int, float]]:
        """Heavy-part flows whose estimate exceeds ``threshold``."""
        hitters = []
        for bucket in self._buckets:
            if bucket.key is None:
                continue
            estimate = self.query(bucket.key)
            if estimate > threshold:
                hitters.append((bucket.key, estimate))
        hitters.sort(key=lambda item: (-item[1], item[0]))
        return hitters

    def distinct_estimate(self) -> float:
        """Distinct flows via linear counting on the light part.

        Overflows to ``inf`` when every light counter is occupied -- the
        failure mode Figure 3b demonstrates ("the error ... exceeds 100%
        due to the overflow on its linear counting").
        """
        zero = int(np.count_nonzero(self._light == 0))
        heavy_flows = sum(1 for bucket in self._buckets if bucket.key is not None)
        if zero == 0:
            return math.inf
        light_flows = -self.light_counters * math.log(zero / self.light_counters)
        return heavy_flows + light_flows

    def entropy_estimate(self) -> float:
        """Entropy from heavy flows plus light counters as pseudo-flows.

        Accurate while light counters are collision-free; degrades as the
        flow count approaches the light width (Figure 3b's entropy curve).
        """
        if self.total <= 0:
            return 0.0
        gsum = 0.0
        for bucket in self._buckets:
            if bucket.key is None:
                continue
            size = bucket.positive
            if size > 1:
                gsum += size * math.log2(size)
        occupied = self._light[self._light > 1]
        if occupied.size:
            gsum += float(np.sum(occupied * np.log2(occupied)))
        return max(math.log2(self.total) - gsum / self.total, 0.0)

    # -- bookkeeping ----------------------------------------------------------

    def memory_bytes(self) -> int:
        return self.heavy_buckets * 16 + self.light_counters

    def reset(self) -> None:
        for bucket in self._buckets:
            bucket.key = None
            bucket.positive = 0.0
            bucket.negative = 0.0
            bucket.flag = False
        self._light.fill(0.0)
        self.total = 0.0


class NitroElasticSketch(ElasticSketch):
    """ElasticSketch with a NitroSketch-accelerated light part.

    Section 5 of the NitroSketch paper: "NitroSketch can further
    accelerate the slower light part (Count-Min Sketch) of
    ElasticSketch."  The heavy part's 1H/1C path is already cheap; the
    light part -- which absorbs every miss and eviction -- is where mice
    churn costs, so its updates are geometrically sampled at rate ``p``
    and scaled by ``p**-1``.

    Light-part reads stay unbiased; the linear-counting distinct
    estimator, however, loses fidelity under sampling (zero counters
    stay zero longer), which is reported via ``distinct_estimate`` as
    with the vanilla class -- an honest view of what the acceleration
    costs.
    """

    def __init__(
        self,
        heavy_buckets: int = 32768,
        light_counters: int = 262144,
        vote_threshold: float = 8.0,
        probability: float = 0.05,
        seed: int = 0,
    ) -> None:
        super().__init__(heavy_buckets, light_counters, vote_threshold, seed)
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1], got %r" % (probability,))
        from repro.core.geometric import GeometricSampler

        self.probability = probability
        self._sampler = GeometricSampler(probability, seed ^ 0xE1A5)
        # Light updates to skip before the next sampled one.
        self._pending = self._sampler.next_gap() - 1
        self.light_updates_offered = 0
        self.light_updates_applied = 0

    def _light_update(self, key: int, weight: float) -> None:
        self.light_updates_offered += 1
        if self._pending > 0:
            self._pending -= 1
            return
        self._pending = self._sampler.next_gap() - 1
        self.light_updates_applied += 1
        self.ops.hash()
        self.ops.counter_update()
        self._light[self._light_hash(key)] += weight / self.probability

    def reset(self) -> None:
        super().reset()
        self._pending = self._sampler.next_gap() - 1
        self.light_updates_offered = 0
        self.light_updates_applied = 0
