"""Hierarchical heavy hitters: deterministic and randomized (R-HHH).

Hierarchical heavy hitters generalise HH to IP-prefix hierarchies: a /16
prefix can be heavy even when no single /32 under it is.  The paper's
Table 1 cites two relevant algorithms:

* :class:`HierarchicalHeavyHitters` -- the deterministic baseline of
  Mitzenmacher, Steinke & Thaler [64]: one Space-Saving/Misra-Gries
  instance per hierarchy level, *all* levels updated per packet
  (O(levels) per packet).
* :class:`RandomizedHHH` -- R-HHH (Ben Basat et al., SIGCOMM 2017 [8]):
  per packet, pick ONE random level and update only it, scaling all
  estimates by the number of levels.  This is the O(1)-update trick that
  reaches 14.88 Mpps in Table 1 -- robust, but supporting *only* this
  task (the generality gap NitroSketch closes).

Keys are 32-bit source addresses; the hierarchy is byte-aligned prefix
masking (/8, /16, /24, /32) by default.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hashing.prng import XorShift64Star
from repro.sketches.base import Monitor
from repro.sketches.misra_gries import MisraGries

#: Byte-aligned IPv4 prefix lengths, shallowest first.
DEFAULT_PREFIX_LENGTHS = (8, 16, 24, 32)


def prefix_of(address: int, prefix_length: int) -> int:
    """Mask a 32-bit address down to its ``prefix_length``-bit prefix."""
    if not 0 <= prefix_length <= 32:
        raise ValueError("prefix_length must be in [0, 32]")
    if prefix_length == 0:
        return 0
    mask = ((1 << prefix_length) - 1) << (32 - prefix_length)
    return address & mask


class HierarchicalHeavyHitters(Monitor):
    """Deterministic HHH: every level updated on every packet."""

    def __init__(
        self,
        counters_per_level: int = 512,
        prefix_lengths: Sequence[int] = DEFAULT_PREFIX_LENGTHS,
    ) -> None:
        if not prefix_lengths:
            raise ValueError("at least one prefix length required")
        self.prefix_lengths = tuple(sorted(prefix_lengths))
        self.levels: Dict[int, MisraGries] = {
            length: MisraGries(counters_per_level) for length in self.prefix_lengths
        }
        self.total = 0.0

    def update(
        self, address: int, weight: float = 1.0, timestamp: Optional[float] = None
    ) -> None:
        self.ops.packet()
        self.total += weight
        for length in self.prefix_lengths:
            level = self.levels[length]
            level.ops = self.ops
            level.update(prefix_of(address, length), weight)
            self.ops.packet(-1)  # inner MG counted the packet again

    def query(self, address: int, prefix_length: Optional[int] = None) -> float:
        """Estimated traffic of one prefix (default: the longest level)."""
        if prefix_length is None:
            prefix_length = self.prefix_lengths[-1]
        return self.levels[prefix_length].query(prefix_of(address, prefix_length))

    def heavy_prefixes(self, threshold_fraction: float) -> List[Tuple[int, int, float]]:
        """All (prefix, length, estimate) above a fraction of total traffic."""
        threshold = threshold_fraction * self.total
        result = []
        for length in self.prefix_lengths:
            for prefix, estimate in self.levels[length].items():
                if estimate > threshold:
                    result.append((prefix, length, estimate))
        result.sort(key=lambda item: (-item[2], item[1], item[0]))
        return result

    def _scaled_items(self, length: int) -> List[Tuple[int, float]]:
        """Per-level (prefix, estimate) pairs; hook for R-HHH scaling."""
        return self.levels[length].items()

    def hierarchical_heavy_hitters(
        self, threshold_fraction: float
    ) -> List[Tuple[int, int, float]]:
        """Conditioned HHH extraction (the task's proper semantics).

        A prefix is a *hierarchical* heavy hitter if its traffic minus
        the traffic of its already-reported HHH descendants still exceeds
        the threshold -- so an aggregate of mice (a scanning /16, say) is
        reported once at its own level rather than echoing every heavy
        /32 up the hierarchy.  Standard bottom-up extraction over the
        per-level summaries (Mitzenmacher et al. [64]).
        """
        threshold = threshold_fraction * self.total
        reported: List[Tuple[int, int, float]] = []
        # Walk from the most specific level upward.
        for length in sorted(self.prefix_lengths, reverse=True):
            for prefix, estimate in self._scaled_items(length):
                # Subtract descendants already reported as HHHs.
                discounted = estimate
                for r_prefix, r_length, r_estimate in reported:
                    if r_length > length and prefix_of(r_prefix, length) == prefix:
                        discounted -= r_estimate
                if discounted > threshold:
                    reported.append((prefix, length, discounted))
        reported.sort(key=lambda item: (item[1], -item[2], item[0]))
        return reported

    def memory_bytes(self) -> int:
        return sum(level.memory_bytes() for level in self.levels.values())

    def reset(self) -> None:
        for level in self.levels.values():
            level.reset()
        self.total = 0.0


class RandomizedHHH(HierarchicalHeavyHitters):
    """R-HHH: one uniformly random level updated per packet (O(1))."""

    def __init__(
        self,
        counters_per_level: int = 512,
        prefix_lengths: Sequence[int] = DEFAULT_PREFIX_LENGTHS,
        seed: int = 0,
    ) -> None:
        super().__init__(counters_per_level, prefix_lengths)
        self._rng = XorShift64Star(seed ^ 0x8888)
        self.num_levels = len(self.prefix_lengths)

    def update(
        self, address: int, weight: float = 1.0, timestamp: Optional[float] = None
    ) -> None:
        self.ops.packet()
        self.ops.prng()
        self.total += weight
        chosen = self.prefix_lengths[self._rng.next_below(self.num_levels)]
        level = self.levels[chosen]
        level.ops = self.ops
        level.update(prefix_of(address, chosen), weight)
        self.ops.packet(-1)  # inner MG counted the packet again

    def query(self, address: int, prefix_length: Optional[int] = None) -> float:
        """Estimate scaled by the level count (each level sees ~1/L of traffic)."""
        return super().query(address, prefix_length) * self.num_levels

    def heavy_prefixes(self, threshold_fraction: float) -> List[Tuple[int, int, float]]:
        threshold = threshold_fraction * self.total
        result = []
        for length in self.prefix_lengths:
            for prefix, estimate in self.levels[length].items():
                scaled = estimate * self.num_levels
                if scaled > threshold:
                    result.append((prefix, length, scaled))
        result.sort(key=lambda item: (-item[2], item[1], item[0]))
        return result

    def _scaled_items(self, length: int) -> List[Tuple[int, float]]:
        # Each level sees ~1/L of the stream; scale estimates back up so
        # the conditioned HHH extraction works in stream units.
        return [
            (prefix, estimate * self.num_levels)
            for prefix, estimate in self.levels[length].items()
        ]
