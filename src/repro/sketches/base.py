"""Monitor and sketch interfaces.

Three layers of interface:

* :class:`Monitor` -- the contract every monitor satisfies, so owners
  (daemon, window ring, auditor) drive any of them without probing.
* :class:`Sketch` -- a monitor that can ingest a key stream and answer
  point queries (includes non-canonical structures such as Misra-Gries
  and the hashtable baseline).
* :class:`CanonicalSketch` -- the "canonical workflow" the paper targets
  (Section 4): ``d`` rows of ``w`` counters, each row owning an
  independent (bucket hash, sign hash) pair, updated as
  ``C[i][h_i(x)] += weight * g_i(x)``.  NitroSketch can wrap *any*
  canonical sketch because it only needs per-row update access and the
  sketch's own row-combining query rule.

Counters are ``float64`` because NitroSketch adds ``p^-1``-scaled
increments; for vanilla operation all values stay integral.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional

import numpy as np

from repro.hashing.families import MultiplyShiftHash, MultiplyShiftSign, derive_seeds
from repro.kernels import SketchKernel
from repro.metrics.opcount import NULL_OPS
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.profile import NULL_PROFILER


class Monitor:
    """The contract every monitor satisfies.

    Owners assign ``ops``, ``telemetry`` and ``profiler`` and ingest
    through ``update(key, weight=1.0, timestamp=None)`` or
    ``update_batch(keys, weights=None, duration_seconds=None)``; a
    monitor that does not adapt to rate ignores the arrival time and
    the batch span.  ``update``, ``query``, ``reset`` and
    ``memory_bytes`` are each class's own; the rest are defaults.
    """

    #: Operation sink; assign an :class:`repro.metrics.OpCounter` to profile.
    ops = NULL_OPS
    #: Telemetry sink; the null sink records nothing.
    telemetry = NULL_TELEMETRY
    #: Stage profiler; attach a ``StageProfiler`` to time batch stages.
    profiler = NULL_PROFILER
    #: Packets that reached the counters; ``None``: every packet does.
    packets_sampled: Optional[int] = None

    def update_many(self, keys: Iterable[int]) -> None:
        """Ingest a sequence of keys one by one (convenience)."""
        for key in keys:
            self.update(key)

    def update_batch(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        duration_seconds: Optional[float] = None,
    ) -> None:
        """Ingest a batch by feeding :meth:`update` key by key."""
        keys = np.asarray(keys).tolist()
        weights = [1.0] * len(keys) if weights is None else np.asarray(weights).tolist()
        for key, weight in zip(keys, weights):
            self.update(key, weight)

    def query_batch(self, keys: "np.ndarray") -> "np.ndarray":
        """Point queries for a batch, one :meth:`query` per key."""
        keys = np.asarray(keys).tolist()
        return np.array([self.query(key) for key in keys], dtype=np.float64)

    def check_invariants(self) -> List[str]:
        """Structural self-checks; returns violation strings (none here)."""
        return []


class Sketch(Monitor, abc.ABC):
    """Minimal streaming-summary interface."""

    @abc.abstractmethod
    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        """Ingest one packet of flow ``key`` (``weight`` packets/bytes)."""

    @abc.abstractmethod
    def query(self, key: int) -> float:
        """Estimate the total weight of flow ``key``."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Approximate resident size of the data structure in bytes."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all state, keeping the hash functions."""


class CanonicalSketch(Sketch):
    """A ``d x w`` counter-array sketch with per-row hash pairs.

    Parameters
    ----------
    depth:
        Number of rows ``d`` (independent hash functions).
    width:
        Counters per row ``w``.
    seed:
        Master seed; all row hashes derive from it.
    signed:
        ``True`` gives Count-Sketch-style ±1 updates (L2 guarantee);
        ``False`` gives Count-Min-style +1 updates (L1 guarantee).
        Mirrors the ``g_i`` choice in Algorithm 1 line 3.
    hash_family:
        ``"multiply_shift"`` (default; 2-universal, fastest in Python) or
        ``"xxhash"`` (the C implementation's family, Section 6) -- same
        interface, swappable for fidelity studies.
    """

    def __init__(
        self,
        depth: int,
        width: int,
        seed: int,
        signed: bool,
        hash_family: str = "multiply_shift",
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1, got %d" % depth)
        if width < 1:
            raise ValueError("width must be >= 1, got %d" % width)
        self.depth = depth
        self.width = width
        self.signed = signed
        self.seed = seed
        self.hash_family = hash_family
        seeds = derive_seeds(seed, depth * 2)
        if hash_family == "multiply_shift":
            self.row_hashes = [
                MultiplyShiftHash(width, seeds[2 * i]) for i in range(depth)
            ]
            self.row_signs = [
                MultiplyShiftSign(seeds[2 * i + 1], constant_one=not signed)
                for i in range(depth)
            ]
        elif hash_family == "xxhash":
            from repro.hashing.rowhash import XXHashRowHash, XXHashRowSign

            self.row_hashes = [
                XXHashRowHash(width, seeds[2 * i]) for i in range(depth)
            ]
            self.row_signs = [
                XXHashRowSign(seeds[2 * i + 1], constant_one=not signed)
                for i in range(depth)
            ]
        else:
            raise ValueError(
                "hash_family must be 'multiply_shift' or 'xxhash', got %r"
                % (hash_family,)
            )
        self.counters = np.zeros((depth, width), dtype=np.float64)
        self._kernel: Optional[SketchKernel] = None

    @property
    def kernel(self) -> SketchKernel:
        """The fused batch update/query kernel bound to this sketch.

        Built lazily (the row hashes are immutable after construction)
        and shared by every batch entry point -- including NitroSketch's
        sampled-slot path, which drives it directly.
        """
        if self._kernel is None:
            self._kernel = SketchKernel(self)
        return self._kernel

    # -- canonical row-level access (what NitroSketch drives) ------------

    def row_bucket(self, row: int, key: int) -> int:
        """Bucket index ``h_row(key)``; counts one hash computation."""
        self.ops.hash()
        return self.row_hashes[row](key)

    def row_sign(self, row: int, key: int) -> int:
        """Sign ``g_row(key)`` (±1, or +1 for unsigned sketches).

        Not billed as a hash operation: real implementations derive the
        sign from a spare bit of the row hash, so its cost is already in
        :meth:`row_bucket`.
        """
        if not self.signed:
            return 1
        return self.row_signs[row](key)

    def row_update(self, row: int, key: int, increment: float) -> None:
        """Apply ``C[row][h_row(key)] += increment * g_row(key)``.

        ``increment`` already carries any inverse-sampling-probability
        scaling (NitroSketch passes ``p^-1 * weight``).
        """
        bucket = self.row_bucket(row, key)
        sign = self.row_sign(row, key)
        self.ops.counter_update()
        self.counters[row, bucket] += increment * sign

    def row_estimate(self, row: int, key: int) -> float:
        """The single-row estimate ``C[row][h_row(key)] * g_row(key)``.

        Billed as one hash: point queries recompute the row hashes, and
        data-plane heap offers go through this path (Table 2's
        ``heap_find`` cost includes them).
        """
        self.ops.hash()
        bucket = self.row_hashes[row](key)
        value = self.counters[row, bucket]
        if self.signed:
            return value * self.row_signs[row](key)
        return value

    # -- full-sketch operations ------------------------------------------

    @abc.abstractmethod
    def combine_rows(self, estimates: List[float]) -> float:
        """Collapse per-row estimates into the sketch's answer.

        Count-Min takes the minimum; Count Sketch and K-ary take the
        median.  NitroSketch reuses this so a wrapped sketch answers
        queries exactly the way its vanilla version would.
        """

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        """Vanilla update: touch every row (``d`` hashes, ``d`` counters)."""
        self.ops.packet()
        for row in range(self.depth):
            self.row_update(row, key, weight)

    def update_and_estimate(self, key: int, weight: float = 1.0) -> float:
        """Update every row and return the fresh estimate, hashing once.

        The common C idiom for heavy-hitter tracking: the hash values
        computed for the update are reused for the estimate, so the heap
        offer costs no extra hash -- only the counter reads.
        """
        self.ops.packet()
        estimates = []
        for row in range(self.depth):
            self.ops.hash()
            bucket = self.row_hashes[row](key)
            sign = self.row_signs[row](key) if self.signed else 1
            self.ops.counter_update()
            self.counters[row, bucket] += weight * sign
            estimates.append(self.counters[row, bucket] * sign)
        return self.combine_rows(estimates)

    def query(self, key: int) -> float:
        """Point query combining all row estimates."""
        return self.combine_rows(
            [self.row_estimate(row, key) for row in range(self.depth)]
        )

    def query_batch(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorised point queries: ``float64`` estimates per key.

        One fused row hash over the whole batch, one flat-index gather
        into a ``(depth, n)`` estimate matrix, then the sketch's own
        vectorised row combiner -- element-for-element identical to
        calling :meth:`query` per key, at a fraction of the cost (the
        scalar loop pays ``depth`` Python-level hashes per key).  Billed
        exactly like ``n`` scalar queries.
        """
        keys = np.asarray(keys)
        if len(keys) == 0:
            return np.zeros(0, dtype=np.float64)
        self.ops.hash(self.depth * len(keys))
        return self._combine_rows_batch(self.kernel.estimate_matrix(keys))

    def _combine_rows_batch(self, estimates: "np.ndarray") -> "np.ndarray":
        """Collapse a ``(depth, n)`` estimate matrix column-wise.

        Generic fallback applies :meth:`combine_rows` per column;
        concrete sketches override with a closed-form NumPy reduction
        (min for Count-Min, lower median for Count Sketch / K-ary).
        """
        if self.depth == 1:
            return estimates[0].astype(np.float64, copy=False)
        return np.array(
            [self.combine_rows(list(column)) for column in estimates.T],
            dtype=np.float64,
        )

    def update_batch(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        count_packets: bool = True,
        duration_seconds: Optional[float] = None,
    ) -> None:
        """Vectorised vanilla update of a key batch (Idea-D analogue).

        Routes through the fused :class:`~repro.kernels.SketchKernel`:
        one broadcast hash over every row, one flat-index scatter-add --
        counter state is exactly equivalent to calling :meth:`update`
        per key (bit-identical for integral increments).

        ``count_packets=False`` skips the per-packet op tally for
        callers (NitroSketch's exact phase, sampling wrappers) that have
        already billed the batch as packets -- declared accounting
        instead of the old ``ops.packet(-n)`` recount hack.
        """
        keys = np.asarray(keys)
        count = len(keys)
        if count == 0:
            return
        if count_packets:
            self.ops.packet(count)
        self.ops.hash(self.depth * count)
        self.kernel.update(keys, weights)
        self.ops.counter_update(self.depth * count)

    def note_batch_mass(self, mass: float) -> None:
        """Hook for subclasses that track total stream mass.

        Vectorised updaters that write counters directly (NitroSketch's
        batch path) call this with the summed increments applied, so
        estimators like K-ary's mean correction stay consistent.  The
        default sketch keeps no such state.
        """

    def merge(self, other: "CanonicalSketch") -> None:
        """Add another sketch built with the same seed/shape (mergeability)."""
        if (
            other.depth != self.depth
            or other.width != self.width
            or other.seed != self.seed
            or other.signed != self.signed
            or other.hash_family != self.hash_family
        ):
            raise ValueError("can only merge sketches with identical configuration")
        self.counters += other.counters

    def row_sum_of_squares(self, row: int) -> float:
        """``sum_y C[row][y]**2`` -- the per-row L2² estimator AlwaysCorrect
        mode monitors (Algorithm 1 line 14)."""
        row_counters = self.counters[row]
        return float(np.dot(row_counters, row_counters))

    def l2_squared_estimate(self) -> float:
        """Median across rows of the sum of squared counters.

        For a signed (Count Sketch) structure this is the AMS estimator of
        the stream's ``L2**2`` (paper Section 4.3, AlwaysCorrect mode).
        """
        sums = sorted(self.row_sum_of_squares(row) for row in range(self.depth))
        return sums[(self.depth - 1) // 2]

    def check_invariants(self) -> List[str]:
        """Structural self-checks; returns violation strings.

        The base contract is shape and finiteness of the counter grid;
        subclasses that keep derived state (K-ary's stream-mass total)
        extend this with their own conservation checks.  Pull-based --
        nothing on the data plane calls it unless a verify hook does.
        """
        violations: List[str] = []
        if self.counters.shape != (self.depth, self.width):
            violations.append(
                "%s: counter grid shape %r != (%d, %d)"
                % (type(self).__name__, self.counters.shape, self.depth, self.width)
            )
        if not np.all(np.isfinite(self.counters)):
            violations.append(
                "%s: %d non-finite counter(s)"
                % (type(self).__name__, int(np.sum(~np.isfinite(self.counters))))
            )
        return violations

    def memory_bytes(self) -> int:
        # 4-byte counters in the C implementation; report that footprint so
        # memory figures are comparable with the paper's configurations.
        return self.depth * self.width * 4

    def reset(self) -> None:
        self.counters.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(depth=%d, width=%d, signed=%s)" % (
            type(self).__name__,
            self.depth,
            self.width,
            self.signed,
        )
