"""k-wise independent hash families over the Mersenne prime ``2**61 - 1``.

The sketches in the paper (Count-Min, Count Sketch, K-ary, UnivMon) need
pairwise -- and for some substream samplers four-wise -- independent hash
functions (paper Section 4.2: "usually require pair-wise or even four-wise
independent").  The standard construction is a random degree-(k-1)
polynomial over a prime field:

    h(x) = (a_{k-1} x^{k-1} + ... + a_1 x + a_0) mod P

with ``P = 2**61 - 1`` a Mersenne prime, which admits a fast modular
reduction.  We provide scalar and NumPy-vectorised evaluation; the
vectorised path is the Python analogue of the paper's AVX batch hashing
(Idea D).

Classes
-------
KWiseHash
    Generic degree-(k-1) polynomial family mapped to ``[0, width)``.
PairwiseHash / FourWiseHash
    Convenience subclasses with k fixed.
SignHash
    Pairwise-independent ``{-1, +1}`` hash (Count Sketch's ``g_i``).
HashPair
    The (row-index hash, sign hash) bundle one sketch row uses.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.hashing.prng import SplitMix64
from repro.kernels.mersenne import kwise_raw_batch, reduce_keys_mersenne

#: The Mersenne prime 2**61 - 1, the field modulus for all families here.
MERSENNE_PRIME_61 = (1 << 61) - 1

MASK64 = (1 << 64) - 1

#: Shared pre-boxed shift constant for the multiply-shift batch path.
_U64_32 = np.uint64(32)


def _mod_mersenne(value: int) -> int:
    """Reduce ``value`` modulo ``2**61 - 1`` using shift-add folding.

    Works for any non-negative value below ``2**122`` (one fold suffices
    for products of two field elements; we fold twice to be safe for
    accumulated Horner sums).
    """
    value = (value & MERSENNE_PRIME_61) + (value >> 61)
    value = (value & MERSENNE_PRIME_61) + (value >> 61)
    if value >= MERSENNE_PRIME_61:
        value -= MERSENNE_PRIME_61
    return value


class KWiseHash:
    """A k-wise independent hash ``[0, 2**61-1) -> [0, width)``.

    Parameters
    ----------
    k:
        Independence degree (2 for pairwise, 4 for four-wise).
    width:
        Output range size.  ``hash(x)`` is uniform on ``[0, width)`` up to
        the negligible bias of reducing a 61-bit value.
    seed:
        Deterministic seed for the polynomial coefficients.
    """

    def __init__(self, k: int, width: int, seed: int) -> None:
        if k < 1:
            raise ValueError("independence degree k must be >= 1, got %d" % k)
        if width < 1:
            raise ValueError("width must be >= 1, got %d" % width)
        self.k = k
        self.width = width
        rng = SplitMix64(seed)
        # Leading coefficient must be nonzero for full independence.
        coeffs = [rng.next_u64() % MERSENNE_PRIME_61 for _ in range(k)]
        while coeffs[-1] == 0 and k > 1:
            coeffs[-1] = rng.next_u64() % MERSENNE_PRIME_61
        self._coeffs: List[int] = coeffs
        # Highest-degree-first uint64 coefficients for the batch kernel,
        # plus the pre-boxed width (hot-path: no per-call scalar boxing).
        self._coeffs_u64 = np.array(coeffs[::-1], dtype=np.uint64)
        self._width_u64 = np.uint64(width)

    def raw(self, key: int) -> int:
        """Return the field element for ``key`` (before range reduction)."""
        acc = 0
        for coeff in reversed(self._coeffs):
            acc = _mod_mersenne(acc * (key % MERSENNE_PRIME_61) + coeff)
        return acc

    def __call__(self, key: int) -> int:
        """Hash ``key`` into ``[0, width)``."""
        return self.raw(key) % self.width

    def raw_batch(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorised :meth:`raw`: ``uint64`` field elements per key.

        Pure ``uint64`` arithmetic (32-bit split multiplies plus
        Mersenne shift-add folding -- see
        :mod:`repro.kernels.mersenne`); bit-exact with the scalar path.
        """
        return kwise_raw_batch(reduce_keys_mersenne(keys), self._coeffs_u64)

    def batch(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorised hashing of an array of integer keys.

        Accepts any integer array; returns an ``int64`` array of bucket
        indices in ``[0, width)`` matching :meth:`__call__` bit-for-bit.
        """
        return (self.raw_batch(keys) % self._width_u64).astype(np.int64)


class PairwiseHash(KWiseHash):
    """Pairwise (2-wise) independent hash."""

    def __init__(self, width: int, seed: int) -> None:
        super().__init__(2, width, seed)


class FourWiseHash(KWiseHash):
    """Four-wise independent hash (needed by AMS-style L2 estimators)."""

    def __init__(self, width: int, seed: int) -> None:
        super().__init__(4, width, seed)


class SignHash:
    """Pairwise-independent sign hash ``g: keys -> {-1, +1}``.

    Count Sketch multiplies each update by ``g_i(x)``; Count-Min is the
    special case ``g == +1`` (paper Algorithm 1, line 3).  ``constant_one``
    produces that degenerate variant so both L1 and L2 modes share a code
    path.
    """

    def __init__(self, seed: int, constant_one: bool = False) -> None:
        self.constant_one = constant_one
        self._hash = KWiseHash(2, 2, seed)

    def __call__(self, key: int) -> int:
        if self.constant_one:
            return 1
        return 1 if self._hash(key) == 1 else -1

    def batch(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorised sign evaluation; returns an int64 array of ±1."""
        keys = np.asarray(keys)
        if self.constant_one:
            return np.ones(keys.shape, dtype=np.int64)
        bits = self._hash.batch(keys)
        return (bits * 2 - 1).astype(np.int64)


class HashPair:
    """The (bucket hash, sign hash) pair backing one sketch row."""

    def __init__(self, width: int, seed: int, signed: bool = True) -> None:
        self.index = PairwiseHash(width, seed)
        self.sign = SignHash(seed ^ 0xA5A5A5A5A5A5A5A5, constant_one=not signed)

    def __call__(self, key: int):
        """Return ``(bucket, sign)`` for ``key``."""
        return self.index(key), self.sign(key)


def make_hash_pairs(
    depth: int,
    width: int,
    seed: int,
    signed: bool = True,
) -> List[HashPair]:
    """Create ``depth`` independent :class:`HashPair` rows.

    Each row receives a seed derived from ``seed`` via SplitMix64 so rows
    are mutually independent yet the whole sketch is reproducible from a
    single integer.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1, got %d" % depth)
    rng = SplitMix64(seed)
    return [HashPair(width, rng.next_u64(), signed=signed) for _ in range(depth)]


def derive_seeds(seed: int, count: int) -> List[int]:
    """Return ``count`` independent 64-bit seeds derived from ``seed``."""
    rng = SplitMix64(seed)
    return [rng.next_u64() for _ in range(count)]


def key_array(keys: List[int]) -> "np.ndarray":
    """A list of Python-int flow keys as the 64-bit array the hashes read.

    ``int64`` when every key fits (wire keys may be negative), else
    ``uint64`` when every key is in ``[0, 2**64)``; an empty list gives
    an empty ``int64`` array.  ``np.asarray`` alone makes a list that
    spans both halves of the ``uint64`` range ``float64``, and those
    keys then hash as other flows.  Keys no one 64-bit dtype holds (a
    negative key beside one of ``2**63`` or more) raise ``ValueError``.
    """
    for dtype in (np.int64, np.uint64):
        try:
            return np.fromiter(keys, dtype, len(keys))
        except OverflowError:
            pass
    raise ValueError("flow keys fit neither int64 nor uint64")


class MultiplyShiftHash:
    """Dietzfelbinger multiply-shift hash: 2-universal, branch-free, fast.

    ``h(x) = fastrange(((a*x + b) mod 2**64) >> 32, width)`` with odd
    ``a``, where ``fastrange(v, w) = (v * w) >> 32`` maps a 32-bit value
    onto ``[0, width)`` without a modulo.  This is the family the hot
    vectorised update paths use: NumPy's ``uint64`` multiplication wraps
    modulo ``2**64`` natively so a batch of a million keys hashes in a
    handful of SIMD instructions -- the Python analogue of the paper's
    AVX hashing (Idea D).  Any positive ``width`` is supported.
    """

    def __init__(self, width: int, seed: int) -> None:
        if width < 1:
            raise ValueError("width must be positive, got %d" % width)
        if width > (1 << 32):
            raise ValueError("width must fit in 32 bits, got %d" % width)
        self.width = width
        rng = SplitMix64(seed)
        self._a = rng.next_nonzero_u64() | 1  # multiplier must be odd
        self._b = rng.next_u64()
        # Pre-boxed NumPy constants: boxing Python ints into uint64
        # scalars per batch call used to dominate this hot path.  Array
        # arithmetic wraps modulo 2**64 silently, so no errstate needed.
        self._a_u64 = np.uint64(self._a)
        self._b_u64 = np.uint64(self._b)
        self._width_u64 = np.uint64(width)

    def __call__(self, key: int) -> int:
        if self.width == 1:
            return 0
        mixed = ((self._a * (key & MASK64)) + self._b) & MASK64
        return ((mixed >> 32) * self.width) >> 32

    def batch(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorised hashing; returns int64 bucket indices."""
        if self.width == 1:
            return np.zeros(np.asarray(keys).shape, dtype=np.int64)
        ks = np.asarray(keys).astype(np.uint64, copy=False)
        mixed = ks * self._a_u64 + self._b_u64
        top = mixed >> _U64_32
        return ((top * self._width_u64) >> _U64_32).astype(np.int64)


class MultiplyShiftSign:
    """Branch-free ±1 sign hash built from one multiply-shift bit."""

    def __init__(self, seed: int, constant_one: bool = False) -> None:
        self.constant_one = constant_one
        self._hash = MultiplyShiftHash(2, seed)

    def __call__(self, key: int) -> int:
        if self.constant_one:
            return 1
        return 1 if self._hash(key) == 1 else -1

    def batch(self, keys: "np.ndarray") -> "np.ndarray":
        keys = np.asarray(keys)
        if self.constant_one:
            return np.ones(keys.shape, dtype=np.int64)
        return (self._hash.batch(keys) * 2 - 1).astype(np.int64)
