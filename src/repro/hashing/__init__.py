"""Hashing substrate for the NitroSketch reproduction.

This package provides the hash-function machinery every sketch in the
repository is built on:

* :mod:`repro.hashing.prng` -- deterministic, fast pseudo-random number
  generators (xorshift64*, SplitMix64) used for seeding and for the
  geometric sampling in the NitroSketch data plane.
* :mod:`repro.hashing.families` -- k-wise independent hash families over
  the Mersenne prime ``2**61 - 1`` (pairwise and four-wise), including the
  ``{-1, +1}`` sign hashes Count Sketch requires, with vectorised (NumPy)
  batch evaluation.
* :mod:`repro.hashing.xxhash` -- a bit-exact pure-Python port of xxHash32,
  the hash the paper's C implementation uses, plus a vectorised variant.
* :mod:`repro.hashing.tabulation` -- simple tabulation hashing
  (3-independent, and behaves like a fully random function in practice).
"""

from repro.hashing.prng import SplitMix64, XorShift64Star
from repro.hashing.families import (
    MERSENNE_PRIME_61,
    KWiseHash,
    PairwiseHash,
    FourWiseHash,
    SignHash,
    HashPair,
    MultiplyShiftHash,
    MultiplyShiftSign,
    make_hash_pairs,
    derive_seeds,
    key_array,
)
from repro.hashing.xxhash import xxhash32, xxhash32_u64, xxhash32_batch
from repro.hashing.tabulation import TabulationHash

__all__ = [
    "SplitMix64",
    "XorShift64Star",
    "MERSENNE_PRIME_61",
    "KWiseHash",
    "PairwiseHash",
    "FourWiseHash",
    "SignHash",
    "HashPair",
    "MultiplyShiftHash",
    "MultiplyShiftSign",
    "make_hash_pairs",
    "derive_seeds",
    "key_array",
    "xxhash32",
    "xxhash32_u64",
    "xxhash32_batch",
    "TabulationHash",
]
