"""Bit-exactness and accounting tests for the fused batch kernels.

The kernel layer (:mod:`repro.kernels`) re-implements every batch hot
path -- k-wise Mersenne hashing, whole-sketch row hashing, flat-index
scatter-adds, batch point queries -- in pure ``uint64``/vectorised
NumPy.  These tests pin the contract: every kernel path must agree with
the scalar reference implementation element for element, and the
operation accounting of the batch entry points must match the scalar
workflow exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.families import (
    MERSENNE_PRIME_61,
    KWiseHash,
    MultiplyShiftHash,
    MultiplyShiftSign,
    SignHash,
)
from repro.hashing.rowhash import XXHashRowHash, XXHashRowSign
from repro.hashing.tabulation import TabulationHash
from repro.hashing.xxhash import xxhash32_batch, xxhash32_u64
from repro.kernels import (
    SketchKernel,
    fold_mersenne,
    kwise_raw_batch,
    lower_median_rows,
    mulmod_mersenne,
    reduce_keys_mersenne,
    scatter_add_2d,
    scatter_add_flat,
)
from repro.metrics.opcount import OpCounter
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kary import KArySketch

#: Keys that exercise every reduction boundary: zero, small, 32-bit
#: edges, the Mersenne prime itself and its neighbours, and the top of
#: the 64-bit range.
EDGE_KEYS = [
    0,
    1,
    2,
    1 << 31,
    (1 << 32) - 1,
    1 << 32,
    MERSENNE_PRIME_61 - 2,
    MERSENNE_PRIME_61 - 1,
    MERSENNE_PRIME_61,
    MERSENNE_PRIME_61 + 1,
    (1 << 63) - 1,
    (1 << 64) - 1,
]

SKETCHES = [CountMinSketch, CountSketch, KArySketch]
FAMILIES = ["multiply_shift", "xxhash"]


def _keys(n: int = 257, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    drawn = rng.integers(0, 1 << 63, size=n, dtype=np.int64)
    return np.concatenate([np.array(EDGE_KEYS, dtype=np.uint64).astype(np.int64), drawn])


# -- Mersenne field kernel -------------------------------------------------


def test_fold_mersenne_matches_modulo_for_all_uint64_edges():
    values = np.array(
        EDGE_KEYS + [(1 << 61) + 7, (1 << 62) - 1, (1 << 62)], dtype=np.uint64
    )
    expected = np.array([int(v) % MERSENNE_PRIME_61 for v in values], dtype=np.uint64)
    np.testing.assert_array_equal(fold_mersenne(values), expected)


def test_mulmod_mersenne_congruent_and_bounded():
    rng = np.random.default_rng(7)
    a = rng.integers(0, MERSENNE_PRIME_61, size=512, dtype=np.uint64)
    b = rng.integers(0, MERSENNE_PRIME_61, size=512, dtype=np.uint64)
    # Include the extreme field elements.
    a[:2] = [MERSENNE_PRIME_61 - 1, 0]
    b[:2] = [MERSENNE_PRIME_61 - 1, MERSENNE_PRIME_61 - 1]
    raw = mulmod_mersenne(a, b)
    assert int(raw.max()) < 5 * (1 << 61)  # fits the documented headroom
    got = fold_mersenne(raw)
    expected = np.array(
        [(int(x) * int(y)) % MERSENNE_PRIME_61 for x, y in zip(a, b)], dtype=np.uint64
    )
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, object])
def test_reduce_keys_matches_python_mod(dtype):
    if dtype is object:
        keys = np.array([-5, -1, 0, 3, MERSENNE_PRIME_61 * 3 + 11, 1 << 80], dtype=object)
    elif dtype is np.int64:
        keys = np.array([-5, -1, 0, 3, (1 << 62) + 9], dtype=np.int64)
    else:
        keys = np.array(EDGE_KEYS, dtype=np.uint64)
    got = reduce_keys_mersenne(keys)
    assert got.dtype == np.uint64
    expected = np.array([int(k) % MERSENNE_PRIME_61 for k in keys], dtype=np.uint64)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("width", [1, 2, 977, 1 << 20])
def test_kwise_batch_bit_exact_with_scalar(k, width):
    h = KWiseHash(k, width, seed=0xC0FFEE + k)
    keys = _keys(seed=k)
    raw = h.raw_batch(keys)
    assert raw.dtype == np.uint64
    np.testing.assert_array_equal(
        raw, np.array([h.raw(int(key)) for key in keys], dtype=np.uint64)
    )
    buckets = h.batch(keys)
    assert buckets.dtype == np.int64
    np.testing.assert_array_equal(
        buckets, np.array([h(int(key)) for key in keys], dtype=np.int64)
    )


def test_kwise_batch_handles_negative_keys():
    h = KWiseHash(4, 1024, seed=42)
    keys = np.array([-1, -7, -(1 << 40), np.iinfo(np.int64).min], dtype=np.int64)
    np.testing.assert_array_equal(
        h.batch(keys), np.array([h(int(key)) for key in keys], dtype=np.int64)
    )


def test_kwise_coefficients_are_native_uint64():
    # The tentpole contract: no object-dtype big-int arrays anywhere in
    # the batch path.
    h = KWiseHash(4, 1024, seed=9)
    assert h._coeffs_u64.dtype == np.uint64
    assert kwise_raw_batch(np.array([3], dtype=np.uint64), h._coeffs_u64).dtype == np.uint64


def test_kwise_horner_partial_reduction_worst_case():
    # All-max coefficients with the largest field element keeps the
    # accumulator at the partial-reduction ceiling every iteration.
    coeffs = np.full(8, MERSENNE_PRIME_61 - 1, dtype=np.uint64)
    keys = np.array([MERSENNE_PRIME_61 - 1, MERSENNE_PRIME_61 - 2], dtype=np.uint64)
    got = kwise_raw_batch(keys, coeffs)
    for key, value in zip(keys.tolist(), got.tolist()):
        acc = 0
        for coeff in coeffs.tolist():
            acc = (acc * key + coeff) % MERSENNE_PRIME_61
        assert value == acc


# -- hash family batch parity ----------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: SignHash(seed=123),
        lambda: SignHash(seed=123, constant_one=True),
        lambda: MultiplyShiftSign(seed=77),
        lambda: MultiplyShiftSign(seed=77, constant_one=True),
        lambda: XXHashRowSign(seed=55),
        lambda: XXHashRowSign(seed=55, constant_one=True),
    ],
    ids=["sign", "sign-one", "ms-sign", "ms-sign-one", "xx-sign", "xx-sign-one"],
)
def test_sign_batch_matches_scalar(make):
    h = make()
    keys = _keys(seed=3)
    got = h.batch(keys)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(
        got, np.array([h(int(key)) for key in keys], dtype=np.int64)
    )


@pytest.mark.parametrize("width", [1, 2, 977, 1 << 20])
def test_multiply_shift_batch_matches_scalar(width):
    h = MultiplyShiftHash(width, seed=31337)
    keys = _keys(seed=5)
    np.testing.assert_array_equal(
        h.batch(keys), np.array([h(int(key)) for key in keys], dtype=np.int64)
    )


@pytest.mark.parametrize("width", [1, 977, 1 << 20])
def test_xxhash_rowhash_batch_matches_scalar(width):
    h = XXHashRowHash(width, seed=99)
    keys = _keys(seed=6)
    np.testing.assert_array_equal(
        h.batch(keys), np.array([h(int(key)) for key in keys], dtype=np.int64)
    )


def test_xxhash32_batch_array_seed_matches_int_seed():
    keys = _keys(seed=8).astype(np.uint64)
    seeds = np.array([0, 1, 0xDEADBEEF], dtype=np.uint64)[:, None]
    fused = xxhash32_batch(keys, seeds)
    assert fused.shape == (3, len(keys))
    for i, seed in enumerate(seeds.ravel().tolist()):
        np.testing.assert_array_equal(fused[i], xxhash32_batch(keys, int(seed)))
        assert int(fused[i, 0]) == xxhash32_u64(int(keys[0]), int(seed))


def test_tabulation_batch_matches_scalar():
    h = TabulationHash(seed=2024, width=4096)
    keys = _keys(seed=9)
    np.testing.assert_array_equal(
        h.batch(keys),
        np.array([h.hash64(int(key)) for key in keys], dtype=np.uint64),
    )
    np.testing.assert_array_equal(
        h.batch_ranged(keys),
        np.array(
            [h.hash64(int(key)) % 4096 for key in keys], dtype=np.int64
        ),
    )


# -- scatter kernels -------------------------------------------------------


@pytest.mark.parametrize("size,n", [(64, 1000), (1 << 16, 10)], ids=["dense", "sparse"])
def test_scatter_add_flat_matches_add_at(size, n):
    rng = np.random.default_rng(11)
    indices = rng.integers(0, size, size=n, dtype=np.int64)
    values = rng.normal(size=n)
    got = np.zeros(size)
    scatter_add_flat(got, indices, values)
    expected = np.zeros(size)
    np.add.at(expected, indices, values)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_scatter_add_2d_broadcasts_matrix_updates():
    rng = np.random.default_rng(12)
    counters = np.zeros((4, 32))
    rows = np.arange(4)[:, None]
    buckets = rng.integers(0, 32, size=(4, 100), dtype=np.int64)
    values = rng.normal(size=(4, 100))
    scatter_add_2d(counters, rows, buckets, values)
    expected = np.zeros((4, 32))
    np.add.at(expected, (np.broadcast_to(rows, buckets.shape), buckets), values)
    np.testing.assert_allclose(counters, expected, rtol=1e-12, atol=1e-12)


def test_scatter_add_2d_non_contiguous_fallback():
    base = np.zeros((4, 64))
    view = base[:, ::2]  # not C-contiguous
    rows = np.array([0, 1, 1, 3])
    buckets = np.array([5, 7, 7, 0])
    scatter_add_2d(view, rows, buckets, np.ones(4))
    assert view[1, 7] == 2.0 and view[0, 5] == 1.0 and view[3, 0] == 1.0


# -- whole-sketch kernel parity --------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sketch_cls", SKETCHES)
def test_kernel_matrices_match_scalar_rows(sketch_cls, family):
    sketch = sketch_cls(depth=4, width=512, seed=17, hash_family=family)
    kernel = sketch.kernel
    assert isinstance(kernel, SketchKernel)
    keys = _keys(seed=13)
    buckets = kernel.bucket_matrix(keys)
    for row in range(sketch.depth):
        np.testing.assert_array_equal(
            buckets[row],
            np.array([sketch.row_hashes[row](int(k)) for k in keys], dtype=np.int64),
        )
    signs = kernel.sign_matrix(keys)
    if not sketch.signed:
        assert signs is None
    else:
        for row in range(sketch.depth):
            np.testing.assert_array_equal(
                signs[row].astype(np.int64),
                np.array([sketch.row_signs[row](int(k)) for k in keys], dtype=np.int64),
            )


@pytest.mark.parametrize("sketch_cls", [CountMinSketch, CountSketch])
def test_kernel_matrices_span_column_blocks(sketch_cls):
    """A batch longer than one hash block hashes like the row families'
    own batch paths, block seams included."""
    from repro.kernels.rowkernel import _HASH_BLOCK

    sketch = sketch_cls(depth=4, width=512, seed=17)
    keys = _keys(2 * _HASH_BLOCK + 3, seed=14)
    buckets = sketch.kernel.bucket_matrix(keys)
    np.testing.assert_array_equal(
        buckets, np.stack([h.batch(keys) for h in sketch.row_hashes])
    )
    signs = sketch.kernel.sign_matrix(keys)
    if sketch.signed:
        np.testing.assert_array_equal(
            signs, np.stack([g.batch(keys) for g in sketch.row_signs])
        )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("signed", [False, True])
def test_kernel_slot_paths_match_scalar(family, signed):
    sketch_cls = CountSketch if signed else CountMinSketch
    sketch = sketch_cls(depth=5, width=256, seed=23, hash_family=family)
    kernel = sketch.kernel
    rng = np.random.default_rng(14)
    rows = rng.integers(0, 5, size=400, dtype=np.int64)
    keys = _keys(n=400 - len(EDGE_KEYS), seed=15)[:400]
    rows = rows[: len(keys)]
    buckets = kernel.slot_buckets(rows, keys)
    expected = np.array(
        [sketch.row_hashes[int(r)](int(k)) for r, k in zip(rows, keys)], dtype=np.int64
    )
    np.testing.assert_array_equal(buckets, expected)
    signs = kernel.slot_signs(rows, keys)
    if signed:
        expected_signs = np.array(
            [sketch.row_signs[int(r)](int(k)) for r, k in zip(rows, keys)],
            dtype=np.int64,
        )
        np.testing.assert_array_equal(signs.astype(np.int64), expected_signs)
    else:
        assert signs is None


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sketch_cls", SKETCHES)
def test_update_batch_counters_bit_equal_scalar(sketch_cls, family):
    scalar = sketch_cls(depth=5, width=128, seed=3, hash_family=family)
    batch = sketch_cls(depth=5, width=128, seed=3, hash_family=family)
    rng = np.random.default_rng(16)
    keys = rng.integers(0, 5000, size=4000, dtype=np.int64)
    for key in keys.tolist():
        scalar.update(key)
    batch.update_batch(keys)
    # Unit weights sum to integers: the scatter order cannot change the
    # result, so equality is exact.
    np.testing.assert_array_equal(scalar.counters, batch.counters)


@pytest.mark.parametrize("sketch_cls", SKETCHES)
def test_update_batch_weighted_matches_scalar(sketch_cls):
    scalar = sketch_cls(depth=5, width=128, seed=4)
    batch = sketch_cls(depth=5, width=128, seed=4)
    rng = np.random.default_rng(17)
    keys = rng.integers(0, 500, size=1000, dtype=np.int64)
    weights = rng.uniform(0.5, 4.0, size=1000)
    for key, weight in zip(keys.tolist(), weights.tolist()):
        scalar.update(key, weight)
    batch.update_batch(keys, weights)
    np.testing.assert_allclose(scalar.counters, batch.counters, rtol=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sketch_cls", SKETCHES)
def test_query_batch_matches_scalar_query(sketch_cls, family):
    sketch = sketch_cls(depth=5, width=128, seed=5, hash_family=family)
    rng = np.random.default_rng(18)
    keys = rng.integers(0, 2000, size=3000, dtype=np.int64)
    sketch.update_batch(keys)
    probe = np.arange(0, 2500, dtype=np.int64)  # includes unseen keys
    got = sketch.query_batch(probe)
    expected = np.array([sketch.query(int(k)) for k in probe], dtype=np.float64)
    np.testing.assert_array_equal(got, expected)


def test_query_batch_empty():
    sketch = CountSketch(depth=3, width=64, seed=1)
    assert sketch.query_batch(np.array([], dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("n", [0, 1, 7, 3300])
@pytest.mark.parametrize("depth", range(1, 9))
def test_lower_median_rows_equals_sort_median(depth, n):
    rng = np.random.default_rng(depth * 10000 + n)
    # Half the entries from a small set (ties, zeros and infinities),
    # half continuous.
    ties = rng.choice([-np.inf, -2.0, -0.0, 0.0, 1.5, np.inf], size=(depth, n))
    matrix = np.where(rng.random((depth, n)) < 0.5, ties, rng.normal(size=(depth, n)))
    before = matrix.copy()
    got = lower_median_rows(matrix)
    expected = np.sort(matrix, axis=0)[(depth - 1) // 2]
    assert got.shape == expected.shape and got.dtype == expected.dtype
    # By value: np.sort orders -0.0 and 0.0 arbitrarily.
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(matrix, before)
    assert not np.shares_memory(got, matrix)


def _fancy_estimates(kernel, keys):
    """The 2-D fancy-index gather ``estimate_matrix`` replaced."""
    values = kernel.sketch.counters[kernel._rows, kernel.bucket_matrix(keys)]
    signs = kernel.sign_matrix(keys)
    return values if signs is None else values * signs


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sketch_cls", SKETCHES)
def test_estimate_matrix_equals_fancy_index_read(sketch_cls, family):
    sketch = sketch_cls(depth=5, width=257, seed=21, hash_family=family)
    sketch.update_batch(_keys(n=4000, seed=22))
    kernel = sketch.kernel
    keys = _keys(n=3300, seed=23)
    assert sketch.counters.flags.c_contiguous
    assert kernel.estimate_matrix(keys).tobytes() == _fancy_estimates(kernel, keys).tobytes()
    # The same counters as a strided (non-contiguous) view.
    wide = np.zeros((sketch.depth, 2 * sketch.width))
    wide[:, ::2] = sketch.counters
    sketch.counters = wide[:, ::2]
    assert not sketch.counters.flags.c_contiguous
    assert kernel.estimate_matrix(keys).tobytes() == _fancy_estimates(kernel, keys).tobytes()


# -- operation accounting --------------------------------------------------


@pytest.mark.parametrize("sketch_cls", SKETCHES)
def test_update_batch_ops_match_scalar(sketch_cls):
    keys = np.arange(500, dtype=np.int64)
    scalar = sketch_cls(depth=5, width=64, seed=6)
    scalar.ops = OpCounter()
    for key in keys.tolist():
        scalar.update(key)
    batch = sketch_cls(depth=5, width=64, seed=6)
    batch.ops = OpCounter()
    batch.update_batch(keys)
    assert batch.ops.as_dict() == scalar.ops.as_dict()


@pytest.mark.parametrize("sketch_cls", SKETCHES)
def test_query_batch_ops_match_scalar(sketch_cls):
    keys = np.arange(300, dtype=np.int64)
    sketch = sketch_cls(depth=5, width=64, seed=7)
    sketch.update_batch(keys)
    sketch.ops = OpCounter()
    for key in keys.tolist():
        sketch.query(int(key))
    scalar_ops = sketch.ops.as_dict()
    sketch.ops = OpCounter()
    sketch.query_batch(keys)
    assert sketch.ops.as_dict() == scalar_ops


def test_count_packets_false_skips_only_packet_tally():
    keys = np.arange(100, dtype=np.int64)
    counted = CountMinSketch(depth=4, width=64, seed=8)
    counted.ops = OpCounter()
    counted.update_batch(keys)
    uncounted = CountMinSketch(depth=4, width=64, seed=8)
    uncounted.ops = OpCounter()
    uncounted.update_batch(keys, count_packets=False)
    expected = counted.ops.as_dict()
    expected["packets"] = 0
    assert uncounted.ops.as_dict() == expected
    np.testing.assert_array_equal(counted.counters, uncounted.counters)


# -- NitroSketch sampled-slot parity ---------------------------------------


def _legacy_slot_update(sketch, rows, keys, values):
    """The seed implementation's per-row mask + ``np.add.at`` loop."""
    for row in range(sketch.depth):
        mask = rows == row
        if not np.any(mask):
            continue
        row_keys = keys[mask]
        buckets = sketch.row_hashes[row].batch(row_keys)
        signs = sketch.row_signs[row].batch(row_keys)
        np.add.at(sketch.counters[row], buckets, values[mask] * signs)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sketch_cls", SKETCHES)
def test_slot_update_matches_legacy_reference(sketch_cls, family):
    fused = sketch_cls(depth=5, width=256, seed=9, hash_family=family)
    legacy = sketch_cls(depth=5, width=256, seed=9, hash_family=family)
    rng = np.random.default_rng(19)
    rows = rng.integers(0, 5, size=5000, dtype=np.int64)
    keys = rng.integers(0, 3000, size=5000, dtype=np.int64)
    values = np.full(5000, 20.0)  # p**-1-scaled unit weights
    fused.kernel.slot_update(rows, keys, values)
    _legacy_slot_update(legacy, rows, keys, values)
    np.testing.assert_allclose(fused.counters, legacy.counters, rtol=1e-12)


def test_kernel_reads_counters_after_reset_and_merge():
    sketch = CountSketch(depth=3, width=64, seed=10)
    keys = np.arange(200, dtype=np.int64)
    sketch.update_batch(keys)
    kernel = sketch.kernel
    sketch.reset()
    assert float(np.abs(kernel.estimate_matrix(keys)).max()) == 0.0
    other = CountSketch(depth=3, width=64, seed=10)
    other.update_batch(keys)
    sketch.merge(other)
    np.testing.assert_array_equal(
        kernel.estimate_matrix(keys), other.kernel.estimate_matrix(keys)
    )
