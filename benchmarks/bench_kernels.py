"""Fused-kernel benchmarks: the batch hash, update and query paths.

``python -m repro.experiments.kernelbench --write`` regenerates the
committed ``BENCH_kernels.json`` baseline that ``scripts/check_perf.py``
guards.
"""

import numpy as np

from repro.core import NitroSketch
from repro.hashing.families import KWiseHash
from repro.sketches import CountMinSketch, CountSketch


def test_kwise_batch_fused(benchmark, caida_keys):
    """Native uint64 Mersenne-61 four-wise hashing."""
    hash_fn = KWiseHash(4, 102400, seed=11)
    benchmark(lambda: hash_fn.batch(caida_keys))


def test_countmin_update_batch_fused(benchmark, caida_keys):
    """Fused flat-index Count-Min batch updates."""
    sketch = CountMinSketch(5, 102400, seed=21)
    benchmark(lambda: sketch.update_batch(caida_keys))


def test_countsketch_update_batch_fused(benchmark, caida_keys):
    """Fused signed batch updates (one hash matrix, one scatter)."""
    sketch = CountSketch(5, 102400, seed=22)
    benchmark(lambda: sketch.update_batch(caida_keys))


def test_nitro_update_batch_fused(benchmark, caida_keys):
    """Fused NitroSketch batch path: slot kernel + ``query_batch`` offers."""
    nitro = NitroSketch(CountSketch(5, 102400, seed=31), probability=0.01, top_k=100)
    benchmark(lambda: nitro.update_batch(caida_keys))


def test_query_batch_fused(benchmark, caida_keys):
    """Vectorised batch point queries."""
    sketch = CountSketch(5, 102400, seed=41)
    sketch.update_batch(caida_keys)
    probe = np.unique(caida_keys)[:50_000]
    benchmark(lambda: sketch.query_batch(probe))
