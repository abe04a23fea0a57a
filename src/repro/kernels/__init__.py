"""Consolidated vectorised kernels for the batch hot paths.

Every batch update/query in the repository routes through this layer
(ROADMAP north-star: "runs as fast as the hardware allows"):

* :mod:`repro.kernels.mersenne` -- native ``uint64`` Mersenne-61
  polynomial hashing (replaces the object-dtype big-int path);
* :mod:`repro.kernels.scatter` -- flat-index ``bincount`` scatter-adds
  (replaces per-row ``np.add.at`` loops);
* :mod:`repro.kernels.distinct` -- sorted distinct keys by sort and
  adjacent-duplicate mask, and the distinct count of sorted input
  (both in place of ``np.unique``'s hash-table path);
* :mod:`repro.kernels.median` -- the column-wise lower median of an
  estimate matrix by a sorting network over its rows (in place of one
  ``np.sort`` per column);
* :mod:`repro.kernels.rowkernel` -- :class:`SketchKernel`, the fused
  whole-sketch update/query engine (replaces per-row Python loops).

``benchmarks/bench_kernels.py`` times the kernels;
``scripts/check_perf.py`` guards the rates recorded in
``BENCH_kernels.json``.
"""

from repro.kernels.distinct import sorted_distinct, sorted_distinct_count
from repro.kernels.median import lower_median_rows
from repro.kernels.mersenne import (
    fold_mersenne,
    kwise_raw_batch,
    mulmod_mersenne,
    reduce_keys_mersenne,
)
from repro.kernels.rowkernel import SketchKernel
from repro.kernels.scatter import scatter_add_2d, scatter_add_flat

__all__ = [
    "SketchKernel",
    "fold_mersenne",
    "kwise_raw_batch",
    "lower_median_rows",
    "mulmod_mersenne",
    "reduce_keys_mersenne",
    "scatter_add_2d",
    "scatter_add_flat",
    "sorted_distinct",
    "sorted_distinct_count",
]
