"""Sorted distinct values without ``np.unique``'s hash-table path.

On numpy 2.4, ``np.unique`` called without return flags deduplicates
integers through a hash table and only then sorts the result.  On the
batch sizes the ingest paths see (thousands of int64 keys) that costs
about 20x a plain sort plus an adjacent-duplicate mask: ~1.0 ms against
~50 us for 8k keys on a 2-vCPU Xeon.  :func:`sorted_distinct` is that
sort-and-mask, with ``np.unique``'s result (values and dtype).
:func:`sorted_distinct_count` counts the distinct values of input that
is already non-decreasing, with no sort at all.
"""

from __future__ import annotations

import numpy as np


def sorted_distinct(values) -> "np.ndarray":
    """The distinct values of ``values``, ascending, as a 1-D array.

    Equal to ``np.unique(values)`` for integer input.
    """
    ordered = np.sort(values, axis=None)
    if ordered.size < 2:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def sorted_distinct_count(values) -> int:
    """The number of distinct values of non-decreasing ``values``.

    Each change between neighbours starts a new value, so this is
    ``1 + count_nonzero(diff(values))`` (0 for empty input).
    """
    if len(values) == 0:
        return 0
    return 1 + int(np.count_nonzero(np.diff(values)))
