"""Fused whole-sketch hashing, update and query kernels.

A :class:`CanonicalSketch` owns ``depth`` independent (bucket hash, sign
hash) pairs.  The seed implementation drove them one row at a time from
Python (``for row in range(depth): row_hashes[row].batch(...)``), plus a
``np.add.at`` scatter per row.  :class:`SketchKernel` collapses all of
that into single NumPy expressions:

* the per-row hash constants are gathered once into ``(depth, 1)``
  arrays, so hashing a batch against *every* row is one broadcast
  ufunc call per arithmetic step over a ``(depth, n)`` column block of
  up to ``_HASH_BLOCK`` keys -- the Python analogue of the paper's AVX
  lanes (Idea D);
* counter updates become one flat-index scatter-add over the
  ``(depth * width,)`` view (``row * width + bucket``), via
  :func:`repro.kernels.scatter.scatter_add_2d`;
* batch point queries gather a ``(depth, n)`` estimate matrix in one
  flat-index ``np.take``, ready for a vectorised ``combine_rows``.

Sketches built from the multiply-shift or xxhash row families use the
closed-form fused path; any other family falls back to a per-row
``batch()`` loop (still one scatter), so custom families keep working.
All paths are bit-exact with the scalar ``row_bucket``/``row_sign``
evaluation -- asserted in ``tests/test_kernels.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.scatter import scatter_add_2d, scatter_add_flat

_SHIFT_32 = np.uint64(32)
_SHIFT_63 = np.uint64(63)

#: Keys per column block of the multiply-shift matrices.  Each step is
#: one broadcast call over a ``(depth, block)`` slice: whole-matrix
#: steps outgrow the L2 cache past about 64k keys and then read slower
#: than a loop over the rows, while smaller batches take one block.
_HASH_BLOCK = 16384


class SketchKernel:
    """Vectorised update/query engine bound to one canonical sketch.

    The kernel caches per-row hash constants (immutable after sketch
    construction) but always reads ``sketch.counters`` at call time, so
    ``reset``/``merge``/``difference`` stay transparent.
    """

    def __init__(self, sketch) -> None:
        from repro.hashing.families import MultiplyShiftHash, MultiplyShiftSign
        from repro.hashing.rowhash import XXHashRowHash, XXHashRowSign

        self.sketch = sketch
        self.depth = sketch.depth
        self.width = sketch.width
        self.signed = sketch.signed
        self._rows = np.arange(self.depth, dtype=np.int64)[:, None]
        self._row_offsets = self._rows * np.int64(self.width)
        self._width_u64 = np.uint64(self.width)
        # Reused (depth, n) work buffers -- writing a multi-megabyte
        # matrix through a fresh allocation costs ~2.5x the arithmetic
        # (page-fault churn), and batch sizes repeat, so the kernel keeps
        # its scratch space warm.  See the matrix-method docstrings for
        # the resulting buffer-reuse contract.
        self._buffers = {}

        hashes = sketch.row_hashes
        if all(type(h) is MultiplyShiftHash for h in hashes):
            self._hash_mode = "ms"
            self._ha = np.array([h._a for h in hashes], dtype=np.uint64)[:, None]
            self._hb = np.array([h._b for h in hashes], dtype=np.uint64)[:, None]
        elif all(type(h) is XXHashRowHash for h in hashes):
            self._hash_mode = "xx"
            self._hseeds = np.array([h.seed for h in hashes], dtype=np.uint64)[:, None]
        else:
            self._hash_mode = "generic"

        signs = sketch.row_signs
        if not self.signed:
            self._sign_mode = "one"
        elif all(type(g) is MultiplyShiftSign and not g.constant_one for g in signs):
            self._sign_mode = "ms"
            self._sa = np.array([g._hash._a for g in signs], dtype=np.uint64)[:, None]
            self._sb = np.array([g._hash._b for g in signs], dtype=np.uint64)[:, None]
        elif all(type(g) is XXHashRowSign and not g.constant_one for g in signs):
            self._sign_mode = "xx"
            self._sseeds = np.array([g.seed for g in signs], dtype=np.uint64)[:, None]
        else:
            self._sign_mode = "generic"

    # -- key preparation ---------------------------------------------------

    @staticmethod
    def _as_u64(keys: "np.ndarray") -> "np.ndarray":
        """64-bit wrap of the key array (matches scalar ``key & MASK64``)."""
        return np.asarray(keys).astype(np.uint64, copy=False)

    def _scratch(self, name: str, shape, dtype) -> "np.ndarray":
        """A cached work buffer, reallocated only when the shape changes."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
        return buf

    # -- bucket hashing ----------------------------------------------------

    def bucket_matrix(self, keys: "np.ndarray") -> "np.ndarray":
        """``(depth, n)`` bucket indices: row ``r`` holds ``h_r(keys)``.

        The returned array is a kernel-owned scratch buffer on the fast
        paths: it is overwritten by the next matrix call on this kernel,
        so copy it if it must outlive the call.
        """
        if self._hash_mode == "ms":
            return self._ms_bucket_matrix(self._as_u64(keys))
        if self._hash_mode == "xx":
            return self._xx_buckets(self._hseeds, self._as_u64(keys))
        return np.stack([h.batch(keys) for h in self.sketch.row_hashes])

    def slot_buckets(self, rows: "np.ndarray", keys: "np.ndarray") -> "np.ndarray":
        """Per-slot buckets: element ``i`` is ``h_{rows[i]}(keys[i])``."""
        if self._hash_mode == "ms":
            return self._ms_buckets(
                self._ha.ravel()[rows], self._hb.ravel()[rows], self._as_u64(keys)
            )
        if self._hash_mode == "xx":
            return self._xx_buckets(self._hseeds.ravel()[rows], self._as_u64(keys))
        return self._generic_slots(self.sketch.row_hashes, rows, keys)

    def _ms_buckets(self, a, b, ku: "np.ndarray") -> "np.ndarray":
        if self.width == 1:
            return np.zeros(np.broadcast_shapes(a.shape, ku.shape), dtype=np.int64)
        mixed = ku * a + b
        return (((mixed >> _SHIFT_32) * self._width_u64) >> _SHIFT_32).astype(np.int64)

    def _ms_bucket_matrix(self, ku: "np.ndarray") -> "np.ndarray":
        """Every row's multiply-shift buckets, one broadcast call per step.

        The ``(depth, 1)`` constants broadcast against the keys, so each
        column block costs five ufunc calls whatever the depth; the
        result is the ``bucket_out`` scratch buffer.
        """
        shape = (self.depth, ku.shape[0])
        if self.width == 1:
            return np.zeros(shape, dtype=np.int64)
        work = self._scratch("bucket_work", shape, np.uint64)
        for start in range(0, shape[1], _HASH_BLOCK):
            block = work[:, start : start + _HASH_BLOCK]
            np.multiply(self._ha, ku[start : start + _HASH_BLOCK], out=block)
            block += self._hb
            block >>= _SHIFT_32
            block *= self._width_u64
            block >>= _SHIFT_32
        out = self._scratch("bucket_out", shape, np.int64)
        np.copyto(out, work, casting="unsafe")
        return out

    def _xx_buckets(self, seeds, ku: "np.ndarray") -> "np.ndarray":
        from repro.hashing.xxhash import xxhash32_batch

        hashes = xxhash32_batch(ku, seeds).astype(np.uint64)
        return ((hashes * self._width_u64) >> _SHIFT_32).astype(np.int64)

    def _generic_slots(self, families, rows, keys) -> "np.ndarray":
        keys = np.asarray(keys)
        out = np.empty(len(keys), dtype=np.int64)
        for row in range(self.depth):
            mask = rows == row
            if np.any(mask):
                out[mask] = families[row].batch(keys[mask])
        return out

    # -- sign hashing ------------------------------------------------------

    def sign_matrix(self, keys: "np.ndarray") -> Optional["np.ndarray"]:
        """``(depth, n)`` float ±1 signs, or ``None`` for unsigned sketches.

        Like :meth:`bucket_matrix`, the result is a reused kernel-owned
        buffer on the fast paths.
        """
        if self._sign_mode == "one":
            return None
        if self._sign_mode == "ms":
            return self._ms_sign_matrix(self._as_u64(keys))
        if self._sign_mode == "xx":
            return self._xx_signs(self._sseeds, self._as_u64(keys))
        return np.stack(
            [g.batch(keys) for g in self.sketch.row_signs]
        ).astype(np.float64)

    def slot_signs(self, rows: "np.ndarray", keys: "np.ndarray") -> Optional["np.ndarray"]:
        """Per-slot signs: element ``i`` is ``g_{rows[i]}(keys[i])``."""
        if self._sign_mode == "one":
            return None
        if self._sign_mode == "ms":
            return self._ms_signs(
                self._sa.ravel()[rows], self._sb.ravel()[rows], self._as_u64(keys)
            )
        if self._sign_mode == "xx":
            return self._xx_signs(self._sseeds.ravel()[rows], self._as_u64(keys))
        return self._generic_slots(self.sketch.row_signs, rows, keys).astype(np.float64)

    @staticmethod
    def _ms_signs(a, b, ku: "np.ndarray") -> "np.ndarray":
        # MultiplyShiftSign maps through a width-2 multiply-shift:
        # bucket 1 (sign +1) iff bit 63 of a*key + b is set.
        bit = ((ku * a + b) >> _SHIFT_63).astype(np.int64)
        return (bit * 2 - 1).astype(np.float64)

    def _ms_sign_matrix(self, ku: "np.ndarray") -> "np.ndarray":
        """Every row's ±1 signs: bit 63 of ``a*key + b``, as in
        :meth:`_ms_signs`, from three broadcast calls per column block;
        the result is the ``sign_out`` scratch buffer."""
        shape = (self.depth, ku.shape[0])
        bits = self._scratch("sign_work", shape, np.uint64)
        for start in range(0, shape[1], _HASH_BLOCK):
            block = bits[:, start : start + _HASH_BLOCK]
            np.multiply(self._sa, ku[start : start + _HASH_BLOCK], out=block)
            block += self._sb
            block >>= _SHIFT_63
        signs = self._scratch("sign_out", shape, np.float64)
        np.copyto(signs, bits, casting="unsafe")
        signs *= 2.0
        signs -= 1.0
        return signs

    @staticmethod
    def _xx_signs(seeds, ku: "np.ndarray") -> "np.ndarray":
        from repro.hashing.xxhash import xxhash32_batch

        bit = (xxhash32_batch(ku, seeds) & np.uint32(1)).astype(np.int64)
        return (bit * 2 - 1).astype(np.float64)

    # -- fused update / query ----------------------------------------------

    def update(self, keys: "np.ndarray", weights: Optional["np.ndarray"] = None) -> None:
        """Apply one vanilla all-rows update per key, in one scatter."""
        buckets = self.bucket_matrix(keys)
        signs = self.sign_matrix(keys)
        if weights is None:
            values = signs  # None for unsigned: unit increments
        elif signs is not None:
            values = self._scratch("values", signs.shape, np.float64)
            np.multiply(signs, np.asarray(weights, dtype=np.float64), out=values)
        else:
            values = np.broadcast_to(
                np.asarray(weights, dtype=np.float64), buckets.shape
            )
        counters = self.sketch.counters
        if not counters.flags.c_contiguous:
            scatter_add_2d(counters, self._rows, buckets, values)
            return
        # Flat-index scatter with a scratch index buffer (a fresh
        # multi-megabyte temporary per batch costs more in page faults
        # than the scatter itself).
        indices = self._scratch("flat_idx", buckets.shape, np.int64)
        np.add(buckets, self._row_offsets, out=indices)
        scatter_add_flat(
            counters.reshape(-1),
            indices.ravel(),
            None if values is None else values.ravel(),
        )

    def slot_update(
        self,
        rows: "np.ndarray",
        keys: "np.ndarray",
        values: "np.ndarray",
        profiler=None,
    ) -> None:
        """Apply per-slot updates ``C[rows[i]][h(keys[i])] += values[i]``.

        This is NitroSketch's sampled path: ``rows`` carries the row of
        each geometrically sampled slot and ``values`` the
        ``p**-1``-scaled increments.  ``profiler`` (a
        :class:`~repro.telemetry.profile.StageProfiler` on a sampled
        batch) splits the timing into ``row_hash`` and ``scatter``.
        """
        if profiler is None or not profiler.active:
            buckets = self.slot_buckets(rows, keys)
            signs = self.slot_signs(rows, keys)
            if signs is not None:
                values = values * signs
            scatter_add_2d(self.sketch.counters, rows, buckets, values)
            return
        with profiler.stage("row_hash"):
            buckets = self.slot_buckets(rows, keys)
            signs = self.slot_signs(rows, keys)
            if signs is not None:
                values = values * signs
        with profiler.stage("scatter"):
            scatter_add_2d(self.sketch.counters, rows, buckets, values)

    def estimate_matrix(self, keys: "np.ndarray") -> "np.ndarray":
        """``(depth, n)`` per-row estimates ``C[r][h_r(key)] * g_r(key)``.

        One ``np.take`` over the flat counter view, indexed by
        ``row * width + bucket`` (the scatter index :meth:`update`
        builds), reads every row at once; a 2-D fancy-index gather takes
        over twice as long at a few thousand keys.  A non-contiguous
        counter grid is flattened into a copy first.  The result is a
        new array.
        """
        buckets = self.bucket_matrix(keys)
        indices = self._scratch("gather_idx", buckets.shape, np.int64)
        np.add(buckets, self._row_offsets, out=indices)
        values = np.take(self.sketch.counters.reshape(-1), indices)
        signs = self.sign_matrix(keys)
        if signs is not None:
            np.multiply(values, signs, out=values)
        return values
