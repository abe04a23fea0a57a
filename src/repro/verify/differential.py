"""Differential checks: every ingest path against the vanilla oracle.

The paper's interchangeability claim (Theorems 1/2/5: same query rule,
unbiased counters, bounded error) means the repo's four ways of ingesting
the same packet stream -- scalar ``update``, fused ``update_batch``,
checkpoint-restored, and ``merge``-of-shards -- must agree:

* **bit-exact where deterministic** -- vanilla scalar vs vanilla batch
  (the fused kernels are bit-exact for integral increments), shard
  merges of linear sketches, checkpoint round-trips, reset-then-reuse
  vs fresh construction, and same-seed reruns of any one path;
* **within the Theorem-2 envelope where randomized** -- Nitro's scalar
  and batch paths draw from independent PRNG streams, so their counter
  grids differ per-draw; their *estimates* must still sit within
  ``eps * L2`` of truth, with ``eps = sqrt(8 / (w p))`` implied by the
  sketch's actual width and sampling probability.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

import numpy as np

from repro.control.export import deserialize_monitor, serialize_monitor
from repro.core.config import NitroConfig, NitroMode
from repro.core.nitro import NitroSketch
from repro.sketches.countmin import ConservativeCountMinSketch, CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kary import KArySketch
from repro.traffic.traces import Trace, caida_like
from repro.verify.result import CheckResult

#: Per-key envelope slack: Theorem 2 holds per key with probability
#: ``1 - delta`` (``delta = 2^-depth``), so demanding *every* audited key
#: sit inside ``1x`` would false-alarm on clean code.  All keys must sit
#: within ``SLACK x`` and at least ``WITHIN_FRACTION`` within ``1x``.
ENVELOPE_SLACK = 2.0
WITHIN_FRACTION = 0.9


def implied_epsilon(width: int, probability: float) -> float:
    """The eps Theorem 2 grants a (width, p) pair: ``sqrt(8 / (w p))``."""
    return math.sqrt(8.0 / (width * probability))


#: The canonical sketch families the bit-exact vanilla checks run.
_VANILLA_FAMILIES = [
    lambda s: CountSketch(5, 512, s),
    lambda s: CountMinSketch(4, 512, s),
    lambda s: KArySketch(5, 512, s),
]


def _default_trace(packets: int, seed: int) -> Trace:
    return caida_like(packets, n_flows=max(200, packets // 20), seed=seed)


def check_vanilla_scalar_vs_batch(
    packets: int = 4_000,
    seed: int = 0,
    sketch_factory: Optional[Callable[[int], object]] = None,
) -> CheckResult:
    """Scalar ``update`` and fused ``update_batch`` must be bit-exact.

    Runs every canonical sketch family plus conservative Count-Min (whose
    batch path must stay conservative) unless ``sketch_factory`` (used by
    the deliberately-broken-sketch tests) narrows it to one.
    """
    name = "differential.vanilla_scalar_vs_batch"
    trace = _default_trace(packets, seed)
    factories = (
        [sketch_factory]
        if sketch_factory is not None
        else _VANILLA_FAMILIES + [lambda s: ConservativeCountMinSketch(4, 512, s)]
    )
    for factory in factories:
        scalar = factory(seed)
        batch = factory(seed)
        for key in trace.keys.tolist():
            scalar.update(key)
        batch.update_batch(trace.keys)
        if not np.array_equal(scalar.counters, batch.counters):
            delta = float(np.max(np.abs(scalar.counters - batch.counters)))
            return CheckResult.fail(
                name,
                "%s: scalar and batch counter grids diverge (max |delta| %g)"
                % (type(scalar).__name__, delta),
                max_delta=delta,
            )
        scalar_queries = np.array(
            [scalar.query(key) for key in trace.keys[:64].tolist()]
        )
        batch_queries = batch.query_batch(trace.keys[:64])
        # Counters are bit-exact; queries get a 1e-9 relative tolerance
        # because K-ary's mass bookkeeping sums in a different order on
        # the two paths (increment/depth per row vs one bulk add).
        if not np.allclose(scalar_queries, batch_queries, rtol=1e-9, atol=1e-6):
            return CheckResult.fail(
                name,
                "%s: scalar and batch query paths disagree (max |delta| %g)"
                % (
                    type(scalar).__name__,
                    float(np.max(np.abs(scalar_queries - batch_queries))),
                ),
            )
    return CheckResult.ok(
        name,
        "scalar and fused batch ingest bit-exact over %d sketch familie(s)"
        % len(factories),
        packets=float(packets),
    )


def check_merge_of_shards(packets: int = 4_000, seed: int = 0, shards: int = 4) -> CheckResult:
    """Merged per-shard sketches must equal the single-run sketch.

    Sketch linearity is what makes distributed monitoring work; a merge
    that drops or double-counts mass breaks every downstream estimate.
    Counter grids must match bit-exactly, and point queries (K-ary's
    read the stream-mass total) within the scalar-vs-batch tolerance.
    """
    name = "differential.merge_of_shards"
    trace = _default_trace(packets, seed)
    bounds = np.linspace(0, len(trace.keys), shards + 1).astype(int)
    probe = trace.keys[:64]
    for factory in _VANILLA_FAMILIES:
        whole = factory(seed)
        whole.update_batch(trace.keys)
        merged = factory(seed)
        for index in range(shards):
            shard = factory(seed)
            shard.update_batch(trace.keys[bounds[index] : bounds[index + 1]])
            merged.merge(shard)
        delta = float(np.max(np.abs(whole.counters - merged.counters)))
        expected, actual = whole.query_batch(probe), merged.query_batch(probe)
        if delta or not np.allclose(expected, actual, rtol=1e-9, atol=1e-6):
            return CheckResult.fail(
                name,
                "%s: merge of %d shards diverges from the single run "
                "(max |counter delta| %g, max |query delta| %g)"
                % (
                    type(whole).__name__,
                    shards,
                    delta,
                    float(np.max(np.abs(expected - actual))),
                ),
                max_delta=delta,
            )
    return CheckResult.ok(
        name,
        "merge of %d vanilla shards matches the single run over %d sketch "
        "families" % (shards, len(_VANILLA_FAMILIES)),
        packets=float(packets),
    )


def check_checkpoint_roundtrip(packets: int = 4_000, seed: int = 0) -> CheckResult:
    """Serialize mid-stream, restore, resume: byte-exact equivalence.

    The restored monitor must replay the second half of the trace into
    exactly the same bytes as the original -- counters, top-k contents
    (tracked-key sets are deterministic here) and PRNG cursors included.
    """
    name = "differential.checkpoint_roundtrip"
    trace = _default_trace(packets, seed)
    half = len(trace.keys) // 2
    monitor = NitroSketch(
        CountSketch(5, 1024, seed),
        NitroConfig(probability=0.1, top_k=32, seed=seed),
    )
    monitor.update_batch(trace.keys[:half])
    for key in trace.keys[half : half + 17].tolist():
        monitor.update(key)
    restored = deserialize_monitor(serialize_monitor(monitor))
    for resumed in (monitor, restored):
        for key in trace.keys[half : half + 17].tolist():
            resumed.update(key)
        resumed.update_batch(trace.keys[half + 17 :])
    if serialize_monitor(monitor) != serialize_monitor(restored):
        return CheckResult.fail(
            name, "restored monitor diverged from the original after resuming"
        )
    original_keys = set(monitor.topk.keys())
    restored_keys = set(restored.topk.keys())
    if original_keys != restored_keys:
        return CheckResult.fail(
            name,
            "tracked-key sets diverged after restore (%d vs %d keys, %d common)"
            % (
                len(original_keys),
                len(restored_keys),
                len(original_keys & restored_keys),
            ),
        )
    return CheckResult.ok(
        name,
        "checkpoint round-trip byte-exact through %d resumed packets"
        % (len(trace.keys) - half),
        packets=float(packets),
    )


def check_reset_equivalence(packets: int = 4_000, seed: int = 0) -> CheckResult:
    """A reset monitor must be bit-identical to a freshly built one.

    Uses AlwaysLineRate with timestamps so the controller's probability
    actually adapts away from ``config.probability`` before the reset --
    the scenario where a stale ``current_probability`` strands the
    sampler at the wrong ``p`` (the no-change short-circuit never fires).
    """
    name = "differential.reset_equivalence"
    trace = _default_trace(packets, seed)

    def build() -> NitroSketch:
        return NitroSketch(
            CountSketch(5, 1024, seed),
            NitroConfig(
                probability=0.5,
                mode=NitroMode.ALWAYS_LINE_RATE,
                adaptation_epoch_seconds=0.0005,
                top_k=32,
                seed=seed,
            ),
        )

    def drive(monitor: NitroSketch) -> None:
        # ~3.33 Mpps offered (mid-rung: p snaps robustly to 1/8, well
        # below the 0.5 start) with >= 1 full epoch inside the trace.
        for index, key in enumerate(trace.keys.tolist()):
            monitor.update(key, timestamp=index * 3e-7)

    fresh = build()
    drive(fresh)

    recycled = build()
    drive(recycled)
    adapted_probability = recycled.probability
    recycled.reset()
    violations = recycled.check_invariants()
    if violations:
        return CheckResult.fail(
            name, "post-reset invariants: %s" % "; ".join(violations)
        )
    drive(recycled)

    if recycled.probability != fresh.probability:
        return CheckResult.fail(
            name,
            "reset monitor settled at p=%g, fresh monitor at p=%g"
            % (recycled.probability, fresh.probability),
        )
    if not np.array_equal(recycled.sketch.counters, fresh.sketch.counters):
        delta = float(np.max(np.abs(recycled.sketch.counters - fresh.sketch.counters)))
        return CheckResult.fail(
            name,
            "reset monitor's counters diverge from a fresh monitor's "
            "(max |delta| %g)" % delta,
            max_delta=delta,
        )
    if (
        recycled.packets_sampled != fresh.packets_sampled
        or set(recycled.topk.keys()) != set(fresh.topk.keys())
    ):
        return CheckResult.fail(
            name, "reset monitor's sampling/top-k history diverged from fresh"
        )
    return CheckResult.ok(
        name,
        "reset-then-reuse bit-identical to fresh (p adapted to %g pre-reset)"
        % adapted_probability,
        adapted_probability=adapted_probability,
    )


def check_nitro_estimate_envelope(
    packets: int = 20_000,
    seed: int = 0,
    probability: float = 0.1,
    width: int = 2048,
    top_keys: int = 24,
    nitro_factory: Optional[Callable[[], NitroSketch]] = None,
) -> List[CheckResult]:
    """Nitro's randomized paths must estimate within ``eps * L2`` of truth.

    Three implementations under test -- scalar, fused batch, and a
    2-shard merge -- each audited on the heaviest true flows against the
    Theorem-2 envelope implied by the sketch's width and ``p``.  The
    vanilla sketch rides along as the oracle: it must sit inside the
    same envelope (it holds the stronger vanilla guarantee), which pins
    blame on the accelerated path when only that one fails.
    """
    trace = _default_trace(packets, seed)
    counts = trace.counts()
    truth = dict(sorted(counts.items(), key=lambda item: -item[1])[:top_keys])
    l2_true = math.sqrt(sum(value * value for value in counts.values()))
    envelope = implied_epsilon(width, probability) * l2_true

    def build() -> NitroSketch:
        if nitro_factory is not None:
            return nitro_factory()
        return NitroSketch(
            CountSketch(5, width, seed),
            NitroConfig(probability=probability, top_k=64, seed=seed),
        )

    scalar = build()
    for key in trace.keys.tolist():
        scalar.update(key)

    batch = build()
    for start in range(0, len(trace.keys), 2048):
        batch.update_batch(trace.keys[start : start + 2048])

    merged = build()
    other = build()
    half = len(trace.keys) // 2
    merged.update_batch(trace.keys[:half])
    other.update_batch(trace.keys[half:])
    merged.merge(other)

    oracle = CountSketch(5, width, seed)
    oracle.update_batch(trace.keys)

    results = []
    implementations = [
        ("oracle_vanilla", oracle),
        ("scalar", scalar),
        ("batch", batch),
        ("merge", merged),
    ]
    for label, monitor in implementations:
        errors = np.array(
            [abs(monitor.query(key) - count) for key, count in truth.items()]
        )
        worst = float(np.max(errors))
        within = float(np.mean(errors <= envelope))
        name = "differential.envelope_%s" % label
        if worst > ENVELOPE_SLACK * envelope or within < WITHIN_FRACTION:
            results.append(
                CheckResult.fail(
                    name,
                    "%s path: worst error %.1f vs envelope %.1f (eps*L2), "
                    "only %.0f%% of top-%d keys within 1x"
                    % (label, worst, envelope, 100 * within, len(truth)),
                    worst_error=worst,
                    envelope=envelope,
                    within_fraction=within,
                )
            )
        else:
            results.append(
                CheckResult.ok(
                    name,
                    "%s path: worst error %.1f within %.1fx of the eps*L2 "
                    "envelope %.1f" % (label, worst, worst / envelope, envelope),
                    worst_error=worst,
                    envelope=envelope,
                    within_fraction=within,
                )
            )
    return results


def run_differential_checks(quick: bool = False, seed: int = 0) -> List[CheckResult]:
    """The full differential suite (scaled down under ``quick``)."""
    packets = 2_000 if quick else 4_000
    envelope_packets = 8_000 if quick else 20_000
    results = [
        check_vanilla_scalar_vs_batch(packets=packets, seed=seed),
        check_merge_of_shards(packets=packets, seed=seed),
        check_checkpoint_roundtrip(packets=packets, seed=seed),
        check_reset_equivalence(packets=packets, seed=seed),
    ]
    results.extend(check_nitro_estimate_envelope(packets=envelope_packets, seed=seed))
    return results
