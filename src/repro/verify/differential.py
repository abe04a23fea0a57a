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

The live auditor is held to the same standard: its one-array-pass
:meth:`~repro.telemetry.audit.ShadowAuditor.audit` must report exactly
what the per-flow loop it replaced reports.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

import numpy as np

from repro.control.export import deserialize_monitor, serialize_monitor
from repro.core import nitro_countmin
from repro.core.config import NitroConfig, NitroMode
from repro.core.nitro import NitroSketch
from repro.hashing import key_array
from repro.metrics.accuracy import relative_error
from repro.sketches.base import Monitor
from repro.sketches.countmin import ConservativeCountMinSketch, CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kary import KArySketch
from repro.telemetry import Telemetry
from repro.telemetry.anomaly import ddos_onset_trace
from repro.telemetry.audit import AuditReport, ShadowAuditor
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


def reference_audit(auditor: ShadowAuditor, monitor) -> AuditReport:
    """The per-flow audit loop the vectorised ``audit`` replaced.

    Errors by :func:`~repro.metrics.accuracy.relative_error`, one key at
    a time in reservoir order; percentiles by nearest rank into
    ``sorted``; the worst key by a strict ``>`` scan.
    """
    keys = list(auditor.truth)
    estimates = monitor.query_batch(key_array(keys)).tolist() if keys else []
    rel: List[float] = []
    abs_errors: List[float] = []
    worst_key, worst_abs = None, -1.0
    for key, estimate in zip(keys, estimates):
        true = auditor.truth[key]
        rel.append(relative_error(estimate, true))
        error = abs(estimate - true)
        abs_errors.append(error)
        if error > worst_abs:
            worst_key, worst_abs = key, error
    ordered = sorted(rel)

    def percentile(fraction: float) -> float:
        if not ordered:
            return 0.0
        count = len(ordered)
        return ordered[min(count - 1, max(0, int(math.ceil(fraction * count)) - 1))]

    return AuditReport(
        tracked_flows=len(keys),
        total_weight=auditor.total_weight,
        mean_relative_error=sum(rel) / len(rel) if rel else 0.0,
        p50_relative_error=percentile(0.50),
        p90_relative_error=percentile(0.90),
        p99_relative_error=percentile(0.99),
        max_relative_error=ordered[-1] if ordered else 0.0,
        mean_absolute_error=sum(abs_errors) / len(abs_errors) if abs_errors else 0.0,
        max_absolute_error=max(abs_errors) if abs_errors else 0.0,
        worst_key=worst_key,
    )


class _QueryOnlyMonitor(Monitor):
    """A monitor that defines only ``query`` (default ``query_batch``)."""

    def __init__(self, sketch) -> None:
        self.sketch = sketch

    def update_batch(self, keys, weights=None, duration_seconds=None) -> None:
        self.sketch.update_batch(keys, weights)

    def query(self, key: int) -> float:
        return self.sketch.query(key)


#: Exported audit gauge ``(name, stat label)`` -> the AuditReport field.
_AUDIT_GAUGES = {
    ("audit_tracked_flows", None): "tracked_flows",
    ("audit_total_weight", None): "total_weight",
    ("audit_absolute_error", "mean"): "mean_absolute_error",
    ("audit_absolute_error", "max"): "max_absolute_error",
}
_AUDIT_GAUGES.update(
    {("audit_relative_error", stat): "%s_relative_error" % stat
     for stat in ("mean", "p50", "p90", "p99", "max")}
)


def check_audit_against_loop(packets: int = 4_000, seed: int = 0) -> CheckResult:
    """``ShadowAuditor.audit`` must equal the per-flow loop, field for field.

    Every ``AuditReport`` field (value and Python type) and every
    exported audit gauge are compared with ``==`` after each of four
    ingest chunks, over CAIDA-like and DDoS-onset traces; keys as
    generated, negated into negative int64, and spread over both halves
    of the uint64 range; unit weights, random weights, and random
    weights with one reservoir flow at zero weight; and Nitro Count
    Sketch, Nitro Count-Min and a monitor that defines only ``query``.
    Estimates stay finite here; NaN and inf have their own unit tests.
    """
    name = "differential.audit_vs_loop"
    rng = np.random.default_rng(seed)
    base = {
        "caida": _default_trace(packets, seed).keys,
        "ddos": ddos_onset_trace(packets, seed=seed).keys,
    }
    streams = {}
    for trace, keys in base.items():
        streams[trace] = keys
        streams[trace + "/negative"] = -keys - 1
        # An odd multiplier is a bijection on 64 bits: distinct flows stay
        # distinct and spread over both halves of the uint64 range.
        streams[trace + "/uint64"] = keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    monitors = {
        "nitro_countsketch": lambda: NitroSketch(
            CountSketch(5, 512, seed), NitroConfig(probability=0.25, top_k=16, seed=seed)
        ),
        "nitro_countmin": lambda: nitro_countmin(
            depth=4, width=512, probability=0.25, top_k=16, seed=seed
        ),
        "query_only": lambda: _QueryOnlyMonitor(CountMinSketch(4, 256, seed)),
    }
    rounds = 0
    for stream, keys in streams.items():
        random_weights = rng.integers(1, 64, len(keys)).astype(np.float64)
        # Reservoir membership depends on the key alone, so any flow a
        # unit-weight pass tracks is tracked under every weighting.
        probe = ShadowAuditor(capacity=64, seed=seed)
        probe.observe_batch(keys)
        zeroed = random_weights.copy()
        zeroed[keys == next(iter(probe.truth))] = 0.0
        for weighting, weights in (
            ("unit", None),
            ("random", random_weights),
            ("zero_flow", zeroed),
        ):
            for label, build in monitors.items():
                monitor = build()
                telemetry = Telemetry()
                auditor = ShadowAuditor(capacity=64, seed=seed, telemetry=telemetry)
                bounds = np.linspace(0, len(keys), 5).astype(int)
                for start, stop in zip(bounds[:-1], bounds[1:]):
                    chunk_weights = None if weights is None else weights[start:stop]
                    monitor.update_batch(keys[start:stop], chunk_weights)
                    auditor.observe_batch(keys[start:stop], chunk_weights)
                    report = auditor.audit(monitor)
                    expected = reference_audit(auditor, monitor)
                    rounds += 1
                    where = "%s, %s weights, %s, round %d" % (
                        stream, weighting, label, rounds
                    )
                    for field, want in expected.as_dict().items():
                        got = getattr(report, field)
                        if got != want or type(got) is not type(want):
                            return CheckResult.fail(
                                name,
                                "%s: %s reads %r, the per-flow loop %r"
                                % (where, field, got, want),
                            )
                    for (metric, stat), field in _AUDIT_GAUGES.items():
                        family = telemetry.registry.get(metric)
                        exported = [
                            child.value
                            for values, child in family.children()
                            if family.label_dict(values).get("stat") == stat
                        ]
                        if exported != [getattr(expected, field)]:
                            return CheckResult.fail(
                                name,
                                "%s: gauge %s{stat=%s} reads %r, the per-flow "
                                "loop %r" % (where, metric, stat, exported,
                                             getattr(expected, field)),
                            )
    return CheckResult.ok(
        name,
        "vectorised audit equals the per-flow loop in all %d rounds "
        "(%d streams x 3 weightings x %d monitors)"
        % (rounds, len(streams), len(monitors)),
        rounds=float(rounds),
    )


def run_differential_checks(quick: bool = False, seed: int = 0) -> List[CheckResult]:
    """The full differential suite (scaled down under ``quick``)."""
    packets = 2_000 if quick else 4_000
    envelope_packets = 8_000 if quick else 20_000
    results = [
        check_vanilla_scalar_vs_batch(packets=packets, seed=seed),
        check_merge_of_shards(packets=packets, seed=seed),
        check_checkpoint_roundtrip(packets=packets, seed=seed),
        check_reset_equivalence(packets=packets, seed=seed),
        check_audit_against_loop(packets=packets, seed=seed),
    ]
    results.extend(check_nitro_estimate_envelope(packets=envelope_packets, seed=seed))
    return results
