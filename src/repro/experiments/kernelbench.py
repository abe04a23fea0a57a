"""Kernel-layer benchmark and the overhead-gate table.

The fused kernels (:mod:`repro.kernels`) run three hot paths:

* ``KWiseHash.batch`` -- native ``uint64`` Mersenne-61 polynomial
  evaluation;
* ``CanonicalSketch.update_batch`` -- one broadcast hash over every row
  plus a single flat-index scatter;
* ``NitroSketch.update_batch`` -- fused slot kernel plus
  ``query_batch`` top-k offers.

:func:`run` times them (and batch point queries) on a CAIDA-like
workload; ``python -m repro.experiments.kernelbench --write`` records
the rates, with the host they ran on, in the ``BENCH_kernels.json``
baseline that ``scripts/check_perf.py`` regresses against.

:data:`GATES` is the table of overhead gates ``scripts/check_perf.py``
runs: each row times an instrumented ingest path against its bare twin
in the same run and bounds their ratio.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core import NitroSketch
from repro.experiments.report import ExperimentResult, print_result
from repro.hashing.families import KWiseHash
from repro.sketches import CountMinSketch, CountSketch
from repro.traffic import caida_like

#: Shapes match the paper's Section-7 Count Sketch configuration.
DEPTH, WIDTH = 5, 102400


# -- timing harness --------------------------------------------------------


def _best_time(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved_best(
    bare_pass: Callable[[], None], gated_pass: Callable[[], None], rounds: int
) -> Tuple[float, float]:
    """Best-of times of two passes, timed in alternating rounds.

    One warm-up round first (hash caches, allocator, branch
    predictors).  Alternating the passes, rather than timing them in two
    sequential blocks, lets machine-load drift during the run move both
    sides alike instead of biasing the ratio.
    """
    bare_pass()
    gated_pass()
    bare_seconds = gated_seconds = float("inf")
    for _ in range(rounds):
        bare_seconds = min(bare_seconds, _best_time(bare_pass, 1))
        gated_seconds = min(gated_seconds, _best_time(gated_pass, 1))
    return bare_seconds, gated_seconds


def _trace_keys(
    scale: float, seed: int, floor: int = 10_000, full: int = 200_000
) -> "np.ndarray":
    """Keys of the shared CAIDA-like trace: ``full * scale``, >= ``floor`` packets."""
    n = max(floor, int(full * scale))
    return caida_like(n, n_flows=max(2_000, n // 5), seed=seed + 1).keys


def _chunked(keys: "np.ndarray", chunk: int) -> List["np.ndarray"]:
    """``keys`` cut into ``chunk``-packet batches.

    Overhead gates feed batches, not one giant call, so per-batch
    instrumentation cost is exercised rather than amortised away.
    """
    return [keys[start : start + chunk] for start in range(0, len(keys), chunk)]


def host_info() -> Dict:
    """The machine a measurement ran on (rates are only comparable on one)."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- kernel throughput -----------------------------------------------------


def run(scale: float = 1.0, seed: int = 0, repeats: int = 3) -> ExperimentResult:
    """Time each fused hot path.

    Rates are millions of keys (or packets) per second over a shared
    CAIDA-like trace, best of ``repeats``.
    """
    keys = _trace_keys(scale, seed)
    n = len(keys)
    result = ExperimentResult(
        name="kernelbench",
        description=(
            "Fused batch kernels (%d-packet CAIDA-like trace, best of %d)"
            % (n, repeats)
        ),
    )

    def bench(name, unit, count, fn):
        rate = count / _best_time(fn, repeats) / 1e6
        result.rows.append({"bench": name, "unit": unit, "fused_rate": rate})

    # 1. Four-wise polynomial hashing (UnivMon samplers, SignHash).
    kwise = KWiseHash(4, WIDTH, seed=seed + 11)
    bench("kwise4_batch_hash", "Mkeys/s", n, lambda: kwise.batch(keys))

    # 2. Whole-sketch vanilla batch updates (unsigned and signed).
    countmin = CountMinSketch(DEPTH, WIDTH, seed=seed + 21)
    bench("countmin_update_batch", "Mpps", n, lambda: countmin.update_batch(keys))
    countsketch = CountSketch(DEPTH, WIDTH, seed=seed + 22)
    bench("countsketch_update_batch", "Mpps", n, lambda: countsketch.update_batch(keys))

    # 3. NitroSketch end-to-end (sampled slots + top-k offers).
    nitro = NitroSketch(
        CountSketch(DEPTH, WIDTH, seed=seed + 31), probability=0.01, top_k=100
    )
    bench("nitro_countsketch_update_batch", "Mpps", n, lambda: nitro.update_batch(keys))

    # 4. Batch point queries (heavy-hitter report path).
    probe_sketch = CountSketch(DEPTH, WIDTH, seed=seed + 41)
    probe_sketch.update_batch(keys)
    probe = np.unique(keys)[: max(2_000, n // 40)]
    bench(
        "countsketch_query_batch",
        "Mkeys/s",
        len(probe),
        lambda: probe_sketch.query_batch(probe),
    )
    return result


# -- overhead measurements (rows of GATES) ---------------------------------


def telemetry_overhead(
    scale: float = 1.0, seed: int = 0, repeats: int = 3, chunk: int = 4096
) -> Dict[str, float]:
    """Cost of a live Telemetry sink on ``NitroSketch.update_batch``.

    Feeds the same chunked CAIDA-like trace twice: once with the default
    :data:`~repro.telemetry.NULL_TELEMETRY` sink and once with a real
    :class:`~repro.telemetry.Telemetry` attached.  Returns both times
    and their ratio, which the ``telemetry`` row of :data:`GATES` bounds.
    """
    from repro.telemetry import Telemetry

    chunks = _chunked(_trace_keys(scale, seed), chunk)

    def build():
        return NitroSketch(
            CountSketch(DEPTH, WIDTH, seed=seed + 51), probability=0.01, top_k=100
        )

    def ingest(nitro):
        def run_once():
            for piece in chunks:
                nitro.update_batch(piece)

        return run_once

    null_nitro = build()
    live_nitro = build()
    live_nitro.telemetry = Telemetry()
    null_seconds = _best_time(ingest(null_nitro), repeats)
    live_seconds = _best_time(ingest(live_nitro), repeats)
    return {
        "null_seconds": null_seconds,
        "live_seconds": live_seconds,
        "ratio": live_seconds / null_seconds,
    }


def tracing_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 4096,
    sample_every: int = 16,
) -> Dict[str, float]:
    """Cost of the full tracing/profiling stack on the ingest hot path.

    Feeds the same chunked CAIDA-like stream through
    ``NitroSketch.update_batch`` twice: once bare (the production
    defaults, NULL_TELEMETRY + NULL_PROFILER) and once with the whole
    observability stack live -- a real :class:`~repro.telemetry.
    Telemetry` sink (which carries the span tracer), a per-epoch span
    opened around each pass, and a :class:`~repro.telemetry.profile.
    StageProfiler` timing pipeline stages on every ``sample_every``-th
    batch.  The ratio is bounded by the ``tracing`` row of
    :data:`GATES`; it is what bounds the "continuous profiling is cheap
    enough to leave on" claim.
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.profile import StageProfiler

    chunks = _chunked(_trace_keys(scale, seed), chunk)

    def build():
        return NitroSketch(
            CountSketch(DEPTH, WIDTH, seed=seed + 91), probability=0.01, top_k=100
        )

    bare_nitro = build()
    traced_nitro = build()
    telemetry = Telemetry()
    traced_nitro.telemetry = telemetry
    traced_nitro.profiler = StageProfiler(telemetry, sample_every=sample_every)

    def bare_pass():
        for piece in chunks:
            bare_nitro.update_batch(piece)

    def traced_pass():
        with telemetry.start_span("epoch", trace_id="perf", span_id="perf"):
            for piece in chunks:
                traced_nitro.update_batch(piece)

    bare_seconds, traced_seconds = _interleaved_best(
        bare_pass, traced_pass, max(repeats, 7)
    )
    return {
        "bare_seconds": bare_seconds,
        "traced_seconds": traced_seconds,
        "ratio": traced_seconds / bare_seconds,
    }


def alert_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 16384,
    epoch_every: int = 32,
) -> Dict[str, float]:
    """Cost of the alert plane + anomaly detectors on the ingest path.

    Feeds the same chunked CAIDA-like stream through a NitroSketch
    K-ary monitor twice: once bare, and once with the alert plane
    live -- :class:`~repro.telemetry.anomaly.SketchAnomalyDetectors`
    observing an epoch every ``epoch_every`` chunks (sketch clone +
    difference + candidate queries + entropy/churn scores) and an
    :class:`~repro.telemetry.AlertManager` evaluating the default rule
    set at each epoch boundary.  The ratio is bounded by the ``alerts``
    row of :data:`GATES`; it is what bounds the "alerting is cheap
    enough to leave on" claim.

    The epoch size is the knob that makes this gate meaningful: the
    per-epoch cost (~0.5 ms: one sketch clone + difference, a few
    hundred candidate queries, one registry snapshot) is fixed, so the
    ratio depends on how much ingest an epoch amortises it over.  The
    default cadence of ``chunk * epoch_every`` = 524k packets per epoch
    matches the production shape -- an epoch is seconds of traffic, not
    a handful of batches -- which is why the trace has a higher floor
    here than the other overhead benchmarks.
    """
    from repro.core import nitro_kary
    from repro.telemetry import AlertManager, HistoryStore, ManualClock, Telemetry
    from repro.telemetry.anomaly import SketchAnomalyDetectors, default_alert_rules

    chunks = _chunked(_trace_keys(scale, seed, floor=300_000, full=600_000), chunk)
    # Never let a small run dodge the gate entirely: at least one epoch
    # boundary must land inside the measured pass.
    epoch_every = min(epoch_every, len(chunks))

    def build():
        return nitro_kary(
            depth=DEPTH, width=8192, probability=0.01, top_k=100, seed=seed + 131
        )

    bare_nitro = build()
    alerted_nitro = build()
    telemetry = Telemetry()
    detectors = SketchAnomalyDetectors(telemetry=telemetry)
    manager = AlertManager(
        telemetry,
        rules=default_alert_rules(),
        history=HistoryStore(),
        clock=ManualClock(),
    )
    epoch_packets = chunk * epoch_every

    def bare_pass():
        for piece in chunks:
            bare_nitro.update_batch(piece)

    def alert_pass():
        detectors.reset()
        for index, piece in enumerate(chunks):
            alerted_nitro.update_batch(piece)
            if (index + 1) % epoch_every == 0:
                detectors.observe_epoch(alerted_nitro, epoch_packets)
                manager.evaluate()

    bare_seconds, alerted_seconds = _interleaved_best(
        bare_pass, alert_pass, max(repeats, 7)
    )
    return {
        "bare_seconds": bare_seconds,
        "alerted_seconds": alerted_seconds,
        "ratio": alerted_seconds / bare_seconds,
    }


def window_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 8192,
    window_epochs: int = 4,
    epochs_per_pass: int = 8,
) -> Dict[str, float]:
    """Cost of windowed ingest vs an epoch-reset sketch updated directly.

    Feeds the same chunked CAIDA-like stream through a NitroSketch
    twice: once wrapped in a
    :class:`~repro.control.windows.SlidingWindowMonitor` whose epoch
    size triggers ``epochs_per_pass`` rotations per measured pass, and
    once bare but ``reset()`` at the same epoch cadence.  The bare-side
    resets matter: a fresh epoch refills the Nitro top-k heap, and that
    warm-up is a property of *measuring in epochs* that both sides must
    pay -- without it the ratio conflates the window's bookkeeping with
    the workload change.  What remains in the ratio is the window's own
    cost: the per-batch boundary check, boundary-crossing batch splits,
    ring rotation (recycle + reset), and merged-view cache
    invalidation.  Bounded by the ``windows`` row of :data:`GATES`; it
    is what bounds the "windowing rides the kernel ingest path" claim
    (docs/WINDOWS.md).
    """
    from repro.control.windows import SlidingWindowMonitor

    keys = _trace_keys(scale, seed, floor=100_000, full=400_000)
    chunks = _chunked(keys, chunk)
    # Batch-aligned epochs: the deployed owner (daemon ``epoch_batches``)
    # rotates *between* batches, so the gate measures that shape; a
    # misaligned ``epoch_packets`` would additionally split one batch
    # per epoch into two kernel calls.
    epoch_packets = max(chunk, len(keys) // epochs_per_pass // chunk * chunk)

    def build():
        return NitroSketch(
            CountSketch(DEPTH, 8192, seed=seed + 151), probability=0.01, top_k=100
        )

    bare_nitro = build()
    window = SlidingWindowMonitor(
        build, window_epochs=window_epochs, epoch_packets=epoch_packets
    )

    def bare_pass():
        # Same epoch cadence as the window, minus the window machinery.
        since_epoch = 0
        for piece in chunks:
            bare_nitro.update_batch(piece)
            since_epoch += len(piece)
            if since_epoch >= epoch_packets:
                bare_nitro.reset()
                since_epoch = 0

    def window_pass():
        # The window's packet count carries across passes, so every
        # measured pass crosses the same number of epoch boundaries.
        for piece in chunks:
            window.update_batch(piece)

    bare_seconds, windowed_seconds = _interleaved_best(
        bare_pass, window_pass, max(repeats, 7)
    )
    return {
        "bare_seconds": bare_seconds,
        "windowed_seconds": windowed_seconds,
        "ratio": windowed_seconds / bare_seconds,
    }


def service_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 32768,
) -> Dict[str, float]:
    """Cost of served ingest (wire + asyncio) vs direct in-process ingest.

    Feeds the same chunked CAIDA-like stream twice into bit-identical
    tenant monitors (same :meth:`ServiceConfig.build_monitor` seeds):
    once through a live :class:`~repro.service.server.MonitoringService`
    -- :class:`~repro.service.client.IngestClient` frames over loopback
    TCP, the asyncio reader, the tenant queue and the drainer coroutine,
    with a ``sync`` barrier closing each pass -- and once through
    ``MeasurementDaemon.ingest`` in the benchmark process (batch
    construction included: that is what an embedding caller pays).  The
    ratio is bounded by the ``service`` row of :data:`GATES`; it is what
    bounds the "running the always-on service costs little over
    embedding the library" claim (docs/SERVICE.md).

    The queue is sized to hold a whole pass so ``overflow="wait"`` never
    parks the client: the gate measures serving overhead, not
    backpressure stalls (the chaos suite covers those).
    """
    from repro.service import records
    from repro.service.client import IngestClient
    from repro.service.server import MonitoringService
    from repro.service.tenants import ServiceConfig
    from repro.switchsim.daemon import MeasurementDaemon

    chunks = _chunked(_trace_keys(scale, seed, floor=100_000, full=400_000), chunk)
    tenant = "bench"

    config = ServiceConfig(
        seed=seed + 171,
        queue_capacity=max(8, 2 * len(chunks)),
        overflow="wait",
        epoch_batches=0,
    )
    direct = MeasurementDaemon(config.build_monitor(tenant))

    def direct_pass():
        for piece in chunks:
            direct.ingest(records.batch_from_keys(piece))

    service = MonitoringService(config, http=False).start()
    client = IngestClient("127.0.0.1", service.ingest_port)

    def served_pass():
        for piece in chunks:
            client.ingest(tenant, piece)
        client.sync(tenant)

    try:
        # The warm-up round also converges both (seed-identical)
        # AlwaysCorrect monitors, so measured passes run the sampled
        # steady state.
        direct_seconds, served_seconds = _interleaved_best(
            direct_pass, served_pass, max(repeats, 7)
        )
    finally:
        client.bye()
        client.close()
        service.stop()
    return {
        "direct_seconds": direct_seconds,
        "served_seconds": served_seconds,
        "ratio": served_seconds / direct_seconds,
    }


def audit_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 4096,
    capacity: int = 256,
) -> Dict[str, float]:
    """Cost of a live :class:`~repro.telemetry.audit.ShadowAuditor`.

    Feeds the same chunked CAIDA-like stream twice through
    ``NitroSketch.update_batch``: once bare (NULL_TELEMETRY, no auditor)
    and once with a shadow auditor mirroring every chunk into its exact
    ground-truth reservoir -- the live-auditing deployment shape, where
    the auditor rides the daemon's ingest loop.  The ratio is bounded by
    the ``audit`` row of :data:`GATES`.
    """
    from repro.telemetry.audit import ShadowAuditor

    chunks = _chunked(_trace_keys(scale, seed), chunk)
    nitro = NitroSketch(
        CountSketch(DEPTH, WIDTH, seed=seed + 61), probability=0.01, top_k=100
    )
    auditor = ShadowAuditor(capacity=capacity, seed=seed)
    # Settle the reservoir threshold first: a deployed auditor spends its
    # life in steady state, and the one-off settling pass would otherwise
    # dominate a short measurement.
    for piece in chunks:
        auditor.observe_batch(piece)

    def bare_pass():
        for piece in chunks:
            nitro.update_batch(piece)

    def audit_pass():
        for piece in chunks:
            auditor.observe_batch(piece)

    # Time the two components separately and add them: a combined
    # audited loop needs seconds-long runs before best-of-N converges on
    # a shared machine, while each part alone is stable with a handful
    # of repeats.  The auditor's cost is strictly additive (it shares no
    # state with the sketch), so the sum is the audited ingest time.
    bare_seconds = _best_time(bare_pass, max(repeats, 7))
    auditor_seconds = _best_time(audit_pass, max(repeats, 7))
    audited_seconds = bare_seconds + auditor_seconds
    return {
        "bare_seconds": bare_seconds,
        "audited_seconds": audited_seconds,
        "ratio": audited_seconds / bare_seconds,
    }


def checkpoint_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 4096,
    interval: int = 256,
) -> Dict[str, float]:
    """Amortized cost of periodic crash-safety checkpoints.

    Feeds a chunked CAIDA-like stream through ``NitroSketch.update_batch``
    and separately times one full :class:`~repro.control.checkpoint.
    CheckpointManager` save (serialize + atomic temp-file write + fsync +
    rename + rotation) of the same monitor.  The checkpointed ingest time
    is the bare time plus one save per ``interval`` chunks -- the default
    daemon cadence from ``docs/RECOVERY.md``, roughly one checkpoint per
    million packets.  The checkpoint cost is strictly additive (the save
    only reads monitor state between batches), so the sum is the
    checkpointing daemon's ingest time; the ratio is bounded by the
    ``checkpoint`` row of :data:`GATES`.

    The monitor is the deployment shape the chaos harness checkpoints (a
    5x4096 Count Sketch under 1% sampling), not the Section-7 accuracy
    shape -- checkpoint bytes scale with the grid, and what the gate
    protects is the cadence amortization, not the serializer's raw MB/s.
    """
    import tempfile

    from repro.control.checkpoint import CheckpointManager

    chunks = _chunked(_trace_keys(scale, seed), chunk)
    nitro = NitroSketch(
        CountSketch(5, 4096, seed=seed + 81), probability=0.01, top_k=100
    )

    def bare_pass():
        for piece in chunks:
            nitro.update_batch(piece)

    with tempfile.TemporaryDirectory(prefix="nitro-perf-ckpt-") as directory:
        manager = CheckpointManager(directory, keep=3)
        bare_seconds = _best_time(bare_pass, max(repeats, 7))
        save_seconds = _best_time(lambda: manager.save(nitro), max(repeats, 7))
    checkpointed_seconds = bare_seconds + len(chunks) / interval * save_seconds
    return {
        "bare_seconds": bare_seconds,
        "save_seconds": save_seconds,
        "checkpointed_seconds": checkpointed_seconds,
        "ratio": checkpointed_seconds / bare_seconds,
    }


def verify_overhead(
    scale: float = 1.0, seed: int = 0, repeats: int = 3, chunk: int = 4096
) -> Dict[str, float]:
    """Cost of the dormant invariant hook on ``NitroSketch.update_batch``.

    The verify harness hangs its per-batch invariant checks off
    ``nitro.invariant_hook``; when no hook is installed (production
    default) the only residue is the wrapper's ``is not None`` test.
    This times the same chunked CAIDA-like ingest twice -- through the
    public ``update_batch`` wrapper and through ``_update_batch_impl``
    directly -- and returns the ratio, which the ``verify`` row of
    :data:`GATES` bounds.
    """
    chunks = _chunked(_trace_keys(scale, seed), chunk)

    def build():
        return NitroSketch(
            CountSketch(DEPTH, WIDTH, seed=seed + 71), probability=0.01, top_k=100
        )

    direct_nitro = build()
    hooked_nitro = build()

    def direct_pass():
        for piece in chunks:
            direct_nitro._update_batch_impl(piece, None, None)

    def hooked_pass():
        for piece in chunks:
            hooked_nitro.update_batch(piece)

    direct_seconds, hooked_seconds = _interleaved_best(
        direct_pass, hooked_pass, max(repeats, 9)
    )
    return {
        "direct_seconds": direct_seconds,
        "hooked_seconds": hooked_seconds,
        "ratio": hooked_seconds / direct_seconds,
    }


# -- the gate table --------------------------------------------------------


class Gate(NamedTuple):
    """One overhead gate: ``measure(...)["ratio"]`` must stay <= ``ceiling``."""

    name: str  # ``scripts/check_perf.py --skip NAME``
    label: str  # the printed row's label
    ratio_label: str  # what the ratio divides, e.g. "live/null"
    subject: str  # what a miss reports as too expensive
    measure: Callable[..., Dict[str, float]]
    ceiling: float
    retry: bool  # a miss measures once more and keeps the better ratio


#: The overhead gates, in the order ``scripts/check_perf.py`` runs them.
#: Every ratio is same-run (instrumented over bare time), so it does not
#: depend on the host's absolute speed.
GATES = (
    # A real Telemetry sink on the batch update path may cost at most
    # this factor versus the default NULL_TELEMETRY no-op sink.
    Gate("telemetry", "telemetry_update_batch", "live/null", "telemetry",
         telemetry_overhead, 1.10, retry=False),
    # A live shadow auditor alongside the batch ingest path may cost at
    # most this factor versus an unaudited NULL_TELEMETRY run.
    Gate("audit", "audit_update_batch", "audited/bare", "audit",
         audit_overhead, 1.10, retry=False),
    # Periodic crash-safety checkpoints (serialize + atomic write +
    # fsync) at the default cadence may cost at most this factor versus
    # a daemon that never checkpoints.
    Gate("checkpoint", "checkpoint_ingest", "checkpointed/bare", "checkpoint",
         checkpoint_overhead, 1.10, retry=False),
    # The *disabled* invariant hook (one ``is not None`` attribute test
    # per ``update_batch`` call) versus calling the batch implementation
    # directly with no hook dispatch at all.  That true cost is one
    # attribute test per batch, so a ratio over the ceiling on a loaded
    # box is noise: retry.
    Gate("verify", "verify_hook_update_batch", "hooked/direct", "verify-hook",
         verify_overhead, 1.05, retry=True),
    # Full tracing instrumentation -- a live Telemetry sink, the span
    # tracer, and a StageProfiler at its default sampling cadence --
    # versus the bare NULL_TELEMETRY/NULL_PROFILER ingest path.  Stage
    # timers and span bookkeeping cost microseconds per batch, so an
    # over-ceiling ratio on a loaded box is noise: retry.
    Gate("tracing", "tracing_update_batch", "traced/bare", "tracing",
         tracing_overhead, 1.10, retry=True),
    # The alert plane at its default cadence -- sketch-driven anomaly
    # detectors observing every epoch plus an AlertManager evaluating
    # the default rule set -- versus bare ingest.  One epoch's detector
    # pass costs half a millisecond, which a loaded box can read as
    # over-ceiling noise: retry.
    Gate("alerts", "alert_update_batch", "alerted/bare", "alert",
         alert_overhead, 1.10, retry=True),
    # Batched ingest through a SlidingWindowMonitor -- the boundary
    # check per batch, epoch rotations (recycle + reset) at the default
    # cadence, and merged-view cache invalidation -- versus updating the
    # wrapped sketch directly.  The window adds one comparison per batch
    # and a counter reset per rotation, so over-ceiling readings on a
    # loaded box are noise: retry.
    Gate("windows", "window_update_batch", "windowed/bare", "windowed-ingest",
         window_overhead, 1.15, retry=True),
    # Serving ingest over the wire -- client-side frame encode, loopback
    # TCP, the asyncio reader, header/key decode, per-tenant queue and
    # the drainer coroutine -- versus the same batches ingested
    # in-process through ``MeasurementDaemon.ingest``.  The served side
    # rides a second thread (asyncio drain), so scheduler contention on
    # a loaded box can read as over-ceiling noise: retry.
    Gate("service", "service_ingest", "served/direct", "served-ingest",
         service_overhead, 1.15, retry=True),
)


# -- the committed baseline ------------------------------------------------


def payload(result: ExperimentResult) -> Dict:
    """The JSON shape ``BENCH_kernels.json`` / ``check_perf.py`` use."""
    return {
        "generated_by": "python -m repro.experiments.kernelbench",
        "description": result.description,
        "host": host_info(),
        "benches": {
            row["bench"]: {
                "unit": row["unit"],
                "fused_rate": round(row["fused_rate"], 4),
            }
            for row in result.rows
        },
    }


def write_baseline(path: str = "BENCH_kernels.json", result: Optional[ExperimentResult] = None) -> Dict:
    """Run (if needed) and write the committed benchmark baseline."""
    if result is None:
        result = run()
    data = payload(result)
    with open(path, "w") as handle:
        handle.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


if __name__ == "__main__":
    import sys

    outcome = run()
    print_result(outcome)
    if "--write" in sys.argv:
        write_baseline(result=outcome)
        print("wrote BENCH_kernels.json")
