"""Statistical checks: the sampling process against its own math.

Differential checks catch paths that disagree with each other; these
catch paths that agree on the *wrong* distribution.  Each check tests a
closed-form property of the paper's sampling design:

* counter estimates are **unbiased** (Idea A: the ``p^-1`` scaling) --
  the mean over many independent seeds must approach truth at the
  ``sqrt(Var/S)`` rate;
* the per-packet sampled fraction is ``1 - (1-p)^d`` (Idea B: slot
  sampling at rate ``p`` over ``d`` rows per packet);
* inter-sample gaps are ``Geometric(p)`` -- a KS test on both the
  scalar xorshift stream and the vectorised NumPy stream;
* AlwaysCorrect's ``on_packet`` and ``on_batch`` agree on the
  convergence point (exactly when batches align with the check period
  ``Q``, within one batch otherwise);
* AlwaysLineRate closes one adaptation epoch per ``100 ms`` of
  accumulated batch time -- not one per batch.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.core.config import NitroConfig, NitroMode
from repro.core.geometric import GeometricSampler, geometric_positions
from repro.core.nitro import NitroSketch
from repro.sketches.countsketch import CountSketch
from repro.telemetry import Telemetry
from repro.verify.result import CheckResult

#: z-score gates for the Monte-Carlo checks.  5-sigma keeps the false
#: alarm rate per check around 3e-7 while still catching a missing or
#: doubled ``p^-1`` scaling (hundreds of sigma) instantly.
Z_GATE = 5.0

#: KS acceptance threshold scale: ``KS_COEFF / sqrt(n)`` corresponds to
#: alpha ~ 0.01 for a continuous null and is conservative for a discrete
#: one (the true alpha is smaller), so it only fires on real shape bugs.
KS_COEFF = 1.63


def check_unbiasedness(
    n_seeds: int = 48,
    packets: int = 2_000,
    probability: float = 0.1,
    base_seed: int = 0,
) -> CheckResult:
    """Mean estimate over independent seeds must approach the true count.

    A depth-1 Count Sketch makes the median-of-rows query rule exactly
    linear (the median of one row *is* the row), so with a single flow
    the estimator is a sum of ``Bernoulli(p)/p`` contributions whose
    expectation is the true count and whose variance is known in closed
    form -- the check gates the scalar and batch paths at ``Z_GATE``
    standard errors of that mean.
    """
    name = "statistical.unbiasedness"
    key = 7
    keys = np.full(packets, key, dtype=np.int64)
    # Var of one run's estimate: packets * (1-p)/p (depth 1, lone flow).
    standard_error = math.sqrt(packets * (1.0 - probability) / probability / n_seeds)
    for path in ("scalar", "batch"):
        estimates = []
        for index in range(n_seeds):
            seed = base_seed + 1000 + index
            monitor = NitroSketch(
                CountSketch(1, 256, seed),
                NitroConfig(probability=probability, top_k=0, seed=seed),
            )
            if path == "scalar":
                for packet_key in keys.tolist():
                    monitor.update(packet_key)
            else:
                monitor.update_batch(keys)
            estimates.append(monitor.query(key))
        mean = float(np.mean(estimates))
        z_score = abs(mean - packets) / standard_error
        if z_score > Z_GATE:
            return CheckResult.fail(
                name,
                "%s path biased: mean estimate %.1f vs truth %d over %d "
                "seeds (%.1f sigma)" % (path, mean, packets, n_seeds, z_score),
                mean=mean,
                truth=float(packets),
                z_score=z_score,
            )
    return CheckResult.ok(
        name,
        "scalar and batch estimates unbiased over %d seeds "
        "(within %.1f sigma)" % (n_seeds, Z_GATE),
        n_seeds=float(n_seeds),
        standard_error=standard_error,
    )


def check_sampled_fraction(
    packets: int = 20_000,
    probability: float = 0.1,
    depth: int = 5,
    seed: int = 0,
) -> CheckResult:
    """``packets_sampled / packets_seen`` must match ``1 - (1-p)^d``.

    A packet is copied to the measurement thread iff at least one of its
    ``d`` slots is sampled; both ingest paths must hit that Binomial
    proportion within ``Z_GATE`` sigma.
    """
    name = "statistical.sampled_fraction"
    expected = 1.0 - (1.0 - probability) ** depth
    sigma = math.sqrt(expected * (1.0 - expected) / packets)
    keys = np.arange(packets, dtype=np.int64)
    for path in ("scalar", "batch"):
        monitor = NitroSketch(
            CountSketch(depth, 512, seed),
            NitroConfig(probability=probability, top_k=0, seed=seed),
        )
        if path == "scalar":
            for key in keys.tolist():
                monitor.update(key)
        else:
            monitor.update_batch(keys)
        fraction = monitor.packets_sampled / monitor.packets_seen
        z_score = abs(fraction - expected) / sigma
        if z_score > Z_GATE:
            return CheckResult.fail(
                name,
                "%s path sampled %.4f of packets vs expected 1-(1-p)^d "
                "= %.4f (%.1f sigma)" % (path, fraction, expected, z_score),
                fraction=fraction,
                expected=expected,
                z_score=z_score,
            )
    return CheckResult.ok(
        name,
        "sampled fraction matches 1-(1-p)^d = %.4f on both paths "
        "(within %.1f sigma)" % (expected, Z_GATE),
        expected=expected,
    )


def _ks_statistic(gaps: np.ndarray, probability: float) -> float:
    """Sup distance between the empirical CDF and Geometric(p)'s."""
    values, counts = np.unique(gaps, return_counts=True)
    empirical = np.cumsum(counts) / len(gaps)
    theoretical = 1.0 - (1.0 - probability) ** values.astype(np.float64)
    return float(np.max(np.abs(empirical - theoretical)))


def check_geometric_gaps(
    n_gaps: int = 20_000, probability: float = 0.05, seed: int = 0
) -> CheckResult:
    """Both gap generators must draw from Geometric(p) (KS test).

    The scalar path's xorshift inverse-CDF draws and the batch path's
    ``np.random`` draws (as consumed through ``geometric_positions``)
    are independent implementations of the same distribution; a KS
    statistic above ``KS_COEFF / sqrt(n)`` on either means the slot
    process itself is wrong and every downstream guarantee is off.
    """
    name = "statistical.geometric_gaps"
    threshold = KS_COEFF / math.sqrt(n_gaps)

    sampler = GeometricSampler(probability, seed=seed + 11)
    scalar_gaps = np.array([sampler.next_gap() for _ in range(n_gaps)])

    rng = np.random.default_rng(seed + 13)
    positions, _ = geometric_positions(
        probability, int(n_gaps / probability * 1.5), rng
    )
    batch_gaps = np.diff(positions)[:n_gaps]

    for path, gaps in (("scalar", scalar_gaps), ("batch", batch_gaps)):
        if len(gaps) < n_gaps // 2:
            return CheckResult.fail(
                name, "%s path produced too few gaps (%d)" % (path, len(gaps))
            )
        statistic = _ks_statistic(np.asarray(gaps), probability)
        if statistic > threshold:
            return CheckResult.fail(
                name,
                "%s gap distribution fails KS vs Geometric(p=%g): "
                "D=%.4f > %.4f" % (path, probability, statistic, threshold),
                ks_statistic=statistic,
                threshold=threshold,
            )
    return CheckResult.ok(
        name,
        "scalar and batch gaps match Geometric(p=%g) "
        "(KS below %.4f over %d gaps)" % (probability, threshold, n_gaps),
        threshold=threshold,
        n_gaps=float(n_gaps),
    )


def check_convergence_agreement(seed: int = 0) -> CheckResult:
    """AlwaysCorrect must converge at the same packet on every path.

    Warm-up updates are exact (``p = 1``), so the sketch state at packet
    ``n`` is identical for scalar and batch ingest; with batches aligned
    to the check period ``Q`` the convergence packet must agree exactly,
    and a deliberately misaligned batch size may defer it by at most one
    batch (the check runs once per crossed period).
    """
    name = "statistical.convergence_agreement"

    def build() -> NitroSketch:
        return NitroSketch(
            CountSketch(5, 2048, seed),
            NitroConfig(
                probability=0.1,
                mode=NitroMode.ALWAYS_CORRECT,
                epsilon=0.5,
                convergence_check_period=1_000,
                top_k=0,
                seed=seed,
            ),
        )

    total = 5_000
    keys = np.full(total, 7, dtype=np.int64)

    scalar = build()
    for key in keys.tolist():
        scalar.update(key)
    batch = build()
    for start in range(0, total, 1_000):  # aligned with Q
        batch.update_batch(keys[start : start + 1_000])
    misaligned = build()
    for start in range(0, total, 333):
        misaligned.update_batch(keys[start : start + 333])

    points = {
        label: monitor.correctness.converged_at_packet
        for label, monitor in (
            ("scalar", scalar),
            ("batch", batch),
            ("misaligned", misaligned),
        )
    }
    if any(point is None for point in points.values()):
        return CheckResult.fail(
            name,
            "convergence never triggered: %s"
            % ", ".join("%s=%s" % item for item in sorted(points.items())),
        )
    if points["scalar"] != points["batch"]:
        return CheckResult.fail(
            name,
            "Q-aligned batch converged at packet %d, scalar at %d"
            % (points["batch"], points["scalar"]),
            scalar=float(points["scalar"]),
            batch=float(points["batch"]),
        )
    if not points["scalar"] <= points["misaligned"] <= points["scalar"] + 333:
        return CheckResult.fail(
            name,
            "misaligned batch converged at packet %d, outside [%d, %d]"
            % (points["misaligned"], points["scalar"], points["scalar"] + 333),
            scalar=float(points["scalar"]),
            misaligned=float(points["misaligned"]),
        )
    return CheckResult.ok(
        name,
        "all paths agree on the convergence point (packet %d; misaligned "
        "batch deferred to %d)" % (points["scalar"], points["misaligned"]),
        converged_at=float(points["scalar"]),
    )


def check_epoch_discipline(
    n_batches: int = 300,
    batch_duration: float = 0.001,
    seed: int = 0,
) -> CheckResult:
    """One ``nitro.epoch`` event per elapsed epoch, not per batch.

    Sub-epoch batches must *accumulate* toward the 100 ms adaptation
    epoch; a controller that re-evaluates the rate on every batch (the
    pre-fix behaviour) emits ``n_batches`` events here instead of
    ``n_batches * batch_duration / epoch``.
    """
    name = "statistical.epoch_discipline"
    epoch_seconds = 0.1
    monitor = NitroSketch(
        CountSketch(5, 512, seed),
        NitroConfig(
            probability=1.0,
            mode=NitroMode.ALWAYS_LINE_RATE,
            adaptation_epoch_seconds=epoch_seconds,
            top_k=0,
            seed=seed,
        ),
    )
    telemetry = Telemetry()
    monitor.telemetry = telemetry
    batch = np.arange(1_000, dtype=np.int64)
    for _ in range(n_batches):
        monitor.update_batch(batch, duration_seconds=batch_duration)
    events = len(telemetry.spans.spans(name="nitro.epoch"))
    expected = int(n_batches * batch_duration / epoch_seconds + 1e-9)
    if abs(events - expected) > 1:  # +-1 for float accumulation at the edge
        return CheckResult.fail(
            name,
            "%d sub-epoch batches (%.0f ms each) produced %d adaptation "
            "epochs; epoch discipline requires ~%d"
            % (n_batches, batch_duration * 1e3, events, expected),
            events=float(events),
            expected=float(expected),
        )
    return CheckResult.ok(
        name,
        "%d sub-epoch batches closed %d adaptation epochs (expected %d)"
        % (n_batches, events, expected),
        events=float(events),
        expected=float(expected),
    )


def run_statistical_checks(quick: bool = False, seed: int = 0) -> List[CheckResult]:
    """The full statistical suite (scaled down under ``quick``)."""
    return [
        check_unbiasedness(
            n_seeds=16 if quick else 48,
            packets=1_000 if quick else 2_000,
            base_seed=seed,
        ),
        check_sampled_fraction(packets=8_000 if quick else 20_000, seed=seed),
        check_geometric_gaps(n_gaps=8_000 if quick else 20_000, seed=seed),
        check_convergence_agreement(seed=seed),
        check_epoch_discipline(n_batches=120 if quick else 300, seed=seed),
    ]
