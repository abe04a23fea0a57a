"""Live accuracy auditing: shadow ground truth vs the running sketch.

The paper's guarantees (Theorems 1/2/5) say the sketch's answers stay
within ``eps * L1`` (Count-Min) or ``eps * L2`` (Count Sketch) even
while sampling at ``p << 1`` -- but nothing in a running system checks
that.  This module turns the guarantee into a live, alertable signal:

* :class:`ShadowAuditor` keeps a **uniform reservoir of flows with
  exact counts** alongside any monitor.  Membership is decided by a
  salted hash of the key (distinct/hash sampling, Gibbons' style): a
  flow is tracked iff ``h(key) < threshold``, and when the reservoir
  outgrows its capacity the threshold halves and the now-unqualified
  flows are evicted.  Because qualification depends only on the key,
  every packet of a tracked flow is counted from its first appearance,
  so the surviving reservoir holds *exact* per-flow truth -- a uniform
  sample over distinct flows, unbiased by flow size.
* :meth:`ShadowAuditor.audit` queries the monitored sketch for every
  reservoir key and exports observed mean / p50 / p90 / p99 / max
  relative error as gauges (the queries are **not** billed to the
  monitor's :class:`~repro.metrics.opcount.OpCounter`, so audited and
  unaudited runs keep identical data-plane op accounts).
* :class:`GuaranteeMonitor` computes the live theoretical bound --
  ``eps * L1`` from the auditor's exact stream mass for unsigned
  (Count-Min-style) sketches, ``eps * L2`` via the median-row
  ``sum C^2`` AMS estimate for signed ones -- compares it against the
  observed worst absolute error, and emits ``audit.violation`` /
  ``audit.drift`` tracer events when the guarantee breaks or the
  error/bound ratio trends up.

Everything records through the usual :class:`~repro.telemetry.Telemetry`
facade and defaults to :data:`~repro.telemetry.NULL_TELEMETRY`, so an
un-audited run stays bit-identical to the seed behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.theory import l1_error_bound, l2_error_bound
from repro.hashing import key_array
from repro.metrics.opcount import NULL_OPS
from repro.telemetry import NULL_TELEMETRY

#: Salt multiplier for the reservoir's key hash (splitmix64's constant).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(31)
_FULL_RANGE = 2**64


def _mix(keys: "np.ndarray", salt: int) -> "np.ndarray":
    """Cheap 64-bit mix of ``keys`` (vectorised, overflow-wrapping)."""
    if keys.dtype == np.int64:  # free reinterpret; astype would copy
        keys = keys.view(np.uint64)
    with np.errstate(over="ignore"):
        h = keys.astype(np.uint64, copy=False) + np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
        h = h * _HASH_MULTIPLIER
        h ^= h >> _HASH_SHIFT
        h = h * _HASH_MULTIPLIER
    return h


@dataclass
class AuditReport:
    """Observed error statistics from one audit round."""

    tracked_flows: int
    total_weight: float
    mean_relative_error: float
    p50_relative_error: float
    p90_relative_error: float
    p99_relative_error: float
    max_relative_error: float
    mean_absolute_error: float
    max_absolute_error: float
    #: The reservoir key with the worst absolute error (None when empty).
    worst_key: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "tracked_flows": self.tracked_flows,
            "total_weight": self.total_weight,
            "mean_relative_error": self.mean_relative_error,
            "p50_relative_error": self.p50_relative_error,
            "p90_relative_error": self.p90_relative_error,
            "p99_relative_error": self.p99_relative_error,
            "max_relative_error": self.max_relative_error,
            "mean_absolute_error": self.mean_absolute_error,
            "max_absolute_error": self.max_absolute_error,
            "worst_key": self.worst_key,
        }


class ShadowAuditor:
    """Exact ground truth for a uniform sample of flows.

    Parameters
    ----------
    capacity:
        Upper bound on reservoir size.  When crossed, the hash threshold
        halves (each surviving flow keeps its exact count).
    seed:
        Salt for the membership hash; different seeds sample different
        flow subsets.
    telemetry:
        Observability sink (defaults to the free null sink).
    component:
        Label distinguishing this auditor's metric samples.
    """

    def __init__(
        self,
        capacity: int = 256,
        seed: int = 0,
        telemetry=NULL_TELEMETRY,
        component: str = "audit",
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %d" % capacity)
        self.capacity = capacity
        self.seed = seed
        self.telemetry = telemetry
        self.component = component
        #: Exact counts for the tracked flows.
        self.truth: Dict[int, float] = {}
        #: Exact total stream mass (the L1 norm of the frequency vector).
        self.total_weight = 0.0
        self.packets_observed = 0
        self.audits = 0
        # Track-everything threshold; halves on reservoir overflow.
        self._threshold = _FULL_RANGE

    # -- sampling state -----------------------------------------------------

    @property
    def sample_rate(self) -> float:
        """Current flow-inclusion probability (1.0 until first overflow)."""
        return self._threshold / _FULL_RANGE

    @property
    def tracked_flows(self) -> int:
        return len(self.truth)

    def estimated_flow_count(self) -> float:
        """Unbiased distinct-flow estimate: tracked / sample_rate."""
        return len(self.truth) / self.sample_rate

    # -- ingest -------------------------------------------------------------

    def observe(self, key: int, weight: float = 1.0) -> None:
        """Account one packet of flow ``key`` (scalar path)."""
        self.packets_observed += 1
        self.total_weight += weight
        h = int(_mix(np.asarray([key]), self.seed)[0])
        if h < self._threshold:
            self.truth[key] = self.truth.get(key, 0.0) + weight
            if len(self.truth) > self.capacity:
                self._shrink()

    def observe_batch(self, keys: "np.ndarray", weights: Optional["np.ndarray"] = None) -> None:
        """Account a packet batch (the daemon's vectorised path)."""
        keys = np.asarray(keys)
        count = len(keys)
        if count == 0:
            return
        self.packets_observed += count
        if weights is None:
            self.total_weight += float(count)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            self.total_weight += float(np.sum(weights))
        if self._threshold == _FULL_RANGE:  # np.uint64 cannot hold 2**64
            selected = keys
            selected_weights = weights
        else:
            mask = _mix(keys, self.seed) < np.uint64(self._threshold)
            if not mask.any():
                return
            selected = keys[mask]
            selected_weights = None if weights is None else weights[mask]
        # Once the threshold settles, ``selected`` is a small fraction of
        # the batch -- a direct dict fold beats np.unique's sort there.
        truth = self.truth
        get = truth.get
        if selected_weights is None:
            for key in selected.tolist():
                truth[key] = get(key, 0.0) + 1.0
        else:
            for key, mass in zip(selected.tolist(), selected_weights.tolist()):
                truth[key] = get(key, 0.0) + mass
        if len(truth) > self.capacity:
            self._shrink()

    def _shrink(self) -> None:
        """Halve the hash threshold until the reservoir fits again."""
        keys = key_array(list(self.truth))
        hashes = _mix(keys, self.seed)
        keep = np.ones(len(keys), dtype=bool)
        while np.count_nonzero(keep) > self.capacity:
            self._threshold = max(self._threshold // 2, 1)
            keep = hashes < np.uint64(self._threshold)
        truth = self.truth
        self.truth = {key: truth[key] for key in keys[keep].tolist()}

    # -- auditing -----------------------------------------------------------

    def audit(self, monitor) -> AuditReport:
        """Query ``monitor`` for every reservoir key; export error gauges.

        ``monitor`` is any :class:`~repro.sketches.base.Monitor`; one
        ``query_batch`` call answers every key.  The queries run with
        the monitor's op accounting suspended so an audited run keeps
        the exact op tallies of an unaudited one.  The errors are one
        array pass in reservoir order; a NaN estimate counts as an
        infinite error, so a corrupted counter cannot read clean.
        """
        self.audits += 1
        truth = self.truth
        keys = list(truth)
        count = len(keys)
        if not count:
            report = AuditReport(0, self.total_weight, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        else:
            true = np.fromiter(truth.values(), np.float64, count)
            previous_ops = monitor.ops
            monitor.ops = NULL_OPS
            try:
                estimates = monitor.query_batch(key_array(keys))
            finally:
                monitor.ops = previous_ops
            abs_errors = np.abs(np.asarray(estimates, dtype=np.float64) - true)
            # relative_error's zero-truth rule: 0.0 for an exact zero, else inf.
            rel = np.divide(
                abs_errors,
                np.abs(true),
                out=np.where(abs_errors == 0, 0.0, math.inf),
                where=true != 0,
            )
            unbounded = np.isnan(abs_errors)
            if unbounded.any():
                abs_errors[unbounded] = rel[unbounded] = math.inf
            ordered = np.sort(rel)
            worst = int(np.argmax(abs_errors))  # the first maximum
            # Means by builtin sum in reservoir order: bit-equal to adding
            # the flows one by one, which np.sum's pairwise order is not.
            report = AuditReport(
                tracked_flows=count,
                total_weight=self.total_weight,
                mean_relative_error=sum(rel.tolist()) / count,
                # Nearest rank: the ceil(fraction * count)-th smallest.
                p50_relative_error=ordered.item(math.ceil(0.50 * count) - 1),
                p90_relative_error=ordered.item(math.ceil(0.90 * count) - 1),
                p99_relative_error=ordered.item(math.ceil(0.99 * count) - 1),
                max_relative_error=ordered.item(-1),
                mean_absolute_error=sum(abs_errors.tolist()) / count,
                max_absolute_error=abs_errors.item(worst),
                worst_key=keys[worst],
            )
        self._export(report)
        return report

    def _export(self, report: AuditReport) -> None:
        telemetry = self.telemetry
        component = self.component
        telemetry.count("audit_rounds_total", component=component)
        telemetry.gauge("audit_tracked_flows", report.tracked_flows, component=component)
        telemetry.gauge("audit_total_weight", report.total_weight, component=component)
        telemetry.gauge("audit_sample_rate", self.sample_rate, component=component)
        for stat, value in (
            ("mean", report.mean_relative_error),
            ("p50", report.p50_relative_error),
            ("p90", report.p90_relative_error),
            ("p99", report.p99_relative_error),
            ("max", report.max_relative_error),
        ):
            telemetry.gauge(
                "audit_relative_error", value, component=component, stat=stat
            )
        telemetry.gauge(
            "audit_absolute_error",
            report.mean_absolute_error,
            component=component,
            stat="mean",
        )
        telemetry.gauge(
            "audit_absolute_error",
            report.max_absolute_error,
            component=component,
            stat="max",
        )

    def reset(self) -> None:
        """Forget all truth and restore the track-everything threshold."""
        self.truth.clear()
        self.total_weight = 0.0
        self.packets_observed = 0
        self._threshold = _FULL_RANGE


@dataclass
class GuaranteeReport:
    """One guarantee check: observed error vs the live theoretical bound."""

    guarantee: str
    epsilon: float
    bound: float
    observed_max_error: float
    ratio: float
    violated: bool
    audit: AuditReport = field(repr=False, default=None)

    def as_dict(self) -> Dict[str, object]:
        return {
            "guarantee": self.guarantee,
            "epsilon": self.epsilon,
            "bound": self.bound,
            "observed_max_error": self.observed_max_error,
            "ratio": self.ratio,
            "violated": self.violated,
        }


class GuaranteeMonitor:
    """Tracks the live accuracy guarantee of a (Nitro-)sketch monitor.

    Parameters
    ----------
    auditor:
        The :class:`ShadowAuditor` holding exact truth for the stream.
    monitor:
        The monitored estimator -- a :class:`~repro.core.NitroSketch`
        or any canonical sketch.  Signedness picks the guarantee:
        unsigned (Count-Min-style) sketches get the Theorem 1
        ``eps * L1`` bound with the auditor's exact stream mass;
        signed (Count Sketch / K-ary) get the Theorem 2/5 ``eps * L2``
        bound via the median-row ``sum C^2`` AMS estimate the
        AlwaysCorrect controller already maintains.
    epsilon:
        Accuracy target; defaults to ``monitor.config.epsilon`` when the
        monitor carries a NitroConfig.
    check_interval_packets:
        Run a check automatically every this many observed packets
        (via :meth:`observe_batch`); ``0`` disables auto-checks.
    drift_ratio / drift_window:
        Emit an ``audit.drift`` event when the error/bound ratio has
        risen for ``drift_window`` consecutive checks and sits above
        ``drift_ratio`` -- the early-warning signal before an outright
        violation.
    """

    def __init__(
        self,
        auditor: ShadowAuditor,
        monitor,
        epsilon: Optional[float] = None,
        guarantee: Optional[str] = None,
        check_interval_packets: int = 0,
        drift_ratio: float = 0.5,
        drift_window: int = 3,
        telemetry=None,
    ) -> None:
        self.auditor = auditor
        self.monitor = monitor
        config = getattr(monitor, "config", None)
        if epsilon is None:
            epsilon = getattr(config, "epsilon", None)
        if epsilon is None:
            raise ValueError(
                "epsilon required (monitor carries no NitroConfig to read it from)"
            )
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1), got %r" % (epsilon,))
        self.epsilon = float(epsilon)
        if guarantee is None:
            guarantee = "l2" if self._sketch_of(monitor).signed else "l1"
        if guarantee not in ("l1", "l2"):
            raise ValueError("guarantee must be 'l1' or 'l2', got %r" % (guarantee,))
        self.guarantee = guarantee
        if drift_window < 2:
            raise ValueError("drift_window must be >= 2")
        self.check_interval_packets = check_interval_packets
        self.drift_ratio = drift_ratio
        self.drift_window = drift_window
        self.telemetry = telemetry if telemetry is not None else auditor.telemetry
        self.violations = 0
        self.checks = 0
        self.last_report: Optional[GuaranteeReport] = None
        self._ratio_history: List[float] = []
        self._packets_since_check = 0
        self._drift_alerted = False

    @staticmethod
    def _sketch_of(monitor):
        return getattr(monitor, "sketch", monitor)

    # -- ingest passthrough -------------------------------------------------

    def observe(self, key: int, weight: float = 1.0) -> None:
        self.auditor.observe(key, weight)
        self._packets_since_check += 1
        self._maybe_check()

    def observe_batch(self, keys: "np.ndarray", weights: Optional["np.ndarray"] = None) -> None:
        self.auditor.observe_batch(keys, weights)
        self._packets_since_check += len(np.asarray(keys))
        self._maybe_check()

    def _maybe_check(self) -> None:
        if (
            self.check_interval_packets > 0
            and self._packets_since_check >= self.check_interval_packets
        ):
            self.check()

    # -- the bound ----------------------------------------------------------

    def bound(self) -> float:
        """The live theoretical error bound for the current stream."""
        if self.guarantee == "l1":
            return l1_error_bound(self.epsilon, self.auditor.total_weight)
        sketch = self._sketch_of(self.monitor)
        return l2_error_bound(self.epsilon, max(sketch.l2_squared_estimate(), 0.0))

    def check(self) -> GuaranteeReport:
        """Audit now: observed worst error vs the theoretical bound."""
        self._packets_since_check = 0
        self.checks += 1
        audit = self.auditor.audit(self.monitor)
        bound = self.bound()
        observed = audit.max_absolute_error
        if bound > 0:
            ratio = observed / bound
        else:
            ratio = 0.0 if observed == 0 else math.inf
        violated = observed > bound
        report = GuaranteeReport(
            guarantee=self.guarantee,
            epsilon=self.epsilon,
            bound=bound,
            observed_max_error=observed,
            ratio=ratio,
            violated=violated,
            audit=audit,
        )
        self.last_report = report
        self._export(report)
        self._track_drift(ratio)
        return report

    def _export(self, report: GuaranteeReport) -> None:
        telemetry = self.telemetry
        component = self.auditor.component
        labels = {"component": component, "guarantee": self.guarantee}
        telemetry.gauge("audit_error_bound", report.bound, **labels)
        telemetry.gauge("audit_bound_ratio", report.ratio, component=component)
        if report.violated:
            self.violations += 1
            telemetry.count(
                "audit_guarantee_violations_total", component=component
            )
            telemetry.event(
                "audit.violation",
                component=component,
                guarantee=self.guarantee,
                epsilon=self.epsilon,
                bound=report.bound,
                observed=report.observed_max_error,
                worst_key=report.audit.worst_key,
                tracked_flows=report.audit.tracked_flows,
            )
        # Violations (cumulative) are exported even when zero so health
        # rules can distinguish "never checked" from "checked and clean".
        telemetry.gauge(
            "audit_guarantee_violations", self.violations, component=component
        )

    def _track_drift(self, ratio: float) -> None:
        history = self._ratio_history
        history.append(ratio)
        del history[: -self.drift_window]
        if len(history) < self.drift_window:
            return
        rising = all(a < b for a, b in zip(history, history[1:]))
        if rising and ratio > self.drift_ratio:
            if not self._drift_alerted:
                self._drift_alerted = True
                self.telemetry.event(
                    "audit.drift",
                    component=self.auditor.component,
                    ratio=ratio,
                    window=self.drift_window,
                    drift_ratio=self.drift_ratio,
                )
        else:
            self._drift_alerted = False

    def reset(self) -> None:
        """Clear truth, history and counters (keeps the configuration)."""
        self.auditor.reset()
        self.violations = 0
        self.checks = 0
        self.last_report = None
        self._ratio_history = []
        self._packets_since_check = 0
        self._drift_alerted = False
