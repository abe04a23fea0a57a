"""Health evaluation: a rule engine over telemetry snapshots.

Auditing (``repro.telemetry.audit``) produces raw signals -- observed
error, the live theoretical bound, violation counters, the sampling
probability, daemon backlog.  This module condenses them into a single
operator-facing answer: **is the deployment healthy?**

A :class:`HealthRule` inspects one metric snapshot (the JSON-able dict
from :func:`repro.telemetry.exposition.snapshot`) and returns a
:class:`RuleResult` with status ``ok`` / ``warn`` / ``fail`` and a
human-readable detail line.  :class:`HealthEvaluator` runs a rule set,
aggregates the worst status, exports per-rule ``health_status`` gauges
(0 = ok, 1 = warn, 2 = fail), and emits a ``health.transition`` event
whenever the overall status changes.  The ``/health`` route of
:class:`~repro.telemetry.TelemetryServer` serves the result as JSON
(HTTP 200 for ok/warn, 503 for fail) so any load balancer or alertman
can watch a live run.

The default rule set covers the failure modes the paper's operational
story makes possible:

* ``error_slo`` -- observed mean relative error above the SLO;
* ``guarantee`` -- a Theorem 1/2/5 bound violation was recorded, or the
  error/bound ratio is drifting toward one;
* ``p_floor`` -- AlwaysLineRate pinned the sampling probability at the
  bottom of the ladder (the switch is overloaded, accuracy is at its
  configured floor);
* ``convergence`` -- AlwaysCorrect keeps evaluating its threshold test
  without ever crossing (the stream is too small or too uniform for the
  configured epsilon);
* ``queue_depth`` -- the measurement daemon's ingest queue is backing
  up (separate-thread integration falling behind the switch);
* ``checkpoint_staleness`` -- a checkpointing daemon has gone too long
  without a successful checkpoint, or restores are hitting corrupt
  files (crash-safety margin eroding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.telemetry.exposition import snapshot as snapshot_of

#: Status ordering for aggregation (larger is worse).
_SEVERITY = {"ok": 0, "warn": 1, "fail": 2}


def sample_value(
    snap: Dict, metric: str, labels: Optional[Dict[str, str]] = None
) -> Optional[float]:
    """The value of one gauge/counter sample in a snapshot, or ``None``.

    ``labels`` filters by subset match (the sample must carry at least
    the given label pairs); with multiple matches the values are summed,
    which is the natural reading for counters split by label.
    """
    family = snap.get("metrics", {}).get(metric)
    if family is None:
        return None
    wanted = labels or {}
    total = 0.0
    matched = False
    for sample in family.get("samples", ()):
        sample_labels = sample.get("labels", {})
        if all(sample_labels.get(k) == v for k, v in wanted.items()):
            value = sample.get("value")
            if isinstance(value, str):  # non-finite encoded for JSON
                value = float(value.replace("+Inf", "inf").replace("-Inf", "-inf"))
            if value is None:  # histogram sample; not a scalar
                continue
            total += float(value)
            matched = True
    return total if matched else None


@dataclass
class RuleResult:
    """One rule's verdict."""

    name: str
    status: str
    detail: str
    value: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
        }
        if self.value is not None:
            payload["value"] = self.value
        return payload


class HealthRule:
    """Base class: evaluate one snapshot into a :class:`RuleResult`."""

    name = "rule"

    def evaluate(self, snap: Dict) -> RuleResult:  # pragma: no cover - abstract
        raise NotImplementedError

    def _ok(self, detail: str, value: Optional[float] = None) -> RuleResult:
        return RuleResult(self.name, "ok", detail, value)

    def _warn(self, detail: str, value: Optional[float] = None) -> RuleResult:
        return RuleResult(self.name, "warn", detail, value)

    def _fail(self, detail: str, value: Optional[float] = None) -> RuleResult:
        return RuleResult(self.name, "fail", detail, value)


class ErrorSLORule(HealthRule):
    """Observed mean relative error must stay under the SLO."""

    name = "error_slo"

    def __init__(self, slo: float = 0.05, component: str = "audit") -> None:
        if slo <= 0:
            raise ValueError("slo must be positive, got %r" % (slo,))
        self.slo = slo
        self.component = component

    def evaluate(self, snap: Dict) -> RuleResult:
        observed = sample_value(
            snap,
            "audit_relative_error",
            {"component": self.component, "stat": "mean"},
        )
        if observed is None:
            return self._ok("no audit samples yet")
        if observed > self.slo:
            return self._fail(
                "mean relative error %.4f exceeds SLO %.4f" % (observed, self.slo),
                observed,
            )
        return self._ok(
            "mean relative error %.4f within SLO %.4f" % (observed, self.slo), observed
        )


class GuaranteeRule(HealthRule):
    """No Theorem 1/2/5 violations; warn when the ratio nears the bound."""

    name = "guarantee"

    def __init__(self, warn_ratio: float = 0.8, component: str = "audit") -> None:
        self.warn_ratio = warn_ratio
        self.component = component

    def evaluate(self, snap: Dict) -> RuleResult:
        violations = sample_value(
            snap, "audit_guarantee_violations", {"component": self.component}
        )
        if violations is None:
            return self._ok("no guarantee checks yet")
        if violations > 0:
            return self._fail(
                "%d guarantee violation(s) recorded" % int(violations), violations
            )
        ratio = sample_value(
            snap, "audit_bound_ratio", {"component": self.component}
        )
        if ratio is not None and ratio > self.warn_ratio:
            return self._warn(
                "error at %.0f%% of the theoretical bound" % (100 * ratio), ratio
            )
        return self._ok(
            "observed error within bound"
            + ("" if ratio is None else " (ratio %.3f)" % ratio),
            ratio,
        )


class ProbabilityFloorRule(HealthRule):
    """Warn when adaptive sampling is pinned at the ladder's bottom rung."""

    name = "p_floor"

    def __init__(self, floor: Optional[float] = None) -> None:
        if floor is None:
            from repro.core.config import P_MIN

            floor = P_MIN
        self.floor = floor

    def evaluate(self, snap: Dict) -> RuleResult:
        probability = sample_value(snap, "nitro_sampling_probability")
        if probability is None:
            return self._ok("no sampling-probability gauge")
        if probability <= self.floor:
            return self._warn(
                "p=%.6g pinned at the ladder floor (overload)" % probability,
                probability,
            )
        return self._ok("p=%.6g above the floor" % probability, probability)


class ConvergenceRule(HealthRule):
    """Warn when AlwaysCorrect keeps checking but never converges."""

    name = "convergence"

    def __init__(self, stall_checks: int = 50) -> None:
        if stall_checks < 1:
            raise ValueError("stall_checks must be >= 1")
        self.stall_checks = stall_checks

    def evaluate(self, snap: Dict) -> RuleResult:
        checks = sample_value(snap, "nitro_convergence_checks_total")
        if checks is None:
            return self._ok("not an AlwaysCorrect run")
        crossings = sample_value(snap, "nitro_convergence_total") or 0.0
        if crossings > 0:
            return self._ok("converged after %d check(s)" % int(checks), checks)
        if checks >= self.stall_checks:
            return self._warn(
                "%d convergence checks without crossing T (stalled?)" % int(checks),
                checks,
            )
        return self._ok("warming up (%d checks so far)" % int(checks), checks)


class QueueDepthRule(HealthRule):
    """The measurement daemon's ingest queue must not back up."""

    name = "queue_depth"

    def __init__(self, warn_depth: int = 16, fail_depth: int = 64) -> None:
        if not 0 < warn_depth <= fail_depth:
            raise ValueError("need 0 < warn_depth <= fail_depth")
        self.warn_depth = warn_depth
        self.fail_depth = fail_depth

    def evaluate(self, snap: Dict) -> RuleResult:
        depth = sample_value(snap, "daemon_queue_depth")
        if depth is None:
            return self._ok("no queued daemon")
        if depth >= self.fail_depth:
            return self._fail("queue depth %d (falling behind)" % int(depth), depth)
        if depth >= self.warn_depth:
            return self._warn("queue depth %d" % int(depth), depth)
        return self._ok("queue depth %d" % int(depth), depth)


class QueueSaturationRule(HealthRule):
    """The service must not be shedding ingest under backpressure.

    Watches the service-wide drop accounting: batches rejected by tenant
    queues (``daemon_batches_dropped_total`` summed over daemons, plus
    the wire-side ``service_dropped_batches_total``).  Any drop warns --
    drops are *legal* under the ``overflow="drop"`` policy but always
    mean a consumer fell behind its producers; a drop fraction above
    ``fail_fraction`` of accepted batches fails.
    """

    name = "queue_saturation"

    def __init__(self, fail_fraction: float = 0.25) -> None:
        if not 0 < fail_fraction <= 1:
            raise ValueError("fail_fraction must be in (0, 1]")
        self.fail_fraction = fail_fraction

    def evaluate(self, snap: Dict) -> RuleResult:
        dropped = sample_value(snap, "daemon_batches_dropped_total") or 0.0
        wire_dropped = sample_value(snap, "service_dropped_batches_total") or 0.0
        dropped = max(dropped, wire_dropped)
        if dropped <= 0:
            return self._ok("no dropped batches", 0.0)
        accepted = sample_value(snap, "service_ingest_batches_total")
        if accepted is None:
            accepted = sample_value(snap, "daemon_batches_total") or 0.0
        total = accepted + dropped
        fraction = dropped / total if total > 0 else 1.0
        if fraction >= self.fail_fraction:
            return self._fail(
                "dropping %.0f%% of offered batches" % (fraction * 100), fraction
            )
        return self._warn(
            "%d batches dropped (%.1f%%)" % (int(dropped), fraction * 100), fraction
        )


class CheckpointStalenessRule(HealthRule):
    """A checkpointing deployment must keep its checkpoints fresh.

    Watches ``daemon_checkpoint_age_batches`` (distance, in ingested
    batches, to the last successful checkpoint) and the restore-failure
    counter: a stale checkpoint widens the window of state a crash
    loses, and restore failures mean rotations are burning down.
    """

    name = "checkpoint_staleness"

    def __init__(self, warn_age: int = 64, fail_age: int = 256) -> None:
        if not 0 < warn_age <= fail_age:
            raise ValueError("need 0 < warn_age <= fail_age")
        self.warn_age = warn_age
        self.fail_age = fail_age

    def evaluate(self, snap: Dict) -> RuleResult:
        age = sample_value(snap, "daemon_checkpoint_age_batches")
        failures = sample_value(snap, "checkpoint_restore_failures_total")
        if age is None and failures is None:
            return self._ok("checkpointing not enabled")
        if failures:
            return self._warn(
                "%d checkpoint(s) failed validation on restore" % int(failures),
                failures,
            )
        if age is None:
            return self._ok("no checkpoint age gauge yet")
        if age >= self.fail_age:
            return self._fail(
                "last checkpoint %d batch(es) ago (stale)" % int(age), age
            )
        if age >= self.warn_age:
            return self._warn("last checkpoint %d batch(es) ago" % int(age), age)
        return self._ok("last checkpoint %d batch(es) ago" % int(age), age)


def default_rules(
    error_slo: float = 0.05, component: str = "audit"
) -> List[HealthRule]:
    """The standard rule set (see module docstring)."""
    return [
        ErrorSLORule(slo=error_slo, component=component),
        GuaranteeRule(component=component),
        ProbabilityFloorRule(),
        ConvergenceRule(),
        QueueDepthRule(),
        CheckpointStalenessRule(),
    ]


@dataclass
class HealthReport:
    """The aggregated verdict of one evaluation."""

    status: str
    results: List[RuleResult]
    evaluations: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "evaluations": self.evaluations,
            "rules": [result.as_dict() for result in self.results],
        }


class HealthEvaluator:
    """Runs a rule set over a telemetry object's live snapshot.

    Exports per-rule and overall ``health_status`` gauges
    (0 = ok, 1 = warn, 2 = fail) back into the same registry and traces
    ``health.transition`` events when the overall status changes, so the
    health history is itself observable.

    Pass an :class:`~repro.telemetry.alerts.AlertManager` as ``alerts``
    to unify the two planes: every evaluation mirrors the rule results
    into ``health_<rule>`` alerts (fail = firing, warn = pending,
    ok = inactive/resolved), so the ``/health`` route's 503 and a firing
    alert can never disagree about the same condition.
    """

    def __init__(
        self,
        telemetry,
        rules: Optional[Sequence[HealthRule]] = None,
        alerts=None,
    ) -> None:
        self.telemetry = telemetry
        self.rules = list(rules) if rules is not None else default_rules()
        if not self.rules:
            raise ValueError("at least one health rule required")
        self.alerts = alerts
        self.evaluations = 0
        self.last_status: Optional[str] = None

    def evaluate(self) -> HealthReport:
        """Evaluate every rule against a fresh snapshot."""
        self.evaluations += 1
        snap = snapshot_of(self.telemetry.registry)
        results = [rule.evaluate(snap) for rule in self.rules]
        status = "ok"
        for result in results:
            if _SEVERITY[result.status] > _SEVERITY[status]:
                status = result.status
        for result in results:
            self.telemetry.gauge(
                "health_status", _SEVERITY[result.status], rule=result.name
            )
        self.telemetry.gauge("health_status", _SEVERITY[status], rule="overall")
        if status != self.last_status:
            self.telemetry.event(
                "health.transition",
                previous=self.last_status,
                status=status,
                failing=[r.name for r in results if r.status != "ok"],
            )
            self.last_status = status
        if self.alerts is not None:
            self.alerts.observe_health(results)
        return HealthReport(status=status, results=results, evaluations=self.evaluations)
