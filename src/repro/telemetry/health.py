"""The stock health rule set: what ``/health`` watches.

Auditing (``repro.telemetry.audit``) produces raw signals -- observed
error, the live theoretical bound, violation counters, the sampling
probability, daemon backlog.  :func:`health_rules` turns them into
ordinary alert rules, so one :class:`~repro.telemetry.alerts.AlertManager`
answers the operator-facing question **is the deployment healthy?**
The ``/health`` route of :class:`~repro.telemetry.TelemetryServer`
evaluates that manager once per request and serves its
:meth:`~repro.telemetry.alerts.AlertManager.verdict`: ``fail`` (HTTP
503) while a critical alert fires, ``warn`` while any other alert is
pending or firing, ``ok`` otherwise.  The verdict's alerts share the
engine's state machine, ``ALERTS`` gauges, ``alert.transition`` events,
transition log and notification sinks.

The rules cover the failure modes the paper's operational story makes
possible -- error above the SLO, a violated or nearly-violated bound,
AlwaysLineRate pinned at the ladder floor, AlwaysCorrect never
converging, daemon backlog, stale or corrupt checkpoints, and shed
ingest.  Threshold alerts fire per labelset; a rule whose metric family
is absent reports nothing.  ``docs/OBSERVABILITY.md`` tables them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.telemetry.alerts import AlertRule, Condition, ThresholdRule, metric_value

#: ``guarantee_margin`` fires above this share of the Theorem 1/2/5 bound.
BOUND_RATIO_WARN = 0.8
#: AlwaysCorrect threshold checks without a crossing that read as a stall.
CONVERGENCE_STALL_CHECKS = 50
#: Daemon queue depths (batches) for ``queue_depth`` / ``queue_backlog``.
QUEUE_DEPTH_WARN = 16
QUEUE_DEPTH_FAIL = 64
#: Batches since the last checkpoint for ``checkpoint_age`` / ``_stale``.
CHECKPOINT_AGE_WARN = 64
CHECKPOINT_AGE_FAIL = 256
#: Share of offered batches dropped at which ``drop_share`` fires.
DROP_SHARE_FAIL = 0.25


class ConvergenceStallRule(AlertRule):
    """AlwaysCorrect keeps checking its threshold but never crosses it."""

    def __init__(self) -> None:
        super().__init__(
            "convergence_stall",
            description="AlwaysCorrect keeps checking without crossing T "
            "(stream too small or too uniform for epsilon).",
        )

    def evaluate(self, snap: Dict, history, now: float) -> List[Condition]:
        checks = metric_value(snap, "nitro_convergence_checks_total")
        if checks is None:
            return []
        crossings = metric_value(snap, "nitro_convergence_total") or 0.0
        active = crossings == 0 and checks >= CONVERGENCE_STALL_CHECKS
        return [
            Condition(
                labels={},
                value=checks,
                active=active,
                cleared=not active,
                detail="%d convergence check(s), %d crossing(s)"
                % (int(checks), int(crossings)),
            )
        ]


class DropShareRule(AlertRule):
    """The share of offered batches shed under backpressure."""

    def __init__(self) -> None:
        super().__init__(
            "drop_share",
            severity="critical",
            description="At least %d%% of offered batches dropped."
            % int(100 * DROP_SHARE_FAIL),
        )

    def evaluate(self, snap: Dict, history, now: float) -> List[Condition]:
        daemon = metric_value(snap, "daemon_batches_dropped_total")
        wire = metric_value(snap, "service_dropped_batches_total")
        if daemon is None and wire is None:
            return []
        # A daemon behind the wire counts the same drops: take the larger.
        dropped = max(daemon or 0.0, wire or 0.0)
        accepted = metric_value(snap, "service_ingest_batches_total")
        if accepted is None:
            accepted = metric_value(snap, "daemon_batches_total") or 0.0
        share = dropped / (accepted + dropped) if dropped > 0 else 0.0
        active = share >= DROP_SHARE_FAIL
        return [
            Condition(
                labels={},
                value=share,
                active=active,
                cleared=not active,
                detail="%d of %d offered batches dropped"
                % (int(dropped), int(accepted + dropped)),
            )
        ]


def health_rules(error_slo: float = 0.05) -> List[AlertRule]:
    """The stock ``/health`` rules; ``error_slo`` is the mean relative-error SLO."""
    if error_slo <= 0:
        raise ValueError("error_slo must be positive, got %r" % (error_slo,))
    from repro.core.config import P_MIN  # repro.core pulls in NumPy

    return [
        ThresholdRule(
            "error_slo",
            "audit_relative_error",
            error_slo,
            op=">",
            labels={"stat": "mean"},
            severity="critical",
            description="Observed mean relative error above the SLO.",
        ),
        ThresholdRule(
            "guarantee_violation",
            "audit_guarantee_violations",
            0,
            op=">",
            severity="critical",
            description="A Theorem 1/2/5 bound violation was recorded.",
        ),
        ThresholdRule(
            "guarantee_margin",
            "audit_bound_ratio",
            BOUND_RATIO_WARN,
            op=">",
            description="Observed error nearing the theoretical bound.",
        ),
        ThresholdRule(
            "p_floor",
            "nitro_sampling_probability",
            P_MIN,
            op="<=",
            description="AlwaysLineRate pinned p at the ladder floor (overload).",
        ),
        ConvergenceStallRule(),
        ThresholdRule(
            "queue_depth",
            "daemon_queue_depth",
            QUEUE_DEPTH_WARN,
            description="The daemon's ingest queue is backing up.",
        ),
        ThresholdRule(
            "queue_backlog",
            "daemon_queue_depth",
            QUEUE_DEPTH_FAIL,
            severity="critical",
            description="The daemon is falling behind the switch.",
        ),
        ThresholdRule(
            "checkpoint_restore_failures",
            "checkpoint_restore_failures_total",
            0,
            op=">",
            description="Checkpoint files failed validation on restore.",
        ),
        ThresholdRule(
            "checkpoint_age",
            "daemon_checkpoint_age_batches",
            CHECKPOINT_AGE_WARN,
            description="The last checkpoint is getting old.",
        ),
        ThresholdRule(
            "checkpoint_stale",
            "daemon_checkpoint_age_batches",
            CHECKPOINT_AGE_FAIL,
            severity="critical",
            description="The last checkpoint is stale: a crash loses that much state.",
        ),
        ThresholdRule(
            "batches_dropped",
            "service_dropped_batches_total",
            0,
            op=">",
            description="The service shed batches under backpressure.",
        ),
        DropShareRule(),
    ]
