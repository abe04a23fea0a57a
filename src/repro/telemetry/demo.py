"""A self-contained instrumented run for smoke tests and the CLI.

``run_demo`` drives the full stack the README's operational story is
about -- an AlwaysCorrect NitroSketch (Count Sketch substrate) riding a
VPP graph pipeline behind a measurement daemon, then a short control-
plane epoch loop -- with one :class:`~repro.telemetry.Telemetry` sink
attached everywhere.  ``validate`` then checks the snapshot contains
every metric and event the run must have produced; the CI smoke job
(``nitrosketch telemetry --demo``) fails if it does not.

This module is imported lazily by the CLI so that importing
:mod:`repro.telemetry` itself stays NumPy-free.
"""

from __future__ import annotations

from typing import Dict, List

#: Metric families the demo run must populate (acceptance criteria).
REQUIRED_METRICS = (
    "nitro_sampling_probability",
    "nitro_probability_changes_total",
    "nitro_convergence_total",
    "nitro_convergence_checks_total",
    "nitro_packets_total",
    "nitro_sampled_packets_total",
    "pipeline_batches_total",
    "pipeline_stage_seconds",
    "daemon_batches_total",
    "daemon_ingest_seconds",
    "control_epochs_total",
    "control_task_seconds",
    "simulator_capacity_mpps",
    "opcounter",
)

#: Event names the demo trace must contain.
REQUIRED_EVENTS = (
    "nitro.convergence",
    "nitro.p_change",
    "control.epoch",
    "control.task",
    "simulate.run",
)

#: Metric families the alerting demo must populate.
REQUIRED_ALERT_METRICS = (
    "ALERTS",
    "alerts_transitions_total",
    "alerts_evaluations_total",
    "notifications_sent_total",
    "anomaly_entropy_bits",
    "anomaly_entropy_drop",
    "anomaly_change_score",
    "anomaly_hh_churn",
    "anomaly_epochs_total",
    "daemon_batches_total",
)

#: The lifecycle the demo's entropy_collapse alert must walk, in order.
ALERT_LIFECYCLE = (
    ("inactive", "pending"),
    ("pending", "firing"),
    ("firing", "resolved"),
)

#: Metric families an audited run must additionally populate.
REQUIRED_AUDIT_METRICS = (
    "audit_rounds_total",
    "audit_tracked_flows",
    "audit_total_weight",
    "audit_sample_rate",
    "audit_relative_error",
    "audit_absolute_error",
    "audit_error_bound",
    "audit_bound_ratio",
    "audit_guarantee_violations",
)


def run_demo(telemetry, packets: int = 100_000, seed: int = 7) -> Dict[str, object]:
    """Run the instrumented demo pipeline; returns a summary dict."""
    from repro.control import ControlPlane, HeavyHitterTask
    from repro.core import NitroSketch, nitro_countsketch
    from repro.core.config import NitroConfig, NitroMode
    from repro.sketches import CountSketch
    from repro.switchsim import MeasurementDaemon, SwitchSimulator, VPPPipeline
    from repro.traffic import caida_like

    trace = caida_like(packets, n_flows=max(200, packets // 20), seed=seed)

    # Data plane: AlwaysCorrect Nitro Count Sketch behind a VPP graph.
    # epsilon is deliberately loose so the convergence threshold T is
    # crossable within a smoke-test-sized trace.
    config = NitroConfig(
        probability=0.1,
        epsilon=0.5,
        mode=NitroMode.ALWAYS_CORRECT,
        convergence_check_period=1000,
        top_k=100,
        seed=seed,
    )
    nitro = NitroSketch(CountSketch(5, 4096, seed=seed), config)
    daemon = MeasurementDaemon(nitro, name="nitro-cs")
    simulator = SwitchSimulator(VPPPipeline(), daemon, telemetry=telemetry)
    result = simulator.run(trace)

    # Control plane: a short epoch loop with a heavy-hitter task.
    task = HeavyHitterTask(0.005)
    task.telemetry = telemetry
    plane = ControlPlane(
        lambda epoch: nitro_countsketch(probability=0.1, top_k=100, seed=seed),
        [task],
        score=False,
        telemetry=telemetry,
    )
    epochs = plane.run_epochs(trace, epoch_packets=max(packets // 4, 1))

    return {
        "packets": packets,
        "converged": nitro.converged,
        "converged_at_packet": (
            nitro.correctness.converged_at_packet if nitro.correctness else None
        ),
        "probability": nitro.probability,
        "achieved_mpps": result.achieved_mpps,
        "epochs": len(epochs),
    }


def run_audited_demo(
    telemetry,
    packets: int = 50_000,
    seed: int = 7,
    corrupt: bool = False,
) -> Dict[str, object]:
    """Run the demo pipeline with a live shadow auditor attached.

    The same VPP + AlwaysCorrect Nitro Count Sketch stack as
    :func:`run_demo`, but a :class:`~repro.telemetry.audit.ShadowAuditor`
    + :class:`~repro.telemetry.audit.GuaranteeMonitor` ride the daemon:
    every ingested batch is mirrored into exact shadow truth, and a final
    guarantee check compares observed worst error against the Theorem 2/5
    ``eps * L2`` bound.  With ``corrupt=True`` the sketch's counters are
    smashed after ingest (simulating memory corruption / a broken
    implementation) so the check **must** record a violation -- the CI
    smoke's negative path.
    """
    from repro.core import NitroSketch
    from repro.core.config import NitroConfig, NitroMode
    from repro.sketches import CountSketch
    from repro.switchsim import MeasurementDaemon, SwitchSimulator, VPPPipeline
    from repro.telemetry.audit import GuaranteeMonitor, ShadowAuditor
    from repro.traffic import caida_like

    trace = caida_like(packets, n_flows=max(200, packets // 20), seed=seed)
    config = NitroConfig(
        probability=0.1,
        epsilon=0.5,
        mode=NitroMode.ALWAYS_CORRECT,
        convergence_check_period=1000,
        top_k=100,
        seed=seed,
    )
    nitro = NitroSketch(CountSketch(5, 4096, seed=seed), config)
    auditor = ShadowAuditor(capacity=256, seed=seed, telemetry=telemetry)
    guard = GuaranteeMonitor(auditor, nitro)
    daemon = MeasurementDaemon(nitro, name="nitro-cs", auditor=guard)
    simulator = SwitchSimulator(VPPPipeline(), daemon, telemetry=telemetry)
    result = simulator.run(trace)

    if corrupt:
        # Wipe the counter arrays (a mid-run memory loss).  Additive or
        # multiplicative smashing cannot reliably trip the check: the
        # Count Sketch median cancels constant offsets, and the eps*L2
        # bound is read from the same counters, so scaling them scales
        # the bound identically.  Zeroing deflates the bound to 0 while
        # every estimate's error becomes the flow's exact truth -- a
        # guaranteed violation (and an infinite error/bound ratio, which
        # exercises the non-finite exposition path end to end).
        nitro.sketch.counters[:] = 0.0
    report = guard.check()

    return {
        "packets": packets,
        "corrupted": corrupt,
        "converged": nitro.converged,
        "probability": nitro.probability,
        "achieved_mpps": result.achieved_mpps,
        "tracked_flows": auditor.tracked_flows,
        "guarantee": report.guarantee,
        "bound": report.bound,
        "observed_max_error": report.observed_max_error,
        "ratio": report.ratio,
        "violated": report.violated,
        "violations": guard.violations,
        "mean_relative_error": report.audit.mean_relative_error,
    }


def run_alert_demo(
    telemetry,
    packets: int = 60_000,
    seed: int = 7,
    epochs: int = 12,
    webhook_url=None,
    on_transition=None,
    on_ready=None,
):
    """Replay the DDoS-onset trace through an alerting daemon.

    The end-to-end proof of ISSUE 8: a :class:`MeasurementDaemon`
    carrying a NitroSketch K-ary monitor ingests
    :func:`~repro.telemetry.anomaly.ddos_onset_trace`; at every epoch
    boundary the sketch-driven detectors update the ``anomaly_*``
    gauges and the default rule set is evaluated.  The attack window
    collapses flow entropy, so the ``entropy_collapse`` alert must walk
    inactive → pending → firing, deliver notifications (to the
    in-memory sink and, when ``webhook_url`` is given, over HTTP), and
    resolve after the attack stops.  A :class:`ManualClock` pins every
    transition timestamp, so the run is deterministic under ``seed``.

    Returns a summary dict that also carries the live objects
    (``manager``, ``history``, ``detectors``, ``daemon``) so the CLI
    can serve them after the run.
    """
    from repro.core import nitro_kary
    from repro.switchsim import MeasurementDaemon
    from repro.telemetry import (
        AlertManager,
        HistoryStore,
        ManualClock,
        MemorySink,
        WebhookSink,
    )
    from repro.telemetry.anomaly import (
        SketchAnomalyDetectors,
        ddos_onset_trace,
        default_alert_rules,
    )
    from repro.traffic.replay import Batch

    trace = ddos_onset_trace(packets, seed=seed)
    detectors = SketchAnomalyDetectors(telemetry=telemetry)
    history = HistoryStore()
    memory = MemorySink()
    sinks = [memory]
    webhook = None
    if webhook_url:
        webhook = WebhookSink(webhook_url)
        sinks.append(webhook)
    manager = AlertManager(
        telemetry,
        rules=default_alert_rules(epoch_seconds=1.0),
        history=history,
        sinks=sinks,
        # Evaluation i (= epoch i) happens at exactly t = i seconds.
        clock=ManualClock(),
        # Keep resolved alerts visible for post-run HTTP probes.
        resolved_retention=1e9,
        on_transition=on_transition,
    )
    monitor = nitro_kary(
        depth=5, width=8192, probability=0.25, top_k=64, seed=seed
    )
    daemon = MeasurementDaemon(
        monitor,
        name="alert-demo",
        telemetry=telemetry,
        anomaly=detectors,
        alerts=manager,
        epoch_batches=4,
    )
    if on_ready is not None:
        # Hand the live objects out before ingest starts, so a caller
        # can attach them to an already-running TelemetryServer and
        # probe /alerts over HTTP at the instant a transition happens.
        on_ready(
            {
                "manager": manager,
                "history": history,
                "detectors": detectors,
                "daemon": daemon,
            }
        )
    n_batches = epochs * daemon.epoch_batches
    step = max(len(trace) // n_batches, 1)
    for index in range(n_batches):
        piece = trace.slice(index * step, (index + 1) * step)
        if len(piece) == 0:
            break
        daemon.ingest(
            Batch(keys=piece.keys, sizes=piece.sizes, timestamps=piece.timestamps)
        )
    daemon.epoch_boundary()  # trailing partial epoch, if any

    entropy_transitions = [
        (event["from"], event["to"])
        for event in manager.transitions
        if event["alert"] == "entropy_collapse"
    ]
    return {
        "packets": len(trace),
        "seed": seed,
        "epochs": daemon.epochs_completed,
        "entropy_transitions": entropy_transitions,
        "transitions": list(manager.transitions),
        "fired": ("pending", "firing") in entropy_transitions,
        "resolved": ("firing", "resolved") in entropy_transitions,
        "notifications": list(memory.notifications),
        "signals": detectors.last_signals,
        "manager": manager,
        "history": history,
        "detectors": detectors,
        "daemon": daemon,
        "memory_sink": memory,
        "webhook_sink": webhook,
    }


def validate_alert_demo(
    telemetry, summary, expect_webhook: bool = False
) -> List[str]:
    """Check an alert-demo run hit every acceptance point."""
    problems = []
    for name in REQUIRED_ALERT_METRICS:
        if name not in telemetry.registry:
            problems.append("missing metric family: %s" % name)
    # The entropy alert must walk the full lifecycle, in order.
    sequence = list(summary["entropy_transitions"])
    cursor = 0
    for expected in ALERT_LIFECYCLE:
        try:
            cursor = sequence.index(expected, cursor) + 1
        except ValueError:
            problems.append(
                "entropy_collapse never made the %s -> %s transition "
                "(saw %r)" % (expected[0], expected[1], sequence)
            )
    states = {"firing": 0, "resolved": 0}
    for notification in summary["notifications"]:
        if notification.alert == "entropy_collapse":
            states[notification.state] = states.get(notification.state, 0) + 1
    if not states["firing"]:
        problems.append("no firing notification for entropy_collapse")
    if not states["resolved"]:
        problems.append("no resolved notification for entropy_collapse")
    if not telemetry.spans.spans(name="alert.transition"):
        problems.append("missing trace event: alert.transition")
    if not telemetry.spans.spans(name="anomaly.epoch"):
        problems.append("missing trace event: anomaly.epoch")
    webhook = summary.get("webhook_sink")
    if expect_webhook:
        if webhook is None:
            problems.append("webhook sink was not attached")
        elif webhook.sent == 0:
            problems.append(
                "webhook delivered nothing (failed=%d, last_error=%s)"
                % (webhook.failed, webhook.last_error)
            )
        elif webhook.failed:
            problems.append("webhook had %d delivery failure(s)" % webhook.failed)
    return problems


def validate_audit(telemetry, expect_violation: bool = False) -> List[str]:
    """Check an audited run's snapshot; returns problem strings."""
    problems = []
    for name in REQUIRED_AUDIT_METRICS:
        if name not in telemetry.registry:
            problems.append("missing metric family: %s" % name)
    violations = telemetry.spans.spans(name="audit.violation")
    if expect_violation and not violations:
        problems.append("corrupted sketch did not fire audit.violation")
    if not expect_violation and violations:
        problems.append(
            "clean run fired audit.violation %d time(s)" % len(violations)
        )
    return problems


def validate(telemetry) -> List[str]:
    """Check the demo's snapshot is complete; returns problem strings."""
    problems = []
    for name in REQUIRED_METRICS:
        if name not in telemetry.registry:
            problems.append("missing metric family: %s" % name)
    for name in REQUIRED_EVENTS:
        if not telemetry.spans.spans(name=name):
            problems.append("missing trace event: %s" % name)
    convergences = telemetry.spans.spans(name="nitro.convergence")
    if len(convergences) > 1:
        problems.append(
            "nitro.convergence fired %d times (expected once)" % len(convergences)
        )
    for event in convergences:
        if "packets" not in event.fields:
            problems.append("nitro.convergence event lacks a packet index")
    return problems
