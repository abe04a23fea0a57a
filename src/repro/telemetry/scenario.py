"""One scenario runner behind the observability commands.

A *scenario* is a named input replayed through one stack -- a VPP
:class:`~repro.switchsim.SwitchSimulator` feeding a
:class:`~repro.switchsim.MeasurementDaemon` with a shadow auditor and
guarantee monitor riding it -- into one :class:`~repro.telemetry.Telemetry`:

* ``clean`` -- a CAIDA-like trace into an AlwaysCorrect Nitro Count
  Sketch, which must cross its convergence threshold T exactly once
  (Idea C) and hold the Theorem 2/5 ``eps * L2`` bound;
* ``corrupt`` -- the same run with the counters zeroed before the final
  guarantee check, which must therefore record a violation;
* ``ddos`` -- the DDoS-onset trace into a NitroSketch K-ary monitor with
  the anomaly detectors and the stock alert rules at every epoch
  boundary: ``entropy_collapse`` must walk inactive -> pending -> firing
  -> resolved and notify its sinks.

Constructing a :class:`Scenario` builds the stack and :meth:`Scenario.run`
ingests, so a caller can attach the live objects (say, to a running
:class:`~repro.telemetry.TelemetryServer`) in between.
:meth:`Scenario.problems` checks the run against its row of
:data:`REQUIREMENTS`.  ``nitrosketch telemetry --demo``, ``audit``,
``top --demo`` and ``alerts`` are views of one such run.  The CLI
imports this module lazily, so importing :mod:`repro.telemetry` stays
NumPy-free.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.core import NitroSketch, nitro_kary
from repro.core.config import NitroConfig, NitroMode
from repro.sketches import CountSketch
from repro.switchsim import MeasurementDaemon, SwitchSimulator, VPPPipeline
from repro.telemetry import AlertManager, HistoryStore, ManualClock, MemorySink, WebhookSink
from repro.telemetry.anomaly import (
    SketchAnomalyDetectors,
    ddos_onset_trace,
    default_alert_rules,
)
from repro.telemetry.audit import GuaranteeMonitor, ShadowAuditor
from repro.traffic import caida_like

#: Families every scenario exports: the pipeline, the daemon, the
#: NitroSketch and the shadow audit.
STACK_METRICS = (
    "nitro_sampling_probability",
    "nitro_packets_total",
    "nitro_sampled_packets_total",
    "pipeline_batches_total",
    "pipeline_stage_seconds",
    "daemon_batches_total",
    "daemon_ingest_seconds",
    "simulator_capacity_mpps",
    "opcounter",
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


class Requirement(NamedTuple):
    """What one scenario's run must leave behind beyond the stack's own
    families and its ``simulate.run`` event."""

    metrics: Tuple[str, ...]
    events: Tuple[str, ...]
    #: Events that must fire exactly once, each with a ``packets`` index.
    once: Tuple[str, ...] = ()
    #: ``audit.violation`` must fire (True) or must not (False).
    violation: bool = False
    #: ``entropy_collapse`` transitions that must happen in this order,
    #: with a firing and a resolved notification.
    lifecycle: Tuple[Tuple[str, str], ...] = ()


_CONVERGES = Requirement(
    metrics=(
        "nitro_probability_changes_total",
        "nitro_convergence_total",
        "nitro_convergence_checks_total",
    ),
    events=("nitro.p_change",),
    once=("nitro.convergence",),
)

REQUIREMENTS = {
    "clean": _CONVERGES,
    "corrupt": _CONVERGES._replace(violation=True),
    "ddos": Requirement(
        metrics=(
            "ALERTS",
            "alerts_transitions_total",
            "alerts_evaluations_total",
            "notifications_sent_total",
            "anomaly_entropy_bits",
            "anomaly_entropy_drop",
            "anomaly_change_score",
            "anomaly_hh_churn",
            "anomaly_epochs_total",
        ),
        events=("alert.transition", "anomaly.epoch"),
        lifecycle=(("inactive", "pending"), ("pending", "firing"), ("firing", "resolved")),
    ),
}


class Scenario:
    """One named input through the measurement daemon's stack.

    ``webhook_url`` (``ddos`` only) adds a :class:`WebhookSink` next to
    the in-memory sink.  The live objects -- ``monitor``, ``daemon``,
    ``guard`` and, for ``ddos``, ``manager``, ``history``, ``memory`` and
    ``webhook`` -- are attributes, so views can serve and inspect them.
    """

    def __init__(
        self,
        name: str,
        telemetry,
        packets: int,
        seed: int = 7,
        webhook_url: Optional[str] = None,
    ) -> None:
        if name not in REQUIREMENTS:
            raise ValueError(
                "unknown scenario %r (expected one of %s)"
                % (name, ", ".join(sorted(REQUIREMENTS)))
            )
        if packets < 1:
            raise ValueError("packets must be >= 1, got %d" % packets)
        self.name = name
        self.telemetry = telemetry
        self.manager = self.history = self.memory = self.webhook = None
        alerting = {}
        if name == "ddos":
            self.trace = ddos_onset_trace(packets, seed=seed)
            self.monitor = nitro_kary(
                depth=5, width=8192, probability=0.25, top_k=64, seed=seed
            )
            self.memory = MemorySink()
            sinks = [self.memory]
            if webhook_url:
                self.webhook = WebhookSink(webhook_url)
                sinks.append(self.webhook)
            self.history = HistoryStore()
            self.manager = AlertManager(
                telemetry,
                rules=default_alert_rules(epoch_seconds=1.0),
                history=self.history,
                sinks=sinks,
                # Evaluation i (= epoch i) happens at exactly t = i seconds.
                clock=ManualClock(),
                # Keep resolved alerts visible for post-run HTTP probes.
                resolved_retention=1e9,
            )
            alerting = dict(
                anomaly=SketchAnomalyDetectors(telemetry=telemetry),
                alerts=self.manager,
                epoch_batches=4,
            )
            # 48 batches: the run closes 12 epochs of 4 batches each.
            self.batch_size = max(len(self.trace) // 48, 1)
            daemon_name = "alert-demo"
        else:
            self.trace = caida_like(packets, n_flows=max(200, packets // 20), seed=seed)
            # epsilon is deliberately loose so the convergence threshold T
            # is crossable within a smoke-test-sized trace.
            config = NitroConfig(
                probability=0.1,
                epsilon=0.5,
                mode=NitroMode.ALWAYS_CORRECT,
                convergence_check_period=1000,
                top_k=100,
                seed=seed,
            )
            self.monitor = NitroSketch(CountSketch(5, 4096, seed=seed), config)
            self.batch_size = 32
            daemon_name = "nitro-cs"
        auditor = ShadowAuditor(capacity=256, seed=seed, telemetry=telemetry)
        self.guard = GuaranteeMonitor(auditor, self.monitor)
        self.daemon = MeasurementDaemon(
            self.monitor, name=daemon_name, telemetry=telemetry, auditor=self.guard, **alerting
        )
        self.simulator = SwitchSimulator(VPPPipeline(), self.daemon, telemetry=telemetry)

    def run(self):
        """Replay the trace and check the guarantee once; returns the
        final :class:`~repro.telemetry.audit.GuaranteeReport`."""
        self.simulator.run(self.trace, batch_size=self.batch_size)
        if self.manager is not None:
            self.daemon.epoch_boundary()  # trailing partial epoch, if any
        if self.name == "corrupt":
            # Wipe the counter arrays (a mid-run memory loss).  Additive or
            # multiplicative smashing cannot reliably trip the check: the
            # Count Sketch median cancels constant offsets, and the eps*L2
            # bound is read from the same counters, so scaling them scales
            # the bound identically.  Zeroing deflates the bound to 0 while
            # every estimate's error becomes the flow's exact truth -- a
            # guaranteed violation (and an infinite error/bound ratio, which
            # exercises the non-finite exposition path end to end).
            self.monitor.sketch.counters[:] = 0.0
        return self.guard.check()

    def entropy_transitions(self) -> List[Tuple[str, str]]:
        """``ddos`` only: ``entropy_collapse``'s (from, to) transitions so
        far, in order."""
        return [
            (event["from"], event["to"])
            for event in self.manager.transitions
            if event["alert"] == "entropy_collapse"
        ]

    def problems(self) -> List[str]:
        """Check the run against its :data:`REQUIREMENTS` row."""
        need = REQUIREMENTS[self.name]
        registry, spans = self.telemetry.registry, self.telemetry.spans
        problems = [
            "missing metric family: %s" % name
            for name in STACK_METRICS + need.metrics
            if name not in registry
        ]
        problems += [
            "missing trace event: %s" % name
            for name in ("simulate.run",) + need.events + need.once
            if not spans.spans(name=name)
        ]
        for name in need.once:
            events = spans.spans(name=name)
            if len(events) > 1:
                problems.append("%s fired %d times (expected once)" % (name, len(events)))
            if any("packets" not in event.fields for event in events):
                problems.append("%s event lacks a packet index" % name)
        violations = len(spans.spans(name="audit.violation"))
        if need.violation and not violations:
            problems.append("corrupted sketch did not fire audit.violation")
        if violations and not need.violation:
            problems.append("%s run fired audit.violation %d time(s)" % (self.name, violations))
        if need.lifecycle:
            problems += self._lifecycle_problems(need.lifecycle)
        return problems

    def _lifecycle_problems(self, lifecycle) -> List[str]:
        problems = []
        sequence = self.entropy_transitions()
        cursor = 0
        for expected in lifecycle:
            try:
                cursor = sequence.index(expected, cursor) + 1
            except ValueError:
                problems.append(
                    "entropy_collapse never made the %s -> %s transition (saw %r)"
                    % (expected[0], expected[1], sequence)
                )
        notified = {
            notification.state
            for notification in self.memory.notifications
            if notification.alert == "entropy_collapse"
        }
        problems += [
            "no %s notification for entropy_collapse" % state
            for state in ("firing", "resolved")
            if state not in notified
        ]
        webhook = self.webhook
        if webhook is not None and (webhook.sent == 0 or webhook.failed):
            problems.append(
                "webhook sent %d, failed %d (last error: %s)"
                % (webhook.sent, webhook.failed, webhook.last_error)
            )
        return problems
