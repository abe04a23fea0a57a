"""First-class observability for the NitroSketch stack.

The paper's whole argument is operational -- a sampling-probability
ladder that moves every 100 ms epoch, a convergence condition that
crosses once, cycles that migrate between pipeline stages -- and this
package makes those observable *while they happen* instead of only via
post-hoc :class:`~repro.metrics.opcount.OpCounter` totals:

* :mod:`repro.telemetry.registry` -- labeled counters, gauges and
  log-bucketed histograms (:class:`MetricsRegistry`);
* :mod:`repro.telemetry.spans` -- the one trace ring
  (:class:`SpanTracer`): spans with deterministic ids that cross process
  boundaries and reassemble into per-epoch trees, and structured events
  recorded as zero-duration spans inside them, with JSONL export;
* :mod:`repro.telemetry.exposition` -- Prometheus text format, JSON
  snapshots, and an optional stdlib HTTP endpoint;
* :mod:`repro.telemetry.audit` -- live accuracy auditing: a shadow
  ground-truth reservoir (:class:`~repro.telemetry.audit.ShadowAuditor`)
  and the Theorem 1/2/5 guarantee tracker
  (:class:`~repro.telemetry.audit.GuaranteeMonitor`).  Imported lazily
  (it needs NumPy);
* :mod:`repro.telemetry.health` -- the stock health rule set
  (:func:`~repro.telemetry.health.health_rules`); an
  :class:`AlertManager` over it answers the server's ``/health`` route;
* :mod:`repro.telemetry.dashboard` -- the ``nitrosketch top`` live
  terminal dashboard;
* :mod:`repro.telemetry.profile` -- the sampled per-stage latency
  profiler (:class:`~repro.telemetry.profile.StageProfiler`) with
  histogram quantiles and flamegraph-compatible collapsed stacks;
* :mod:`repro.telemetry.history` -- a bounded, downsampling time-series
  ring of registry snapshots (:class:`HistoryStore`) behind the
  ``/history`` route;
* :mod:`repro.telemetry.alerts` -- the alert plane: declarative rules
  (threshold/for-duration/hysteresis/burn-rate) over snapshots and
  history windows, a per-labelset state machine and the
  :class:`AlertManager` behind ``/alerts`` and ``/rules``;
* :mod:`repro.telemetry.notify` -- notification sinks (log, JSONL,
  webhook, in-memory) with delivery-failure accounting;
* :mod:`repro.telemetry.anomaly` -- sketch-driven traffic-anomaly
  detectors (K-ary change score, entropy-collapse DDoS onset/offset,
  heavy-hitter churn) feeding the alert rules.  Imported lazily (it
  needs NumPy);
* :mod:`repro.telemetry.scenario` -- the one scenario runner (``clean``,
  ``corrupt``, ``ddos``) behind the CLI's observability views.
  Imported lazily (it needs NumPy).

The :class:`Telemetry` facade bundles one registry and one trace ring and
is what instrumented components hold.  Mirroring the ``NullOps`` pattern of
:mod:`repro.metrics.opcount`, the default sink everywhere is
:data:`NULL_TELEMETRY` -- a stateless no-op whose calls cost one Python
method dispatch, so accuracy-only paths pay (almost) nothing.  Attach a
real :class:`Telemetry` to a component (``nitro.telemetry = tele``) to
light it up.

See ``docs/OBSERVABILITY.md`` for the metric and event catalogue.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, Optional, Sequence

from repro.telemetry.registry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    MetricFamily,
    MetricsRegistry,
    log_buckets,
)
from repro.telemetry.spans import (
    NULL_ACTIVE_SPAN,
    Span,
    SpanTracer,
    build_trace_tree,
    make_span_id,
    make_trace_id,
    parse_spans_jsonl,
    render_span_tree,
)
from repro.telemetry.history import HistoryStore
from repro.telemetry.alerts import (
    ALERT_STATES,
    AlertManager,
    AlertRule,
    AlertStatus,
    BurnRateRule,
    Condition,
    ManualClock,
    ThresholdRule,
)
from repro.telemetry.notify import (
    JsonlSink,
    LogSink,
    MemorySink,
    Notification,
    NotificationSink,
    WebhookReceiver,
    WebhookSink,
)
from repro.telemetry.exposition import (
    TelemetryServer,
    render_json,
    render_prometheus,
    snapshot,
)

#: Canonical help strings for the metrics this repository emits, so every
#: creation site agrees on the ``# HELP`` text without repeating it.
METRIC_HELP: Dict[str, str] = {
    "nitro_sampling_probability": "Current NitroSketch per-slot sampling probability p.",
    "nitro_probability_changes_total": "Sampling-probability transitions, by reason.",
    "nitro_convergence_total": "AlwaysCorrect convergence-threshold crossings.",
    "nitro_convergence_checks_total": "AlwaysCorrect convergence-test evaluations.",
    "nitro_epochs_total": "AlwaysLineRate rate-measurement epoch rollovers.",
    "nitro_packets_total": "Packets ingested by NitroSketch, by code path.",
    "nitro_sampled_packets_total": "Packets that triggered at least one counter update.",
    "nitro_geometric_draws_total": "Geometric(p) skip-counter draws.",
    "nitro_geometric_gap_slots": "Distribution of geometric inter-sample gaps (slots).",
    "pipeline_stage_seconds": "Wall-clock time per switch-pipeline stage per batch.",
    "pipeline_batches_total": "Batches forwarded, by platform.",
    "ovs_emc_hits_total": "OVS Exact Match Cache hits.",
    "ovs_emc_misses_total": "OVS Exact Match Cache misses.",
    "ovs_upcalls_total": "OVS OpenFlow slow-path consultations.",
    "daemon_batches_total": "Batches ingested by the measurement daemon.",
    "daemon_packets_total": "Packets offered to the measurement daemon.",
    "daemon_ingest_seconds": "Wall-clock time per daemon batch ingest.",
    "control_epochs_total": "Control-plane epochs evaluated.",
    "control_epoch_seconds": "Wall-clock time per control-plane epoch.",
    "control_task_seconds": "Wall-clock time per measurement-task evaluation.",
    "control_task_detected_flows": "Flows detected by the last task evaluation.",
    "simulator_capacity_mpps": "Simulated bottleneck-thread capacity.",
    "simulator_achieved_mpps": "Simulated achieved forwarding rate.",
    "simulator_cpu_share": "Simulated per-component CPU share at the achieved rate.",
    "opcounter": "OpCounter tallies bridged from the operation-accounting layer.",
    "audit_rounds_total": "Shadow-audit rounds performed.",
    "audit_tracked_flows": "Flows in the shadow ground-truth reservoir.",
    "audit_total_weight": "Exact total stream mass seen by the auditor (L1).",
    "audit_sample_rate": "Flow-inclusion probability of the shadow reservoir.",
    "audit_relative_error": "Observed relative error of sketch answers, by statistic.",
    "audit_absolute_error": "Observed absolute error of sketch answers, by statistic.",
    "audit_error_bound": "Live theoretical error bound (eps*L1 or eps*L2).",
    "audit_bound_ratio": "Observed worst error as a fraction of the theoretical bound.",
    "audit_guarantee_violations_total": "Guarantee-bound violations detected.",
    "audit_guarantee_violations": "Cumulative violations (gauge; 0 = checked and clean).",
    "daemon_queue_depth": "Batches waiting in the measurement daemon's ingest queue.",
    "checkpoint_writes_total": "Monitor checkpoints written to disk.",
    "checkpoint_bytes_total": "Cumulative checkpoint bytes written.",
    "checkpoint_restores_total": "Successful checkpoint restores.",
    "checkpoint_restore_failures_total": "Checkpoint files rejected (CRC/format) on restore.",
    "checkpoint_last_sequence": "Sequence number of the newest checkpoint written.",
    "checkpoint_size_bytes": "Size of the newest checkpoint frame.",
    "daemon_checkpoint_age_batches": "Batches ingested since the daemon's last checkpoint.",
    "tracer_dropped_events_total": "Spans and events evicted from the trace ring.",
    "stage_seconds": "Wall-clock time per profiled ingest-pipeline stage.",
    "parallel_workers": "Worker processes in the last parallel run.",
    "parallel_host_cpus": "Host CPU count seen by the parallel engine.",
    "parallel_worker_packets_total": "Packets ingested, by worker.",
    "parallel_worker_batches_total": "Batches ingested, by worker.",
    "parallel_worker_busy_seconds": "Per-run busy wall seconds, by worker.",
    "parallel_worker_cpu_mpps": "Per-core CPU-clock throughput, by worker.",
    "parallel_worker_restarts": "Crash-recovery respawns in the last run, by worker.",
    "parallel_worker_restarts_total": "Crash-recovery respawns, by worker.",
    "parallel_corrupt_frames_total": "Epoch frames rejected on CRC/format, by worker.",
    "parallel_mailbox_ack_seconds": "Parent-side frame decode+CRC+ack time, by worker.",
    "parallel_mailbox_publish_wait_seconds": "Worker-side publish flow-control stall, by worker.",
    "parallel_wall_mpps": "End-to-end wall-clock rate of the last parallel run.",
    "parallel_aggregate_cpu_mpps": "Sum of per-worker CPU-clock rates.",
    "parallel_aggregate_busy_mpps": "Sum of per-worker busy-wall rates.",
    "ALERTS": "Alert states: 1 on the current state of each alert, 0 elsewhere.",
    "alerts_transitions_total": "Alert state-machine transitions, by alert and target state.",
    "alerts_evaluations_total": "Alert-rule evaluation rounds.",
    "notifications_sent_total": "Alert notifications delivered, by sink.",
    "notifications_failed_total": "Alert notification delivery failures, by sink.",
    "anomaly_change_score": "Largest single-flow epoch-over-epoch change as a fraction of epoch traffic.",
    "anomaly_heavy_changers": "Flows whose epoch-over-epoch change exceeds the change-share threshold.",
    "anomaly_entropy_bits": "Estimated flow-size entropy of the last epoch (bits).",
    "anomaly_entropy_baseline_bits": "EMA baseline of epoch entropy (frozen during detected collapse).",
    "anomaly_entropy_drop": "Fractional entropy drop vs baseline (DDoS-onset signal).",
    "anomaly_hh_churn": "Jaccard distance between successive epochs' heavy-hitter sets.",
    "anomaly_epoch_packets": "Packets carried by the last detector epoch.",
    "anomaly_epochs_total": "Epochs observed by the anomaly detectors.",
    "window_epochs_spanned": "Epoch sketches currently merged into the sliding window.",
    "window_epochs_rotated": "Epoch rotations performed by the sliding window.",
    "window_packets": "Packets covered by the sliding window (ring + in-progress epoch).",
    "window_memory_bytes": "Counter bytes held across every epoch sketch in the window.",
    "window_heavy_hitters": "Flows above the heavy-hitter share of the window's packets.",
    "window_entropy_bits": "Estimated flow-size entropy over the sliding window (bits).",
    "daemon_batches_dropped_total": "Batches rejected by the daemon's bounded ingest queue.",
    "service_tenants_active": "Tenants currently resident in the monitoring service.",
    "service_tenants_created_total": "Tenant namespaces created by the monitoring service.",
    "service_tenants_evicted_total": "Tenants evicted from the service, by reason.",
    "service_tenants_restored_total": "Tenants restored from checkpoint by the service.",
    "service_memory_bytes": "Estimated sketch bytes resident across all tenants.",
    "service_connections_total": "Ingest connections accepted by the service.",
    "service_connections_active": "Ingest connections currently open.",
    "service_frames_total": "Ingest wire frames processed, by outcome.",
    "service_ingest_packets_total": "Packets accepted over the wire, by tenant.",
    "service_ingest_batches_total": "Batches accepted over the wire, by tenant.",
    "service_dropped_batches_total": "Batches dropped under backpressure, by tenant.",
    "service_queries_total": "Query-plane HTTP requests, by endpoint.",
    "service_query_seconds": "Wall-clock time per query-plane request.",
    "service_queue_depth": "Queued batches awaiting drain, by tenant.",
    "service_tenant_memory_bytes": "Estimated sketch bytes resident, by tenant.",
}


class _Timer:
    """Times a block and records it into a histogram on exit."""

    __slots__ = ("_telemetry", "_name", "_buckets", "_labels", "_start")

    def __init__(
        self,
        telemetry: "Telemetry",
        name: str,
        buckets: Optional[Sequence[float]],
        labels: Dict[str, str],
    ) -> None:
        self._telemetry = telemetry
        self._name = name
        self._buckets = buckets
        self._labels = labels

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        # Telemetry.observe's body, fed the label dict built at timer()
        # rather than packing it through keywords a second time.
        registry = self._telemetry.registry
        with registry.lock:
            registry.child(
                "histogram", self._name, self._labels,
                METRIC_HELP.get(self._name, ""), self._buckets,
            ).observe(elapsed)


class Telemetry:
    """One registry + one trace ring: the sink instrumented components hold.

    All methods are dynamic-name conveniences over the registry --
    families are created on first use with canonical help text from
    :data:`METRIC_HELP` and label names taken (sorted) from the call's
    keyword arguments, so every call site for a metric must use the same
    label keys.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        spans: Optional[SpanTracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: The trace ring behind :meth:`start_span`, :meth:`event` and
        #: ``/trace``; its evictions count as ``tracer_dropped_events_total``.
        self.spans = spans if spans is not None else SpanTracer()
        self.spans.on_evict = functools.partial(self.count, "tracer_dropped_events_total")

    # -- metrics ------------------------------------------------------------

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        """Increment counter ``name`` (creating it on first use)."""
        registry = self.registry
        with registry.lock:
            registry.child("counter", name, labels, METRIC_HELP.get(name, "")).inc(value)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set gauge ``name`` to ``value``."""
        registry = self.registry
        with registry.lock:
            registry.child("gauge", name, labels, METRIC_HELP.get(name, "")).set(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Sequence[float]] = None,
        **labels,
    ) -> None:
        """Record ``value`` into histogram ``name`` (buckets fixed at creation)."""
        registry = self.registry
        with registry.lock:
            registry.child(
                "histogram", name, labels, METRIC_HELP.get(name, ""), buckets
            ).observe(value)

    def atomic(self):
        """Context manager grouping several metric writes into one
        atomic unit with respect to exposition.

        A scrape (``/metrics`` or ``/json``) renders under the registry
        lock, so sibling updates wrapped in ``with telemetry.atomic():``
        are observed all-or-nothing -- e.g. the daemon's
        ``daemon_batches_total`` / ``daemon_packets_total`` pair can
        never be seen with one incremented and the other not.
        """
        return self.registry.lock

    def timer(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels
    ) -> _Timer:
        """Context manager timing a block into histogram ``name``."""
        return _Timer(self, name, buckets, labels)

    # -- trace --------------------------------------------------------------

    def event(self, name: str, **fields) -> None:
        """Record one structured event: a zero-duration span in the ring,
        child of the innermost span open on this thread."""
        self.spans.record_event(name, fields)

    def start_span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        **fields,
    ):
        """Open a distributed-tracing span (see :mod:`repro.telemetry.spans`)."""
        return self.spans.start_span(
            name, trace_id=trace_id, parent_id=parent_id, span_id=span_id, **fields
        )

    # -- bridges ------------------------------------------------------------

    def record_ops(self, ops, **labels) -> None:
        """Surface an :class:`~repro.metrics.opcount.OpCounter`'s tallies.

        Each category becomes one ``opcounter{category=...}`` gauge
        sample (gauges, not counters, because ``OpCounter`` objects are
        reset at will by their owners).  Extra labels -- typically
        ``component`` -- distinguish sinks.
        """
        for category, value in ops.as_dict().items():
            self.gauge("opcounter", value, category=category, **labels)

    # -- exposition shortcuts ----------------------------------------------

    def render_prometheus(self) -> str:
        return render_prometheus(self.registry)

    def render_json(self) -> str:
        return render_json(self.registry, self.spans)

    def snapshot(self) -> Dict:
        return snapshot(self.registry, self.spans)


class _NullSpanTracer(SpanTracer):
    """A trace ring that stays empty: every record is dropped uncounted."""

    def _append(self, span: Span) -> bool:
        return False


class NullTelemetry:
    """No-op sink with the :class:`Telemetry` recording interface.

    The default ``telemetry`` attribute everywhere, mirroring
    :class:`repro.metrics.opcount.NullOps`: accuracy-only paths pay one
    no-op method call per hook and nothing else (no clock reads, no
    allocation beyond the kwargs dict).  Its ``registry`` and ``spans``
    are an empty registry and an empty ring that the no-op writers never
    fill, so a server over it answers every route with empty content.
    """

    __slots__ = ()
    enabled = False
    registry = MetricsRegistry()
    spans = _NullSpanTracer()

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        pass

    def gauge(self, name: str, value: float, **labels) -> None:
        pass

    def observe(self, name: str, value: float, buckets=None, **labels) -> None:
        pass

    def timer(self, name: str, buckets=None, **labels):
        return NULL_ACTIVE_SPAN

    def atomic(self):
        return NULL_ACTIVE_SPAN

    def event(self, name: str, **fields) -> None:
        pass

    def start_span(self, name: str, trace_id=None, parent_id=None, span_id=None, **fields):
        return NULL_ACTIVE_SPAN

    def record_ops(self, ops, **labels) -> None:
        pass


#: Shared no-op sink; safe because :class:`NullTelemetry` is stateless.
NULL_TELEMETRY = NullTelemetry()


__all__ = [
    "ALERT_STATES",
    "AlertManager",
    "AlertRule",
    "AlertStatus",
    "BurnRateRule",
    "Condition",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "HistoryStore",
    "JsonlSink",
    "LogSink",
    "METRIC_HELP",
    "ManualClock",
    "MemorySink",
    "Notification",
    "NotificationSink",
    "ThresholdRule",
    "WebhookReceiver",
    "WebhookSink",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_ACTIVE_SPAN",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Span",
    "SpanTracer",
    "Telemetry",
    "TelemetryServer",
    "build_trace_tree",
    "log_buckets",
    "make_span_id",
    "make_trace_id",
    "parse_spans_jsonl",
    "render_json",
    "render_prometheus",
    "render_span_tree",
    "snapshot",
]
