"""``nitrosketch top``: a live terminal dashboard over telemetry snapshots.

Polls a metrics snapshot -- from a live :class:`~repro.telemetry.Telemetry`
object in-process, or over HTTP from a ``TelemetryServer``'s
``/snapshot`` route -- and renders the operational state the paper's
story turns on: observed error vs the theoretical bound, the sampling
probability, ingest throughput (derived from counter deltas between
polls), per-stage pipeline span timings, and the active alerts.

The renderer is a pure function (``snapshot [+ previous snapshot] ->
string``) so the frame content is unit-testable without a terminal; the
:class:`TopLoop` driver adds the ANSI clear/redraw and the poll cadence.
"""

from __future__ import annotations

import json
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

from repro.telemetry.alerts import metric_samples, metric_value

_CLEAR = "\x1b[2J\x1b[H"


def _histograms(snap: Dict, metric: str) -> List[Tuple[Dict[str, str], Dict]]:
    """A histogram family's raw samples, for their ``sum`` and ``count``.

    Scalar samples go through :func:`~repro.telemetry.alerts.metric_samples`.
    """
    family = snap.get("metrics", {}).get(metric)
    if not family:
        return []
    return [(sample.get("labels", {}), sample) for sample in family["samples"]]


def _format_count(value: float) -> str:
    for factor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= factor:
            return "%.2f%s" % (value / factor, suffix)
    return "%.0f" % value


def _format_seconds(value: float) -> str:
    for factor, suffix in ((1.0, "s"), (1e-3, "ms"), (1e-6, "µs")):
        if abs(value) >= factor:
            return "%.1f%s" % (value / factor, suffix)
    return "%.0fns" % (value / 1e-9)


def _format_error(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value != value or value in (float("inf"), float("-inf")):
        return str(value)
    return "%.3f%%" % (100.0 * value)


def render_dashboard(
    snap: Dict,
    previous: Optional[Dict] = None,
    interval_seconds: Optional[float] = None,
    clock: Optional[float] = None,
) -> str:
    """Render one dashboard frame from a snapshot dict.

    ``previous`` and ``interval_seconds`` enable the throughput section
    (counter deltas per second); without them, cumulative totals show.
    """
    lines: List[str] = []
    stamp = time.strftime("%H:%M:%S", time.localtime(clock))
    probability = metric_value(snap, "nitro_sampling_probability")
    header = "nitrosketch top — %s" % stamp
    if probability is not None:
        header += "   p=%.6g" % probability
    converged = metric_value(snap, "nitro_convergence_total")
    if converged is not None:
        header += "   converged=%s" % ("yes" if converged > 0 else "no")
    lines.append(header)
    lines.append("=" * max(len(header), 64))

    # -- accuracy: observed error vs the live theoretical bound ----------
    mean_err = metric_value(snap, "audit_relative_error", {"stat": "mean"})
    p99_err = metric_value(snap, "audit_relative_error", {"stat": "p99"})
    bound = metric_value(snap, "audit_error_bound")
    ratio = metric_value(snap, "audit_bound_ratio")
    violations = metric_value(snap, "audit_guarantee_violations")
    tracked = metric_value(snap, "audit_tracked_flows")
    if mean_err is None and bound is None:
        lines.append("accuracy    (no auditor attached)")
    else:
        lines.append(
            "accuracy    rel.err mean %s  p99 %s   tracked %s flows"
            % (
                _format_error(mean_err),
                _format_error(p99_err),
                "-" if tracked is None else "%d" % tracked,
            )
        )
        bar = ""
        if ratio is not None and ratio == ratio and ratio not in (float("inf"),):
            filled = min(int(round(40 * min(ratio, 1.0))), 40)
            bar = "[%s%s] %.1f%% of bound" % ("#" * filled, "." * (40 - filled), 100 * ratio)
        lines.append(
            "guarantee   bound %s   %s   violations %s"
            % (
                "-" if bound is None else _format_count(bound),
                bar or "ratio -",
                "-" if violations is None else "%d" % violations,
            )
        )

    # -- throughput: counter deltas between polls ------------------------
    for metric, label in (
        ("nitro_packets_total", "sketch pkts"),
        ("daemon_packets_total", "daemon pkts"),
        ("pipeline_batches_total", "batches"),
    ):
        now_total = metric_value(snap, metric)
        if now_total is None:
            continue
        if previous is not None and interval_seconds and interval_seconds > 0:
            before = metric_value(previous, metric) or 0.0
            rate = max(now_total - before, 0.0) / interval_seconds
            lines.append(
                "throughput  %-12s %s/s  (total %s)"
                % (label, _format_count(rate), _format_count(now_total))
            )
        else:
            lines.append(
                "throughput  %-12s total %s" % (label, _format_count(now_total))
            )

    # -- per-stage span timings ------------------------------------------
    stages = []
    for labels, sample in _histograms(snap, "pipeline_stage_seconds"):
        count = sample.get("count", 0)
        if count:
            mean = float(sample.get("sum", 0.0)) / count
            stages.append((labels.get("platform", "?"), labels.get("stage", "?"), mean, count))
    if stages:
        stages.sort(key=lambda item: -item[2])
        lines.append("stages      (mean per batch)")
        for platform, stage, mean, count in stages[:8]:
            lines.append(
                "  %-28s %10s  x%d" % ("%s/%s" % (platform, stage), _format_seconds(mean), count)
            )

    # -- per-worker panel (parallel data plane) --------------------------
    worker_rows: Dict[str, Dict[str, float]] = {}

    def _per_worker(metric: str, key: str, from_histogram: bool = False) -> None:
        if from_histogram:
            pairs = [
                (labels, float(sample.get("sum", 0.0)))
                for labels, sample in _histograms(snap, metric)
            ]
        else:
            pairs = metric_samples(snap, metric)
        for labels, value in pairs:
            worker = labels.get("worker")
            if worker is not None:
                worker_rows.setdefault(worker, {})[key] = value

    _per_worker("parallel_worker_packets_total", "packets")
    _per_worker("parallel_worker_cpu_mpps", "cpu_mpps")
    _per_worker("parallel_worker_restarts", "restarts")
    _per_worker("parallel_worker_restarts_total", "restarts")
    _per_worker("parallel_corrupt_frames_total", "corrupt")
    _per_worker("parallel_mailbox_ack_seconds", "ack", from_histogram=True)
    _per_worker(
        "parallel_mailbox_publish_wait_seconds", "wait", from_histogram=True
    )
    if worker_rows:
        host_cpus = metric_value(snap, "parallel_host_cpus")
        lines.append(
            "workers     (%d shard%s%s)"
            % (
                len(worker_rows),
                "" if len(worker_rows) == 1 else "s",
                "" if host_cpus is None else ", %d host cpus" % host_cpus,
            )
        )
        for worker in sorted(worker_rows, key=lambda w: int(w) if w.isdigit() else 0):
            row = worker_rows[worker]
            lines.append(
                "  w%-3s pkts %-8s cpu %5.2f Mpps  restarts %d  corrupt %d"
                "  ack %s  wait %s"
                % (
                    worker,
                    _format_count(row.get("packets", 0.0)),
                    row.get("cpu_mpps", 0.0),
                    int(row.get("restarts", 0)),
                    int(row.get("corrupt", 0)),
                    _format_seconds(row.get("ack", 0.0)),
                    _format_seconds(row.get("wait", 0.0)),
                )
            )

    # -- tenants panel (always-on monitoring service) --------------------
    tenants_active = metric_value(snap, "service_tenants_active")
    if tenants_active is not None:
        connections = metric_value(snap, "service_connections_active")
        memory = metric_value(snap, "service_memory_bytes")
        evicted = metric_value(snap, "service_tenants_evicted_total")
        lines.append(
            "tenants     %d resident  %s conn  %s  evicted %s"
            % (
                int(tenants_active),
                "-" if connections is None else "%d" % connections,
                "-" if memory is None else _format_count(memory) + "B",
                "-" if evicted is None else "%d" % evicted,
            )
        )
        tenant_rows: Dict[str, Dict[str, float]] = {}

        def _per_tenant(metric: str, key: str) -> None:
            for labels, value in metric_samples(snap, metric):
                tenant = labels.get("tenant")
                if tenant is not None:
                    tenant_rows.setdefault(tenant, {})[key] = value

        _per_tenant("service_ingest_packets_total", "packets")
        _per_tenant("service_queue_depth", "queue")
        _per_tenant("service_tenant_memory_bytes", "memory")
        _per_tenant("service_dropped_batches_total", "dropped")
        for tenant in sorted(
            tenant_rows, key=lambda t: -tenant_rows[t].get("packets", 0.0)
        )[:8]:
            row = tenant_rows[tenant]
            lines.append(
                "  %-20s pkts %-8s queue %-4d mem %-8s dropped %d"
                % (
                    tenant,
                    _format_count(row.get("packets", 0.0)),
                    int(row.get("queue", 0)),
                    _format_count(row.get("memory", 0.0)) + "B",
                    int(row.get("dropped", 0)),
                )
            )

    # -- sliding window (window_* gauges from export_window_metrics) -----
    window_packets = metric_value(snap, "window_packets")
    if window_packets is not None:
        spanned = metric_value(snap, "window_epochs_spanned")
        rotated = metric_value(snap, "window_epochs_rotated")
        memory = metric_value(snap, "window_memory_bytes")
        lines.append(
            "window      %s pkts over %s epoch sketch%s  (rotated %s, %s)"
            % (
                _format_count(window_packets),
                "-" if spanned is None else "%d" % spanned,
                "" if spanned == 1 else "es",
                "-" if rotated is None else "%d" % rotated,
                "-" if memory is None else _format_count(memory) + "B",
            )
        )
        hitters = metric_value(snap, "window_heavy_hitters")
        entropy = metric_value(snap, "window_entropy_bits")
        if hitters is not None or entropy is not None:
            lines.append(
                "            heavy hitters %s   entropy %s"
                % (
                    "-" if hitters is None else "%d" % hitters,
                    "-" if entropy is None else "%.2f bits" % entropy,
                )
            )

    # -- active alerts (the alert plane's ALERTS gauge family) -----------
    alert_rows: List[Tuple[int, str, str, str, str]] = []
    _ALERT_ORDER = {"firing": 0, "pending": 1, "resolved": 2}
    alert_samples = metric_samples(snap, "ALERTS")
    for labels, value in alert_samples:
        state = labels.get("alertstate", "")
        if state not in _ALERT_ORDER or value < 1:
            continue
        alert_rows.append(
            (
                _ALERT_ORDER[state],
                labels.get("alertname", "?"),
                state,
                labels.get("severity", ""),
                labels.get("labelset", ""),
            )
        )
    if alert_samples:
        if alert_rows:
            alert_rows.sort()
            firing = sum(1 for row in alert_rows if row[2] == "firing")
            lines.append(
                "alerts      %d active (%d firing)" % (len(alert_rows), firing)
            )
            for _, name, state, severity, labelset in alert_rows[:8]:
                lines.append(
                    "  %-8s %-24s %s%s"
                    % (
                        state.upper() if state == "firing" else state,
                        name,
                        severity,
                        " {%s}" % labelset if labelset else "",
                    )
                )
        else:
            lines.append("alerts      none active")

    return "\n".join(lines) + "\n"


class SnapshotSource:
    """Uniform snapshot access: a live Telemetry object or a /snapshot URL."""

    def __init__(self, telemetry=None, url: Optional[str] = None, timeout: float = 5.0) -> None:
        if (telemetry is None) == (url is None):
            raise ValueError("pass exactly one of telemetry or url")
        self.telemetry = telemetry
        self.url = url
        self.timeout = timeout

    def fetch(self) -> Dict:
        if self.telemetry is not None:
            return self.telemetry.snapshot()
        with urllib.request.urlopen(self.url, timeout=self.timeout) as response:
            return json.loads(response.read().decode("utf-8"))


class TopLoop:
    """Poll-and-redraw driver for ``nitrosketch top``.

    Parameters
    ----------
    source:
        Where snapshots come from.
    interval:
        Seconds between polls.
    iterations:
        Stop after this many frames (``None`` = run until interrupted).
    clear:
        Prefix each frame with the ANSI clear sequence (off for tests
        and non-TTY output).
    """

    def __init__(
        self,
        source: SnapshotSource,
        interval: float = 1.0,
        iterations: Optional[int] = None,
        clear: bool = True,
        out=None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.source = source
        self.interval = interval
        self.iterations = iterations
        self.clear = clear
        self.out = out
        self.frames = 0

    def run(self) -> int:
        """Render frames until the iteration budget or Ctrl-C; returns 0."""
        import sys

        out = self.out if self.out is not None else sys.stdout
        previous: Optional[Dict] = None
        try:
            while self.iterations is None or self.frames < self.iterations:
                snap = self.source.fetch()
                frame = render_dashboard(
                    snap, previous=previous, interval_seconds=self.interval
                )
                if self.clear:
                    out.write(_CLEAR)
                out.write(frame)
                out.flush()
                previous = snap
                self.frames += 1
                if self.iterations is not None and self.frames >= self.iterations:
                    break
                time.sleep(self.interval)
        except KeyboardInterrupt:
            pass
        return 0
