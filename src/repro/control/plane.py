"""Epoch-driven control plane.

Runs a monitor over a trace in fixed-size epochs, evaluating a set of
measurement tasks at each epoch boundary -- the periodic
fetch-and-estimate loop of the paper's Control Plane Module (Section 6).
A fresh monitor is built per epoch from a user factory (same seed, so
hash functions are stable across epochs -- required by change
detection, which subtracts same-seed sketches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.control.tasks import MeasurementTask, TaskReport
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.spans import make_span_id
from repro.traffic.traces import Trace


@dataclass
class EpochReport:
    """All task outputs for one epoch."""

    epoch: int
    packets: int
    reports: Dict[str, TaskReport] = field(default_factory=dict)


class ControlPlane:
    """Epoch manager + task dispatcher.

    Parameters
    ----------
    monitor_factory:
        ``factory(epoch_index) -> monitor``.  Called once per epoch; use
        a fixed seed inside for mergeable/subtractable epochs.
    tasks:
        The measurement tasks to run each epoch.
    score:
        When True, exact per-epoch ground truth is computed from the
        trace and every report carries error/recall -- the evaluation
        mode.  Turn off for production-style runs.
    keep_monitors:
        How many recent per-epoch monitors to retain in ``monitors``.
        Change detection subtracts the previous epoch's sketch, so the
        default of 2 is all it needs; long production runs therefore no
        longer accumulate one monitor per epoch.  Pass ``None`` to keep
        every epoch (the old behaviour, for offline analysis).
    telemetry:
        Observability sink; defaults to the free
        :data:`~repro.telemetry.NULL_TELEMETRY`.
    auditor:
        Optional :class:`~repro.telemetry.audit.ShadowAuditor` or
        :class:`~repro.telemetry.audit.GuaranteeMonitor`.  Per epoch it
        is reset, fed the epoch's exact keys, and run against the epoch
        monitor at the boundary -- live per-epoch accuracy auditing with
        no change to the measurement path.
    checkpoints:
        Optional :class:`~repro.control.checkpoint.CheckpointManager`.
        With ``checkpoint_interval > 0`` (epochs) the plane checkpoints
        each Nth epoch's monitor at the epoch boundary, and
        :meth:`run_epochs` restores on start: epoch numbering resumes
        after the newest valid checkpoint's epoch, and the restored
        monitor is re-seeded into ``monitors`` so change detection can
        subtract across the restart.
    anomaly / alerts:
        The alert plane's epoch hook: after tasks and auditing, the
        :class:`~repro.telemetry.anomaly.SketchAnomalyDetectors` (if
        any) observe the epoch's monitor, then the
        :class:`~repro.telemetry.alerts.AlertManager` (if any) runs one
        evaluation round.  Both sequential and parallel epoch loops
        share the hook.  (Plane-evaluated monitors are fresh per epoch,
        so detectors here want ``cumulative=False``.)
    window_epochs:
        With ``window_epochs > 0`` the plane additionally maintains a
        :class:`~repro.control.windows.SlidingWindowMonitor` over the
        last that many completed epochs: each epoch boundary adopts the
        epoch's monitor into the ring (epoch-driven rotation), window
        gauges (``window_*``) are re-exported, window-scoped heavy
        hitters/entropy become queryable on :attr:`window`, and -- when
        a :class:`CheckpointManager` is attached -- the checkpoint
        carries the whole ring instead of one epoch's monitor.
    """

    def __init__(
        self,
        monitor_factory: Callable[[int], object],
        tasks: Sequence[MeasurementTask],
        score: bool = True,
        keep_monitors: Optional[int] = 2,
        telemetry=NULL_TELEMETRY,
        auditor=None,
        checkpoints=None,
        checkpoint_interval: int = 1,
        anomaly=None,
        alerts=None,
        window_epochs: int = 0,
    ) -> None:
        if keep_monitors is not None and keep_monitors < 1:
            raise ValueError("keep_monitors must be >= 1 or None")
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if window_epochs < 0:
            raise ValueError("window_epochs must be >= 0")
        self.monitor_factory = monitor_factory
        self.tasks = list(tasks)
        self.score = score
        self.keep_monitors = keep_monitors
        self.telemetry = telemetry
        self.auditor = auditor
        self.checkpoints = checkpoints
        self.checkpoint_interval = checkpoint_interval
        self.anomaly = anomaly
        self.alerts = alerts
        #: The most recent per-epoch monitors (bounded by ``keep_monitors``).
        self.monitors: List[object] = []
        #: Sliding window over completed epochs (``window_epochs > 0``).
        self.window = None
        if window_epochs > 0:
            from repro.control.windows import SlidingWindowMonitor

            # Epoch index 0 for the merge-scratch factory: factories
            # must use a fixed seed across epochs anyway (change
            # detection subtracts same-seed sketches), so any index
            # yields a merge-compatible instance.
            self.window = SlidingWindowMonitor(
                lambda: monitor_factory(0), window_epochs
            )

    def restore_on_start(self) -> int:
        """Restore the newest valid checkpoint; return the next epoch number.

        Returns 0 (and touches nothing) when checkpointing is disabled
        or no valid checkpoint exists; otherwise re-seeds ``monitors``
        with the restored monitor and returns its epoch + 1 so
        :meth:`run_epochs` resumes numbering where the crashed run left
        off.
        """
        if self.checkpoints is None:
            return 0
        restored = self.checkpoints.restore_latest()
        if restored is None:
            return 0
        from repro.control.windows import SlidingWindowMonitor

        if isinstance(restored.monitor, SlidingWindowMonitor):
            # A windowed plane checkpointed the whole ring: reinstall it
            # and re-seed ``monitors`` with the newest completed epoch
            # so change detection can subtract across the restart.
            self.window = restored.monitor
            members = restored.monitor.window_monitors()[:-1]
            if members:
                self.monitors.append(members[-1])
        else:
            self.monitors.append(restored.monitor)
        next_epoch = int(restored.meta.get("epoch", -1)) + 1
        self.telemetry.event(
            "control.restored", epoch=next_epoch - 1, sequence=restored.sequence
        )
        return next_epoch

    def run_epochs(
        self, trace: Trace, epoch_packets: int
    ) -> List[EpochReport]:
        """Slice the trace into epochs and evaluate all tasks per epoch.

        With a :class:`CheckpointManager` attached, restores on start
        (resuming epoch numbering after the last checkpointed epoch) and
        checkpoints each ``checkpoint_interval``-th epoch's monitor.
        """
        if epoch_packets < 1:
            raise ValueError("epoch_packets must be >= 1")
        reports: List[EpochReport] = []
        telemetry = self.telemetry
        first_epoch = self.restore_on_start()
        for offset, start in enumerate(range(0, len(trace), epoch_packets)):
            epoch = first_epoch + offset
            stop = min(start + epoch_packets, len(trace))
            epoch_trace = trace.slice(start, stop)
            with telemetry.span("control_epoch_seconds"):
                monitor = self.monitor_factory(epoch)
                if hasattr(monitor, "telemetry"):
                    monitor.telemetry = telemetry
                self._ingest(monitor, epoch_trace)
                reports.append(
                    self._evaluate_epoch(monitor, epoch, epoch_trace, offset)
                )
            telemetry.count("control_epochs_total")
            telemetry.event(
                "control.epoch", epoch=epoch, packets=len(epoch_trace)
            )
        return reports

    def run_parallel_epochs(
        self, trace: Trace, epoch_packets: int, engine
    ) -> Tuple[List[EpochReport], object]:
        """Drive the epoch loop off the parallel data plane.

        ``engine`` is a :class:`~repro.parallel.ParallelIngestEngine`
        whose workers ingest the trace's RSS shards in processes; at
        each epoch boundary the engine's merged monitor (the union of
        every worker's shard for that epoch) lands here through the
        ``on_epoch`` hand-off and is evaluated exactly like a
        :meth:`run_epochs` epoch -- same tasks, scoring, auditing and
        checkpointing, with the plane's own ``monitor_factory`` unused.

        The engine must use the ``merge`` strategy with
        ``reset_per_epoch=True``: only then does each delivered monitor
        cover exactly one epoch, matching the fresh-monitor-per-epoch
        contract change detection relies on.  Parallel runs start from
        epoch 0 (no checkpoint-resume: the engine always replays the
        whole trace); checkpoints are still *written* per interval.

        Returns ``(reports, run_result)`` -- the per-epoch task reports
        plus the engine's :class:`~repro.parallel.ParallelRunResult`
        with its measured throughput and restart counts.
        """
        if epoch_packets < 1:
            raise ValueError("epoch_packets must be >= 1")
        if engine.strategy != "merge":
            raise ValueError(
                "run_parallel_epochs needs a merge-strategy engine: the "
                "shared strategy only produces a single end-of-trace monitor"
            )
        if not engine.reset_per_epoch:
            raise ValueError(
                "run_parallel_epochs needs reset_per_epoch=True: each "
                "delivered monitor must cover one epoch, not the whole run"
            )
        if engine.epoch_packets is None:
            engine.epoch_packets = epoch_packets
        elif engine.epoch_packets != epoch_packets:
            raise ValueError(
                "engine.epoch_packets (%r) disagrees with epoch_packets (%d)"
                % (engine.epoch_packets, epoch_packets)
            )
        telemetry = self.telemetry
        reports: List[EpochReport] = []

        def boundary(epoch: int, merged, metas) -> None:
            start = epoch * epoch_packets
            stop = min(start + epoch_packets, len(trace))
            epoch_trace = trace.slice(start, stop)
            # The workers stamped their frames with the epoch's trace
            # context; task-evaluation spans join that trace so the
            # whole ingest -> merge -> evaluate pipeline is one tree.
            trace_ctx = None
            for meta in metas:
                block = meta.get("trace")
                if isinstance(block, dict) and block.get("trace_id"):
                    trace_ctx = (
                        str(block["trace_id"]),
                        block.get("epoch_span_id"),
                    )
                    break
            with telemetry.span("control_epoch_seconds"):
                if hasattr(merged, "telemetry"):
                    merged.telemetry = telemetry
                reports.append(
                    self._evaluate_epoch(
                        merged, epoch, epoch_trace, epoch, trace_ctx=trace_ctx
                    )
                )
            telemetry.count("control_epochs_total")
            telemetry.event(
                "control.epoch",
                epoch=epoch,
                packets=len(epoch_trace),
                parallel=True,
            )

        result = engine.run(trace.keys, on_epoch=boundary)
        return reports, result

    def _evaluate_epoch(
        self,
        monitor,
        epoch: int,
        epoch_trace: Trace,
        offset: int,
        trace_ctx: Optional[Tuple[str, Optional[str]]] = None,
    ) -> EpochReport:
        """Everything that happens at one epoch boundary, post-ingest.

        Shared by the sequential and parallel paths: monitor retention,
        task evaluation (scored against exact epoch truth when enabled),
        shadow auditing, and interval checkpointing.  ``offset`` is the
        epoch's position within *this* run (it differs from ``epoch``
        after a checkpoint restore) and paces the checkpoint interval.
        ``trace_ctx`` -- ``(trace_id, parent_span_id)`` from the data
        plane -- nests per-task evaluation spans under the epoch span.
        """
        telemetry = self.telemetry
        self.monitors.append(monitor)
        if self.keep_monitors is not None and len(self.monitors) > self.keep_monitors:
            del self.monitors[: -self.keep_monitors]
        epoch_report = EpochReport(epoch=epoch, packets=len(epoch_trace))
        truth = epoch_trace.counts() if self.score else None
        for task in self.tasks:
            if trace_ctx is not None:
                trace_id, parent_id = trace_ctx
                task_span = telemetry.start_span(
                    "task.evaluate",
                    trace_id=trace_id,
                    parent_id=parent_id,
                    span_id=make_span_id(trace_id, "task.evaluate", task.name),
                    task=task.name,
                    epoch=epoch,
                )
            else:
                task_span = None
            with telemetry.span("control_task_seconds", task=task.name):
                if task_span is not None:
                    with task_span:
                        report = task.evaluate(monitor, len(epoch_trace))
                        if truth is not None:
                            report = task.score(report, truth)
                else:
                    report = task.evaluate(monitor, len(epoch_trace))
                    if truth is not None:
                        report = task.score(report, truth)
            epoch_report.reports[task.name] = report
            telemetry.event(
                "control.task",
                task=task.name,
                epoch=epoch,
                detected=len(report.detected),
                estimate=report.estimate,
            )
        if self.auditor is not None:
            self._audit_epoch(monitor, epoch_trace)
        if self.anomaly is not None:
            self.anomaly.observe_epoch(monitor, len(epoch_trace))
        if self.alerts is not None:
            self.alerts.evaluate()
        if self.window is not None:
            from repro.control.windows import export_window_metrics

            self.window.adopt_epoch(monitor, len(epoch_trace))
            export_window_metrics(self.window, telemetry)
        if (
            self.checkpoints is not None
            and (offset + 1) % self.checkpoint_interval == 0
        ):
            self.checkpoints.save(
                # A windowed plane checkpoints the whole ring, so a
                # restart recovers the full window, not just one epoch.
                self.window if self.window is not None else monitor,
                meta={"epoch": epoch, "packets": len(epoch_trace)},
            )
            telemetry.gauge("control_checkpoint_age_epochs", 0)
        elif self.checkpoints is not None:
            telemetry.gauge(
                "control_checkpoint_age_epochs",
                (offset + 1) % self.checkpoint_interval,
            )
        return epoch_report

    def evaluate_online_epoch(self, monitor, epoch: int, packets: int) -> EpochReport:
        """Run the task catalogue against a *live* monitor.

        The always-on service closes epochs from wire ingest, where no
        recorded :class:`~repro.traffic.replay.Trace` exists -- tasks
        are evaluated from the sketch and the epoch's packet count
        alone.  Exact-truth scoring and shadow auditing both require the
        full epoch's packets, so a plane configured with either refuses
        online evaluation rather than silently degrading (attach the
        auditor to the ingesting daemon instead; it sees every packet).
        """
        if self.score:
            raise RuntimeError(
                "online epochs carry no exact truth; build the plane with score=False"
            )
        if self.auditor is not None:
            raise RuntimeError(
                "online epochs cannot shadow-audit the epoch trace; "
                "attach the auditor to the ingesting daemon instead"
            )
        if packets < 0:
            raise ValueError("packets must be >= 0, got %d" % packets)
        telemetry = self.telemetry
        epoch_report = EpochReport(epoch=epoch, packets=packets)
        with telemetry.span("control_epoch_seconds"):
            for task in self.tasks:
                with telemetry.span("control_task_seconds", task=task.name):
                    report = task.evaluate(monitor, packets)
                epoch_report.reports[task.name] = report
                telemetry.event(
                    "control.task",
                    task=task.name,
                    epoch=epoch,
                    detected=len(report.detected),
                    estimate=report.estimate,
                )
        telemetry.count("control_epochs_total")
        telemetry.event("control.epoch", epoch=epoch, packets=packets)
        return epoch_report

    def _audit_epoch(self, monitor, epoch_trace: Trace) -> None:
        """Shadow-audit one epoch's monitor against exact epoch truth."""
        auditor = self.auditor
        auditor.reset()
        if hasattr(auditor, "check"):  # GuaranteeMonitor: rebind + check
            auditor.monitor = monitor
            auditor.observe_batch(epoch_trace.keys)
            auditor.check()
        else:  # bare ShadowAuditor
            auditor.observe_batch(epoch_trace.keys)
            auditor.audit(monitor)

    @staticmethod
    def _ingest(monitor, trace: Trace) -> None:
        if hasattr(monitor, "update_batch"):
            monitor.update_batch(trace.keys)
            return
        update = monitor.update
        for key in trace.keys.tolist():
            update(key)


class KAryChangeMonitor:
    """Adapter giving a (Nitro-)K-ary sketch the change-detection surface.

    K-ary sketches are linear, so change detection subtracts the
    previous epoch's sketch and queries the difference (paper ref [51]).
    Candidate heavy changers come from the top-k key stores of both
    epochs -- the same heavy-key bookkeeping the paper's Bottleneck 3
    describes.
    """

    def __init__(self, nitro_kary_monitor) -> None:
        self.inner = nitro_kary_monitor

    @property
    def ops(self):
        return self.inner.ops

    @ops.setter
    def ops(self, sink) -> None:
        self.inner.ops = sink

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        self.inner.update(key, weight, timestamp=timestamp)

    def update_batch(self, keys, weights=None, duration_seconds=None) -> None:
        self.inner.update_batch(keys, weights, duration_seconds=duration_seconds)

    def query(self, key: int) -> float:
        return self.inner.query(key)

    def heavy_hitters(self, threshold: float):
        return self.inner.heavy_hitters(threshold)

    def change_detection(
        self, previous: "KAryChangeMonitor", threshold: float
    ) -> List[Tuple[int, float]]:
        """Heavy changers vs the previous epoch's monitor."""
        difference = self.inner.sketch.difference(previous.inner.sketch)
        candidates = set()
        if self.inner.topk is not None:
            candidates |= set(self.inner.topk.keys())
        if previous.inner.topk is not None:
            candidates |= set(previous.inner.topk.keys())
        changes = []
        for key in candidates:
            delta = abs(difference.query(key))
            if delta > threshold:
                changes.append((key, delta))
        changes.sort(key=lambda item: (-item[1], item[0]))
        return changes

    def memory_bytes(self) -> int:
        return self.inner.memory_bytes()

    def reset(self) -> None:
        self.inner.reset()
