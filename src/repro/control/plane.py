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
from repro.sketches.base import Monitor
from repro.telemetry import NULL_TELEMETRY
from repro.traffic.traces import Trace


@dataclass
class EpochReport:
    """All task outputs for one epoch."""

    epoch: int
    packets: int
    reports: Dict[str, TaskReport] = field(default_factory=dict)


class ControlPlane:
    """Epoch manager + task dispatcher.

    Only the paper's offline loop lives here.  Continuous deployments
    close epochs through :class:`~repro.switchsim.daemon.MeasurementDaemon`,
    which carries auditing, anomaly detection, alerts, sliding windows
    and checkpoints.

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
    """

    def __init__(
        self,
        monitor_factory: Callable[[int], object],
        tasks: Sequence[MeasurementTask],
        score: bool = True,
        keep_monitors: Optional[int] = 2,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        if keep_monitors is not None and keep_monitors < 1:
            raise ValueError("keep_monitors must be >= 1 or None")
        self.monitor_factory = monitor_factory
        self.tasks = list(tasks)
        self.score = score
        self.keep_monitors = keep_monitors
        self.telemetry = telemetry
        #: The most recent per-epoch monitors (bounded by ``keep_monitors``).
        self.monitors: List[object] = []

    def run_epochs(
        self, trace: Trace, epoch_packets: int
    ) -> List[EpochReport]:
        """Slice the trace into epochs and evaluate all tasks per epoch."""
        if epoch_packets < 1:
            raise ValueError("epoch_packets must be >= 1")
        reports: List[EpochReport] = []
        telemetry = self.telemetry
        for epoch, start in enumerate(range(0, len(trace), epoch_packets)):
            stop = min(start + epoch_packets, len(trace))
            epoch_trace = trace.slice(start, stop)
            with telemetry.timer("control_epoch_seconds"):
                monitor = self.monitor_factory(epoch)
                monitor.telemetry = telemetry
                monitor.update_batch(epoch_trace.keys)
                reports.append(self._evaluate_epoch(monitor, epoch, epoch_trace))
            telemetry.count("control_epochs_total")
            telemetry.event(
                "control.epoch", epoch=epoch, packets=len(epoch_trace)
            )
        return reports

    def _evaluate_epoch(
        self, monitor, epoch: int, epoch_trace: Trace
    ) -> EpochReport:
        """Retain the epoch's monitor and run every task against it
        (scored against exact epoch truth when ``score`` is set)."""
        telemetry = self.telemetry
        self.monitors.append(monitor)
        if self.keep_monitors is not None and len(self.monitors) > self.keep_monitors:
            del self.monitors[: -self.keep_monitors]
        epoch_report = EpochReport(epoch=epoch, packets=len(epoch_trace))
        truth = epoch_trace.counts() if self.score else None
        for task in self.tasks:
            with telemetry.timer("control_task_seconds", task=task.name):
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
        return epoch_report


class KAryChangeMonitor(Monitor):
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
