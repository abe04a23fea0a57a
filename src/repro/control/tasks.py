"""Measurement-task definitions (paper Section 2's task taxonomy).

Each task knows how to pull its statistic out of a monitor at the end
of an epoch and, given ground truth, how to score itself with the
paper's metrics (relative error for scalars, mean relative error and
recall for heavy-flow sets).

Tasks are monitor-agnostic: they duck-type against the query surface
(``heavy_hitters``, ``entropy_estimate``, ``distinct_estimate``,
``change_detection``) so the same task runs against UnivMon,
Nitro-wrapped sketches, ElasticSketch, NetFlow, etc.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.metrics.accuracy import (
    change_truth,
    empirical_entropy,
    heavy_hitter_truth,
    mean_relative_error,
    recall,
    relative_error,
)
from repro.telemetry import NULL_TELEMETRY


@dataclass
class TaskReport:
    """One task's output for one epoch."""

    task: str
    #: Scalar estimate (entropy, distinct) or None for set-valued tasks.
    estimate: Optional[float] = None
    #: Detected flows (heavy hitters / heavy changers) with estimates.
    detected: Dict[int, float] = field(default_factory=dict)
    #: Scores filled in when ground truth was supplied.
    error: Optional[float] = None
    recall: Optional[float] = None


class MeasurementTask(abc.ABC):
    """A user-defined statistic computed each epoch."""

    name: str = "task"
    #: Observability sink; a class-level no-op unless a caller (usually
    #: the control plane or CLI) attaches a real ``Telemetry``.
    telemetry = NULL_TELEMETRY

    @abc.abstractmethod
    def evaluate(self, monitor, epoch_packets: int) -> TaskReport:
        """Extract the statistic from ``monitor`` for a finished epoch."""

    def score(self, report: TaskReport, truth_counts: Mapping[int, int]) -> TaskReport:
        """Fill in error/recall given the epoch's exact counts."""
        return report


class HeavyHitterTask(MeasurementTask):
    """Flows above ``threshold_fraction`` of epoch traffic (paper: 0.05%)."""

    name = "heavy_hitters"

    def __init__(self, threshold_fraction: float = 0.0005) -> None:
        if not 0 < threshold_fraction < 1:
            raise ValueError("threshold_fraction must be in (0, 1)")
        self.threshold_fraction = threshold_fraction

    def evaluate(self, monitor, epoch_packets: int) -> TaskReport:
        threshold = self.threshold_fraction * epoch_packets
        detected = dict(monitor.heavy_hitters(threshold))
        self.telemetry.gauge(
            "control_task_detected_flows", len(detected), task=self.name
        )
        return TaskReport(task=self.name, detected=detected)

    def score(self, report: TaskReport, truth_counts: Mapping[int, int]) -> TaskReport:
        truth = heavy_hitter_truth(truth_counts, self.threshold_fraction)
        report.error = mean_relative_error(report.detected, truth_counts)
        report.recall = recall(set(report.detected), truth)
        return report


class ChangeDetectionTask(MeasurementTask):
    """Flows whose change across epochs exceeds a fraction of total change.

    Needs a monitor exposing ``change_detection(previous, threshold)``
    (UnivMon, or K-ary behind
    :class:`~repro.control.plane.KAryChangeMonitor`); other monitors
    detect nothing.  The task keeps the previous epoch's monitor.
    """

    name = "change_detection"

    def __init__(self, threshold_fraction: float = 0.0005) -> None:
        self.threshold_fraction = threshold_fraction
        self._previous_monitor = None
        self._previous_counts: Optional[Dict[int, int]] = None

    def evaluate(self, monitor, epoch_packets: int) -> TaskReport:
        report = TaskReport(task=self.name)
        if self._previous_monitor is not None:
            threshold = self.threshold_fraction * epoch_packets
            if hasattr(monitor, "change_detection"):
                changes = monitor.change_detection(self._previous_monitor, threshold)
                report.detected = dict(changes)
            self.telemetry.gauge(
                "control_task_detected_flows", len(report.detected), task=self.name
            )
        self._previous_monitor = monitor
        return report

    def score(self, report: TaskReport, truth_counts: Mapping[int, int]) -> TaskReport:
        if self._previous_counts is not None and report.detected:
            truth = change_truth(
                self._previous_counts, dict(truth_counts), self.threshold_fraction
            )
            report.recall = recall(set(report.detected), truth)
        self._previous_counts = dict(truth_counts)
        return report


class EntropyTask(MeasurementTask):
    """Shannon entropy of the flow-size distribution."""

    name = "entropy"

    def evaluate(self, monitor, epoch_packets: int) -> TaskReport:
        return TaskReport(task=self.name, estimate=monitor.entropy_estimate())

    def score(self, report: TaskReport, truth_counts: Mapping[int, int]) -> TaskReport:
        truth = empirical_entropy(truth_counts)
        if report.estimate is not None:
            report.error = relative_error(report.estimate, truth)
        return report


class DistinctFlowsTask(MeasurementTask):
    """Number of distinct flows (cardinality / F0)."""

    name = "distinct_flows"

    def evaluate(self, monitor, epoch_packets: int) -> TaskReport:
        return TaskReport(task=self.name, estimate=monitor.distinct_estimate())

    def score(self, report: TaskReport, truth_counts: Mapping[int, int]) -> TaskReport:
        truth = len(truth_counts)
        if report.estimate is not None:
            report.error = relative_error(report.estimate, truth)
        return report
