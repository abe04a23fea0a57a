"""Measurement-daemon integration modes (paper Section 6).

The paper integrates the Sketching module with each platform in two
flavours:

* **All-in-one (AIO)** -- the sketch runs inside the switch's PMD
  thread: every sketch cycle competes with forwarding (Figure 8a,
  Figure 10a).
* **Separate-thread** -- the switch thread runs a light pre-processing
  stage that copies *selected* packet headers into a shared FIFO, and a
  dedicated measurement thread drains it (Figures 8b/c, 10b).  For
  NitroSketch only the geometrically sampled packets are copied, so the
  switch-side overhead is ``memcpy * sampled_fraction``; vanilla
  sketches need every header copied.

:class:`MeasurementDaemon` wraps any monitor (vanilla sketch, Nitro
sketch, UnivMon, baseline -- every :class:`~repro.sketches.base.Monitor`)
with an operation counter and the ingest logic;
:mod:`repro.switchsim.simulator` combines it with a pipeline.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from typing import Deque, List, Optional

from repro.metrics.opcount import OpCounter
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.profile import NULL_PROFILER
from repro.traffic.replay import Batch


class IntegrationMode(enum.Enum):
    """How the sketching module shares CPU with the switch."""

    ALL_IN_ONE = "aio"
    SEPARATE_THREAD = "separate"


class MeasurementDaemon:
    """Drives a monitor over packet batches and accounts its work.

    Parameters
    ----------
    monitor:
        A :class:`~repro.sketches.base.Monitor`.  The daemon hands it
        its ``ops``, ``telemetry`` and ``profiler``, and feeds it each
        batch as ``update_batch(keys, duration_seconds=...)`` (the
        batch's wall-clock span drives AlwaysLineRate).
    mode:
        AIO or separate-thread (affects how the simulator bills cycles).
    use_batch:
        Ingest through ``update_batch`` (the paper's buffered Idea-D
        path; default).  ``False`` feeds every packet through
        ``update(key, 1.0, timestamp=...)`` instead.
    auditor:
        Optional :class:`~repro.telemetry.audit.ShadowAuditor` or
        :class:`~repro.telemetry.audit.GuaranteeMonitor`: every ingested
        batch is mirrored into it (exact shadow ground truth riding
        alongside the sketch).  ``None`` keeps ingest bit-identical to
        the unaudited path.
    queue_capacity:
        Opt-in bounded ingest queue modelling the separate-thread FIFO:
        :meth:`enqueue` parks batches, :meth:`drain` feeds them to the
        monitor, and the backlog is exported as a ``daemon_queue_depth``
        gauge for the ``queue_depth`` / ``queue_backlog`` health
        alerts.  ``0`` (default) means no queue; :meth:`ingest` stays
        synchronous either way.
    checkpoints:
        Optional :class:`~repro.control.checkpoint.CheckpointManager`.
        With ``checkpoint_interval > 0`` the daemon checkpoints its
        monitor every that many ingested batches, after the batch's
        epoch step; the distance to the last checkpoint is exported as
        ``daemon_checkpoint_age_batches`` for the ``checkpoint_age`` /
        ``checkpoint_stale`` health alerts.  A checkpoint carries the
        epoch cadence (epochs completed, batches and packets since the
        last boundary), so :meth:`restore_latest` resumes it.
    anomaly / alerts / epoch_batches:
        The alert plane's epoch hook.  With ``epoch_batches > 0`` every
        that many ingested batches closes a detector epoch: the
        :class:`~repro.telemetry.anomaly.SketchAnomalyDetectors` (if
        any) observe the monitor with the packets the epoch carried,
        then the :class:`~repro.telemetry.alerts.AlertManager` (if any)
        runs one evaluation round.  :meth:`epoch_boundary` can also be
        called explicitly (trailing partial epochs).
    window_epochs:
        With ``window_epochs > 0`` the daemon measures over a sliding
        window instead of one unbounded epoch: the monitor is wrapped
        in a :class:`~repro.control.windows.SlidingWindowMonitor`
        spanning that many epochs (a monitor that already *is* one is
        used as-is) and every :meth:`epoch_boundary` rotates the ring.
        The anomaly detectors then observe the completed epoch's ring
        member directly (the daemon sets their ``cumulative`` to
        ``not windowed`` -- each epoch sketch holds exactly one epoch
        of traffic), alert rules see windowed signals, and
        window-scoped gauges (``window_*``) are re-exported after each
        rotation.  Checkpoints carry the whole ring; :meth:`restore_latest`
        resumes mid-epoch byte-exactly, and so does further ingest.
    """

    def __init__(
        self,
        monitor,
        mode: IntegrationMode = IntegrationMode.ALL_IN_ONE,
        name: Optional[str] = None,
        use_batch: bool = True,
        telemetry=NULL_TELEMETRY,
        auditor=None,
        queue_capacity: int = 0,
        checkpoints=None,
        checkpoint_interval: int = 0,
        anomaly=None,
        alerts=None,
        epoch_batches: int = 0,
        window_epochs: int = 0,
    ) -> None:
        if window_epochs < 0:
            raise ValueError("window_epochs must be >= 0, got %d" % window_epochs)
        from repro.control.windows import SlidingWindowMonitor

        if window_epochs > 0 and not isinstance(monitor, SlidingWindowMonitor):
            # Wrap the (pristine) monitor: rotation is daemon-driven at
            # epoch boundaries, not packet-count-driven.
            monitor = SlidingWindowMonitor.from_template(monitor, window_epochs)
        self.windowed = isinstance(monitor, SlidingWindowMonitor)
        self.window_epochs = (
            monitor.window_epochs if self.windowed else 0
        )
        self.mode = mode
        self.name = name or type(monitor).__name__
        self.use_batch = use_batch
        self.ops = OpCounter()
        self.telemetry = telemetry
        # Per-stage latency profiler, handed to the monitor so hot-path
        # stages and checkpoint timing land in one ``stage_seconds``
        # family.
        self._profiler = NULL_PROFILER
        self._attach(monitor)
        self.auditor = auditor
        if queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0, got %d" % queue_capacity)
        self.queue_capacity = queue_capacity
        # A deque, not a list: drain pops from the head, and list.pop(0)
        # is O(n) -- a 10k-batch backlog cost O(n^2) element moves.
        self._queue: Deque[Batch] = deque()
        self.batches_dropped = 0
        self.packets_offered = 0
        if checkpoint_interval < 0:
            raise ValueError(
                "checkpoint_interval must be >= 0, got %d" % checkpoint_interval
            )
        if checkpoint_interval > 0 and checkpoints is None:
            raise ValueError("checkpoint_interval set but no CheckpointManager given")
        self.checkpoints = checkpoints
        self.checkpoint_interval = checkpoint_interval
        if epoch_batches < 0:
            raise ValueError("epoch_batches must be >= 0, got %d" % epoch_batches)
        self.anomaly = anomaly
        self._shape_detectors()
        self.alerts = alerts
        self.epoch_batches = epoch_batches
        self.epochs_completed = 0
        self._batches_since_epoch = 0
        self._packets_since_epoch = 0
        self.batches_ingested = 0
        self._batches_since_checkpoint = 0

    @property
    def profiler(self):
        """The attached :class:`~repro.telemetry.profile.StageProfiler`."""
        return self._profiler

    @profiler.setter
    def profiler(self, profiler) -> None:
        self._profiler = profiler if profiler is not None else NULL_PROFILER
        self._attach(self.monitor)

    def _attach(self, monitor) -> None:
        """Adopt ``monitor`` and hand it the daemon's ops, telemetry and profiler."""
        self.monitor = monitor
        monitor.ops = self.ops
        monitor.telemetry = self.telemetry
        monitor.profiler = self._profiler

    def _shape_detectors(self) -> None:
        """Each ring epoch holds exactly one epoch of traffic, so the
        detectors of a windowed daemon query it directly instead of
        differencing against a cumulative snapshot."""
        if self.anomaly is not None:
            self.anomaly.cumulative = not self.windowed

    def ingest(self, batch: Batch) -> None:
        """Feed one batch to the monitor."""
        self.packets_offered += len(batch)
        telemetry = self.telemetry
        with telemetry.atomic():
            # Sibling counters: a scrape must never see one incremented
            # without the other (batch/packet ratios feed health rules).
            telemetry.count("daemon_batches_total", daemon=self.name)
            telemetry.count("daemon_packets_total", len(batch), daemon=self.name)
        with telemetry.timer("daemon_ingest_seconds", daemon=self.name):
            self._ingest_inner(batch)
        if self.auditor is not None:
            self.auditor.observe_batch(batch.keys)
        telemetry.record_ops(self.ops, component=self.name)
        self.batches_ingested += 1
        self._batches_since_epoch += 1
        self._packets_since_epoch += len(batch)
        if self.epoch_batches > 0 and self._batches_since_epoch >= self.epoch_batches:
            self.epoch_boundary()
        # Checkpoint after the epoch step, so a checkpoint written on a
        # boundary batch holds the rotated ring and a zeroed cadence.
        self._batches_since_checkpoint += 1
        if (
            self.checkpoints is not None
            and self.checkpoint_interval > 0
            and self._batches_since_checkpoint >= self.checkpoint_interval
        ):
            self.checkpoint()
        elif self.checkpoints is not None:
            telemetry.gauge(
                "daemon_checkpoint_age_batches",
                self._batches_since_checkpoint,
                daemon=self.name,
            )

    def epoch_boundary(self) -> None:
        """Close one detector epoch: anomaly signals, then alert rules.

        No-op when nothing accumulated since the last boundary, so an
        explicit trailing call after a partial epoch is always safe.
        """
        packets = self._packets_since_epoch
        self._batches_since_epoch = 0
        self._packets_since_epoch = 0
        if packets <= 0:
            return
        self.epochs_completed += 1
        if self.windowed:
            # Windowed mode: detectors see the epoch that just
            # completed (the in-progress ring member, one epoch of
            # traffic), alerts evaluate the resulting signals, then the
            # ring rotates and the window-scoped gauges are refreshed.
            if self.anomaly is not None:
                self.anomaly.observe_epoch(self.monitor.current_monitor(), packets)
            if self.alerts is not None:
                self.alerts.evaluate()
            self.monitor.rotate()
            from repro.control.windows import export_window_metrics

            export_window_metrics(self.monitor, self.telemetry)
            return
        if self.anomaly is not None:
            self.anomaly.observe_epoch(self.monitor, packets)
        if self.alerts is not None:
            self.alerts.evaluate()

    def checkpoint(self):
        """Checkpoint the monitor now; returns the written Checkpoint."""
        if self.checkpoints is None:
            raise RuntimeError("daemon has no CheckpointManager")
        checkpoint_start = time.perf_counter()
        written = self.checkpoints.save(
            self.monitor,
            meta={
                "daemon": self.name,
                "packets_offered": self.packets_offered,
                "batches_ingested": self.batches_ingested,
                "epochs_completed": self.epochs_completed,
                "batches_since_epoch": self._batches_since_epoch,
                "packets_since_epoch": self._packets_since_epoch,
            },
        )
        # Checkpoints are epoch-grade events, not per-batch: record the
        # stage unconditionally, bypassing the batch sampling gate.
        self._profiler.observe(
            "checkpoint", time.perf_counter() - checkpoint_start
        )
        self._batches_since_checkpoint = 0
        self.telemetry.gauge(
            "daemon_checkpoint_age_batches", 0, daemon=self.name
        )
        return written

    def restore_latest(self) -> bool:
        """Swap in the monitor from the newest valid checkpoint.

        Returns True when a checkpoint was restored (the daemon's
        ``packets_offered``/``batches_ingested`` and its epoch cadence
        resume from its meta); False when none exists and state is left
        untouched.  Checkpoints written before the cadence was recorded
        leave the epoch counters as they are.
        """
        if self.checkpoints is None:
            raise RuntimeError("daemon has no CheckpointManager")
        restored = self.checkpoints.restore_latest()
        if restored is None:
            return False
        from repro.control.windows import SlidingWindowMonitor

        self._attach(restored.monitor)
        self.windowed = isinstance(self.monitor, SlidingWindowMonitor)
        self.window_epochs = self.monitor.window_epochs if self.windowed else 0
        self._shape_detectors()
        meta = restored.meta
        self.packets_offered = int(meta.get("packets_offered", 0))
        self.batches_ingested = int(meta.get("batches_ingested", 0))
        self.epochs_completed = int(meta.get("epochs_completed", self.epochs_completed))
        self._batches_since_epoch = int(
            meta.get("batches_since_epoch", self._batches_since_epoch)
        )
        self._packets_since_epoch = int(
            meta.get("packets_since_epoch", self._packets_since_epoch)
        )
        self._batches_since_checkpoint = 0
        return True

    # -- opt-in bounded queue (separate-thread FIFO model) ------------------

    @property
    def queue_depth(self) -> int:
        """Batches currently parked in the ingest queue."""
        return len(self._queue)

    def enqueue(self, batch: Batch) -> bool:
        """Park one batch for a later :meth:`drain`; False when full.

        Requires ``queue_capacity > 0``.  A full queue drops the batch
        (the FIFO-overflow behaviour of a real separate-thread
        integration) and the drop is visible in ``batches_dropped``.
        """
        if self.queue_capacity <= 0:
            raise RuntimeError("daemon has no queue (queue_capacity=0)")
        accepted = len(self._queue) < self.queue_capacity
        if accepted:
            self._queue.append(batch)
            self.telemetry.gauge(
                "daemon_queue_depth", len(self._queue), daemon=self.name
            )
        else:
            self.batches_dropped += 1
            with self.telemetry.atomic():
                self.telemetry.count(
                    "daemon_batches_dropped_total", daemon=self.name
                )
                self.telemetry.gauge(
                    "daemon_queue_depth", len(self._queue), daemon=self.name
                )
        return accepted

    def drain(self, max_batches: Optional[int] = None) -> int:
        """Ingest up to ``max_batches`` queued batches; returns how many."""
        drained = 0
        while self._queue and (max_batches is None or drained < max_batches):
            self.ingest(self._queue.popleft())
            drained += 1
        if self.queue_capacity > 0:
            self.telemetry.gauge(
                "daemon_queue_depth", len(self._queue), daemon=self.name
            )
        return drained

    def _ingest_inner(self, batch: Batch) -> None:
        if self.use_batch:
            self.monitor.update_batch(
                batch.keys, duration_seconds=batch.duration_seconds
            )
            return
        monitor_update = self.monitor.update
        for key, timestamp in zip(batch.keys.tolist(), batch.timestamps.tolist()):
            monitor_update(key, 1.0, timestamp=timestamp)

    def sampled_fraction(self) -> float:
        """Fraction of packets the pre-processing stage forwards.

        Sampling monitors count ``packets_sampled`` against
        ``packets_seen``; a monitor whose ``packets_sampled`` is ``None``
        needs every header (fraction 1.0).
        """
        sampled = self.monitor.packets_sampled
        if sampled is None or not self.monitor.packets_seen:
            return 1.0
        return sampled / self.monitor.packets_seen

    def memory_bytes(self) -> int:
        """The monitor's randomly-accessed working set."""
        return self.monitor.memory_bytes()

    def check_invariants(self) -> List[str]:
        """Ingest-accounting coherence checks; returns violation strings."""
        violations: List[str] = []
        if self.queue_capacity > 0 and len(self._queue) > self.queue_capacity:
            violations.append(
                "daemon %s: queue depth %d exceeds capacity %d"
                % (self.name, len(self._queue), self.queue_capacity)
            )
        if self._batches_since_checkpoint > self.batches_ingested:
            violations.append(
                "daemon %s: %d batches since checkpoint but only %d ingested"
                % (self.name, self._batches_since_checkpoint, self.batches_ingested)
            )
        if (
            self.checkpoint_interval > 0
            and self._batches_since_checkpoint > self.checkpoint_interval
        ):
            violations.append(
                "daemon %s: checkpoint overdue (%d batches since, interval %d)"
                % (self.name, self._batches_since_checkpoint, self.checkpoint_interval)
            )
        violations.extend(self.monitor.check_invariants())
        return violations

    def reset(self) -> None:
        """Return the daemon (and its monitor) to the pre-ingest state.

        Also rewinds ``batches_ingested`` and the checkpoint cadence
        counter -- leaving them at pre-reset values made a reset daemon
        checkpoint on the wrong schedule and report stale meta counters
        in every subsequent checkpoint.
        """
        self.ops.reset()
        self.packets_offered = 0
        self._queue.clear()
        self.batches_dropped = 0
        self.batches_ingested = 0
        self._batches_since_checkpoint = 0
        self.epochs_completed = 0
        self._batches_since_epoch = 0
        self._packets_since_epoch = 0
        self.monitor.reset()
        if self.auditor is not None:
            self.auditor.reset()
        if self.anomaly is not None:
            self.anomaly.reset()
