"""``epoch-ddos``: the full epoch stack on a repeating DDoS-onset trace.

One in-process daemon carries live ``Telemetry``, a ``GuaranteeMonitor``
checking on every batch, ``SketchAnomalyDetectors`` plus an
``AlertManager`` with the stock rules on a ``ManualClock`` at short
epochs, and periodic checkpoints.  Observability and epoch-close work
are a large share; Nitro sampling is light.  The trace is one episode of
24 epochs (a volumetric attack in epochs 8-15) replayed back to back, so
``entropy_collapse`` must fire and resolve once per episode.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

from perfbench import common

BATCH = 1024
EPOCH_BATCHES = 4
EPISODE_EPOCHS = 24
ONSET_EPOCH, OFFSET_EPOCH = 8, 16
CHECKPOINT_BATCHES = 48
SETUP_REPEATS = 5
QUERIES_PER_EPISODE = 10
ALERT = "entropy_collapse"


class Stack:
    """The daemon with every epoch-stack layer attached, warmed up."""

    def __init__(self, batches, checkpoint_dir: str, seed: int) -> None:
        from repro.control.checkpoint import CheckpointManager
        from repro.service.tenants import ServiceConfig
        from repro.switchsim.daemon import MeasurementDaemon
        from repro.telemetry import AlertManager, HistoryStore, ManualClock, Telemetry
        from repro.telemetry.anomaly import SketchAnomalyDetectors, default_alert_rules
        from repro.telemetry.audit import GuaranteeMonitor, ShadowAuditor

        self.telemetry = Telemetry()
        self.monitor = ServiceConfig().build_monitor("ddos")
        auditor = ShadowAuditor(capacity=256, seed=seed, telemetry=self.telemetry)
        self.guard = GuaranteeMonitor(
            auditor, self.monitor, check_interval_packets=BATCH, telemetry=self.telemetry
        )
        self.checkpoints = CheckpointManager(
            checkpoint_dir, prefix="ddos", keep=2, telemetry=self.telemetry
        )
        #: ``(epochs completed, target state)`` of every entropy_collapse move.
        self.moves = []
        self.alerts = AlertManager(
            self.telemetry,
            rules=default_alert_rules(),
            history=HistoryStore(),
            clock=ManualClock(),
            on_transition=self._on_transition,
        )
        self.daemon = MeasurementDaemon(
            self.monitor,
            name="ddos",
            telemetry=self.telemetry,
            auditor=self.guard,
            checkpoints=self.checkpoints,
            checkpoint_interval=CHECKPOINT_BATCHES,
            anomaly=SketchAnomalyDetectors(telemetry=self.telemetry),
            alerts=self.alerts,
            epoch_batches=EPOCH_BATCHES,
        )
        self.closes = []
        # Instance attribute: ingest() calls self.epoch_boundary().
        self.daemon.epoch_boundary = self._timed_boundary
        self.fed = 0
        while not self.monitor.converged:
            # Warm-up feeds whole epochs of the clean prefix only.
            if self.fed >= ONSET_EPOCH * EPOCH_BATCHES:
                raise common.CheckFailed("AlwaysCorrect never converged during warm-up")
            for _ in range(EPOCH_BATCHES):
                self.daemon.ingest(batches[self.fed])
                self.fed += 1

    def _on_transition(self, event) -> None:
        if event.get("alert") == ALERT:
            self.moves.append((self.daemon.epochs_completed, event.get("to")))

    def _timed_boundary(self) -> None:
        start = time.perf_counter()
        # Looked up on the class at call time, so a traced run's span
        # wrapper is inside the timed region too.
        type(self.daemon).epoch_boundary(self.daemon)
        self.closes.append((time.perf_counter() - start) * 1e3)


def detection_lags(moves, epochs_completed: int):
    """Epochs from each complete episode's onset until the alert fired.

    Raises :class:`CheckFailed` unless, in every episode, the alert fires
    after onset and resolves after offset.
    """
    lags = []
    for episode in range(epochs_completed // EPISODE_EPOCHS):
        first = episode * EPISODE_EPOCHS
        onset, offset = first + ONSET_EPOCH, first + OFFSET_EPOCH
        # epochs_completed at a transition = 0-based closing epoch + 1.
        fired = [e for e, to in moves if to == "firing" and onset < e <= offset]
        resolved = [e for e, to in moves if to == "resolved" and offset < e <= first + EPISODE_EPOCHS]
        if not fired or not resolved:
            raise common.CheckFailed(
                "epoch-ddos episode %d: %s did not fire after onset and resolve after offset "
                "(moves %s)" % (episode, ALERT, [m for m in moves if first < m[0] <= first + EPISODE_EPOCHS])
            )
        lags.append(fired[0] - onset)
    if not lags:
        raise common.CheckFailed("epoch-ddos: no complete episode was measured")
    return lags


def check_restore(stack) -> None:
    """The last checkpoint restores to the live monitor's exact bytes."""
    from repro.control.export import serialize_monitor

    stack.daemon.checkpoint()
    restored = stack.checkpoints.restore_latest()
    if restored is None or serialize_monitor(restored.monitor) != serialize_monitor(stack.monitor):
        raise common.CheckFailed("epoch-ddos: last checkpoint does not restore byte-exactly")


def run(ctx):
    from repro.service import records
    from repro.telemetry.anomaly import ddos_onset_trace

    episode_packets = EPISODE_EPOCHS * EPOCH_BATCHES * BATCH
    keys = ddos_onset_trace(
        episode_packets, attack_start=ONSET_EPOCH / EPISODE_EPOCHS,
        attack_stop=OFFSET_EPOCH / EPISODE_EPOCHS, seed=ctx.seed,
    ).keys
    batches = [records.batch_from_keys(keys[start:start + BATCH]) for start in range(0, episode_packets, BATCH)]
    probe = common.QueryProbe(np.unique(keys), ctx.seed)
    checkpoint_root = ctx.path("-ckpt")
    try:
        common.pin_to_one_cpu()
        host = common.HostSpeed()
        setups = []
        for attempt in range(SETUP_REPEATS):
            directory = os.path.join(checkpoint_root, str(attempt))
            host.restart()
            start = time.perf_counter()
            stack = Stack(batches, directory, ctx.seed)
            setups.append((time.perf_counter() - start) / host.scale())
        daemon = stack.daemon

        ledger = profiler_sink = None
        if ctx.traced:
            ledger = ctx.ledger()
            common.install_layer_spans(ledger)
            daemon.profiler, profiler_sink = common.stage_profiler()

        common.reset_rss_peak()
        meter = common.Meter(host)
        ratios, closes, queries = [], [], []
        stack.closes = []
        index = stack.fed
        segment = EPISODE_EPOCHS * EPOCH_BATCHES
        stop_at = time.perf_counter() + ctx.seconds
        try:
            while True:
                start = time.perf_counter()
                closes_before = len(stack.closes)
                for _ in range(segment):
                    daemon.ingest(batches[index % len(batches)])
                    index += 1
                    ratios.append(stack.guard.last_report.ratio)
                end = time.perf_counter()
                rate = segment * BATCH / (end - start) / 1e6
                meter.add(segment * BATCH, end - start)
                closes.append((rate, stack.closes[closes_before:]))
                before = len(probe.latencies)
                probe.run(stack.monitor, index * BATCH, QUERIES_PER_EPISODE)
                queries.append((rate, probe.latencies[before:]))
                if end >= stop_at and len(meter.rates) >= 3:
                    break
                common.deadline_guard(ctx.deadline, "epoch-ddos ingest")
        finally:
            if ledger is not None:
                ledger.close()
        rss = common.rss_peak_mb()

        ops = common.Ops()
        ops.add(index + len(stack.closes))
        packets = index * BATCH
        problems = list(daemon.check_invariants())
        if daemon.packets_offered != packets or stack.monitor.packets_seen != packets:
            problems.append("ingested %d / %d of %d packets" % (
                daemon.packets_offered, stack.monitor.packets_seen, packets))
        if stack.guard.violations:
            problems.append("%d Theorem-2 guarantee violations" % stack.guard.violations)
        if problems:
            raise common.CheckFailed("epoch-ddos: " + "; ".join(problems))
        lags = detection_lags(stack.moves, daemon.epochs_completed)
        check_restore(stack)
        unique, counts = common.stream_counts(keys, index // len(batches), (index % len(batches)) * BATCH)
        recall, are = common.score_monitor(stack.monitor, unique, counts)
        ops.add(len(probe.latencies))
        latencies = common.steady_samples(queries)
        closes = common.steady_samples(closes)
    finally:
        shutil.rmtree(checkpoint_root, ignore_errors=True)

    e2e = {
        "ingest_mpps": meter.rate(),
        "setup_s": common.median(setups),
        "rss_peak_mb": rss,
        "hh_recall": recall,
        "hh_are": are,
        "query_p50_ms": common.percentile(latencies, 50),
        "query_p90_ms": common.percentile(latencies, 90),
        "epoch_close_p50_ms": common.percentile(closes, 50),
        "epoch_close_p95_ms": common.percentile(closes, 95),
    }
    layers = {}
    if ledger is not None:
        layers = common.traced_layers(ledger, profiler_sink, [daemon.ops])
        layers["daemon.batches_dropped"] = float(daemon.batches_dropped)
        layers["audit.bound_ratio"] = common.median(ratios)
        layers["anomaly.detect_epochs"] = common.median(lags)
        layers["alerts.transitions"] = float(stack.alerts.transitions_total)
        ctx.save_spans(ledger)
    return e2e, layers, ops
