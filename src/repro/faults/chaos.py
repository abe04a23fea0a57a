"""Scripted chaos scenarios: inject -> recover -> audit.

Each scenario builds the same monitor the audited demo uses (an
AlwaysCorrect Nitro Count Sketch over a CAIDA-like trace), injects one
fault class, drives recovery through the real
:class:`~repro.control.checkpoint.CheckpointManager` machinery, and then
*proves* the recovery with the PR-3 accuracy auditors:

* ``kill_recover_audit`` -- kill the daemon mid-epoch (between
  checkpoints), restore the newest checkpoint into a fresh daemon,
  verify the restored monitor is byte-identical to a clean replay of
  the surviving prefix, resume ingest, and check the Theorem 2 bound
  via :class:`~repro.telemetry.audit.GuaranteeMonitor` on both the
  surviving mass and the full resumed stream;
* ``truncate_fallback`` -- truncate the newest checkpoint (torn write):
  the CRC must reject it and restore must fall back to the previous
  rotation byte-exactly;
* ``corrupt_fallback`` -- flip bytes inside the newest checkpoint (bit
  rot): same contract, caught purely by CRC since the length is intact;
* ``drop_exports`` -- ship per-epoch exports over a lossy channel:
  every delivered frame must decode, and every dropped frame must be
  detectable as a sequence gap;
* ``window_corruption`` -- zero one epoch sketch inside a sliding
  window's ring: the merged window must still satisfy the Theorem 2
  bound against the *uncorrupted* epochs' ground truth (blast radius =
  one epoch), while the identical corruption applied to an unwindowed
  monitor -- whose single sketch holds every epoch's mass -- must trip
  the violation;
* ``client_flood`` -- many concurrent wire clients hammer one tenant of
  a live :class:`~repro.service.MonitoringService` whose queue is tiny
  and whose overflow policy is ``drop``: the service must stay
  responsive throughout and account for every offered frame as exactly
  accepted-or-dropped (``packets_ingested == accepted * frame_size``,
  nothing silently lost);
* ``slow_consumer`` -- one producer outruns a tiny queue under the
  ``wait`` policy: backpressure must park the reader instead of
  shedding, so after the sync barrier *zero* batches were dropped and
  the tenant's sketch is byte-identical to an in-process replay of the
  same frames -- full fidelity, just slower.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.control.checkpoint import CheckpointManager
from repro.control.export import deserialize_monitor, serialize_monitor
from repro.core.config import NitroConfig, NitroMode
from repro.core.nitro import NitroSketch
from repro.faults.inject import LossyChannel, corrupt_file, truncate_file
from repro.sketches.countsketch import CountSketch
from repro.switchsim.daemon import MeasurementDaemon
from repro.telemetry import Telemetry
from repro.telemetry.alerts import metric_value
from repro.telemetry.audit import GuaranteeMonitor, ShadowAuditor
from repro.traffic.replay import Replayer
from repro.traffic.traces import caida_like


#: ``window_corruption`` splits the trace into this many ring epochs ...
WINDOW_EPOCHS = 4
#: ... of at least this many packets each.
MIN_EPOCH_PACKETS = 2_000
#: The smallest trace every scenario runs on: the other scenarios'
#: floors (frame sizes, checkpoint cadence) all lie below it.
MIN_PACKETS = WINDOW_EPOCHS * MIN_EPOCH_PACKETS


@dataclass
class ChaosResult:
    """One scenario's verdict."""

    name: str
    passed: bool
    detail: str
    metrics: Dict[str, float] = field(default_factory=dict)


class ChaosRunner:
    """Runs the chaos scenarios against one working directory.

    Parameters
    ----------
    packets / seed:
        Trace size and seed (every scenario is deterministic in them).
    directory:
        Where checkpoint files are written; a temp dir when ``None``.
    batch_size / checkpoint_interval:
        Daemon batch granularity and checkpoint cadence (batches).
    """

    def __init__(
        self,
        packets: int = 60_000,
        seed: int = 7,
        directory: Optional[str] = None,
        batch_size: int = 512,
        checkpoint_interval: int = 8,
    ) -> None:
        self.packets = packets
        self.seed = seed
        self.directory = directory or tempfile.mkdtemp(prefix="nitro-chaos-")
        self.batch_size = batch_size
        self.checkpoint_interval = checkpoint_interval
        self.trace = caida_like(
            packets, n_flows=max(200, packets // 20), seed=seed
        )
        self.batches = list(
            Replayer(self.trace, batch_size=batch_size).batches()
        )

    # -- building blocks ------------------------------------------------------

    def _build_monitor(self) -> NitroSketch:
        # The audited-demo configuration: loose epsilon so AlwaysCorrect
        # converges within a smoke-sized trace and the Theorem 2 bound is
        # comfortably checkable.
        config = NitroConfig(
            probability=0.1,
            epsilon=0.5,
            mode=NitroMode.ALWAYS_CORRECT,
            convergence_check_period=1000,
            top_k=100,
            seed=self.seed,
        )
        return NitroSketch(CountSketch(5, 4096, self.seed), config)

    def _audit(self, monitor, packet_count: int):
        """Theorem-2 check of ``monitor`` against the trace's first
        ``packet_count`` packets (the surviving mass)."""
        return self._audit_keys(monitor, self.trace.keys[:packet_count])

    def _audit_keys(self, monitor, keys):
        """Theorem-2 check of ``monitor`` against exactly ``keys``."""
        auditor = ShadowAuditor(capacity=256, seed=self.seed)
        guarantee = GuaranteeMonitor(auditor, monitor)
        auditor.observe_batch(keys)
        return guarantee.check()

    # -- scenarios ------------------------------------------------------------

    def kill_recover_audit(self) -> ChaosResult:
        """Kill mid-epoch, restore, verify byte-exactness + the bound."""
        name = "kill_recover_audit"
        telemetry = Telemetry()
        manager = CheckpointManager(
            os.path.join(self.directory, "kill"), keep=3, telemetry=telemetry
        )
        daemon = MeasurementDaemon(
            self._build_monitor(),
            checkpoints=manager,
            checkpoint_interval=self.checkpoint_interval,
            telemetry=telemetry,
        )
        # Kill between checkpoints: mid-way through the interval after at
        # least one checkpoint has been written.
        kill_at = (
            (len(self.batches) * 2 // 3) // self.checkpoint_interval
        ) * self.checkpoint_interval + self.checkpoint_interval // 2
        if kill_at >= len(self.batches) or kill_at < self.checkpoint_interval:
            return ChaosResult(name, False, "trace too small to stage a kill")
        for batch in self.batches[:kill_at]:
            daemon.ingest(batch)
        del daemon  # the crash: all in-memory state is gone

        recovered = MeasurementDaemon(
            self._build_monitor(),
            checkpoints=manager,
            checkpoint_interval=self.checkpoint_interval,
            telemetry=telemetry,
        )
        if not recovered.restore_latest():
            return ChaosResult(name, False, "no checkpoint found after kill")
        surviving_batches = recovered.batches_ingested
        surviving_packets = recovered.packets_offered

        # Byte-exactness: a clean replay of the surviving prefix must
        # serialize to the same bytes as the restored monitor.
        shadow = MeasurementDaemon(self._build_monitor())
        for batch in self.batches[:surviving_batches]:
            shadow.ingest(batch)
        if serialize_monitor(shadow.monitor) != serialize_monitor(recovered.monitor):
            return ChaosResult(
                name, False, "restored monitor diverges from clean replay"
            )

        # The surviving mass must still satisfy the Theorem 2 bound.
        report = self._audit(recovered.monitor, surviving_packets)
        if report.violated:
            return ChaosResult(
                name,
                False,
                "bound violated on surviving mass (observed %.1f > bound %.1f)"
                % (report.observed_max_error, report.bound),
            )
        surviving_ratio = report.ratio

        # Resume from the checkpoint and finish the trace; the bound must
        # hold for the full resumed stream too.
        for batch in self.batches[surviving_batches:]:
            recovered.ingest(batch)
        final = self._audit(recovered.monitor, len(self.trace))
        if final.violated:
            return ChaosResult(
                name,
                False,
                "bound violated after resumed ingest (observed %.1f > bound %.1f)"
                % (final.observed_max_error, final.bound),
            )
        return ChaosResult(
            name,
            True,
            "killed at batch %d, restored %d batches (%d packets); error/bound "
            "%.3f surviving, %.3f final"
            % (
                kill_at,
                surviving_batches,
                surviving_packets,
                surviving_ratio,
                final.ratio,
            ),
            metrics={
                "surviving_packets": float(surviving_packets),
                "surviving_ratio": float(surviving_ratio),
                "final_ratio": float(final.ratio),
            },
        )

    def _fallback_scenario(self, name: str, damage) -> ChaosResult:
        """Write two checkpoints, damage the newest, require fallback."""
        telemetry = Telemetry()
        manager = CheckpointManager(
            os.path.join(self.directory, name), keep=3, telemetry=telemetry
        )
        monitor = self._build_monitor()
        split = len(self.batches) // 2
        for batch in self.batches[:split]:
            monitor.update_batch(batch.keys)
        good_blob = serialize_monitor(monitor)
        manager.save(monitor, meta={"batches": split})
        for batch in self.batches[split:]:
            monitor.update_batch(batch.keys)
        newest = manager.save(monitor, meta={"batches": len(self.batches)})

        damage(newest.path)
        try:
            manager.load(newest.path)
            return ChaosResult(name, False, "damaged checkpoint was not rejected")
        except ValueError:
            pass  # CRC/validation caught it, as required

        restored = manager.restore_latest()
        if restored is None:
            return ChaosResult(name, False, "no fallback checkpoint restored")
        if restored.sequence != newest.sequence - 1:
            return ChaosResult(
                name,
                False,
                "expected fallback to sequence %d, got %d"
                % (newest.sequence - 1, restored.sequence),
            )
        if serialize_monitor(restored.monitor) != good_blob:
            return ChaosResult(name, False, "fallback checkpoint not byte-exact")
        failures = metric_value(
            telemetry.snapshot(), "checkpoint_restore_failures_total"
        ) or 0
        return ChaosResult(
            name,
            True,
            "damaged checkpoint rejected (%d restore failure(s) recorded), "
            "fell back to sequence %d byte-exactly" % (failures, restored.sequence),
            metrics={"restore_failures": float(failures)},
        )

    def truncate_fallback(self) -> ChaosResult:
        """Torn write: newest checkpoint truncated, CRC must reject it."""
        return self._fallback_scenario(
            "truncate_fallback", lambda path: truncate_file(path, fraction=0.6)
        )

    def corrupt_fallback(self) -> ChaosResult:
        """Bit rot: bytes flipped in place, only the CRC can catch it."""
        return self._fallback_scenario(
            "corrupt_fallback",
            lambda path: corrupt_file(path, count=8, seed=self.seed),
        )

    def drop_exports(self) -> ChaosResult:
        """Lossy epoch exports: survivors decode, gaps are detectable."""
        name = "drop_exports"
        channel = LossyChannel(drop_every=3)
        monitor = self._build_monitor()
        epoch_size = max(len(self.batches) // 6, 1)
        for start in range(0, len(self.batches), epoch_size):
            for batch in self.batches[start : start + epoch_size]:
                monitor.update_batch(batch.keys)
            channel.send(serialize_monitor(monitor))
        if channel.dropped == 0:
            return ChaosResult(name, False, "channel dropped nothing to test")
        for sequence, payload in channel.delivered:
            decoded = deserialize_monitor(payload)
            if not isinstance(decoded, NitroSketch):
                return ChaosResult(
                    name, False, "export %d decoded to wrong type" % sequence
                )
        missing = channel.missing_sequences()
        if len(missing) != channel.dropped:
            return ChaosResult(
                name,
                False,
                "gap detection missed drops (%d gaps vs %d dropped)"
                % (len(missing), channel.dropped),
            )
        return ChaosResult(
            name,
            True,
            "%d/%d exports dropped, every survivor decoded, gaps %s detected"
            % (channel.dropped, channel.sent, missing),
            metrics={"dropped": float(channel.dropped), "sent": float(channel.sent)},
        )

    def window_corruption(self) -> ChaosResult:
        """Corrupt one ring epoch: the window degrades, a monolith dies.

        Zeroing one epoch sketch inside the ring loses exactly that
        epoch's contribution -- the merged window must still satisfy
        the Theorem 2 bound against the uncorrupted epochs' ground
        truth.  The identical corruption (one sketch's counter grid
        zeroed) on an unwindowed monitor wipes *every* epoch's mass and
        must trip the GuaranteeMonitor violation.
        """
        name = "window_corruption"
        from repro.control.windows import SlidingWindowMonitor

        epochs = WINDOW_EPOCHS
        epoch_packets = len(self.trace) // epochs
        if epoch_packets < MIN_EPOCH_PACKETS:
            return ChaosResult(name, False, "trace too small for %d epochs" % epochs)
        keys = self.trace.keys[: epochs * epoch_packets]
        window = SlidingWindowMonitor(
            self._build_monitor,
            window_epochs=epochs + 1,
            epoch_packets=epoch_packets,
        )
        window.update_batch(keys)
        ring = window.window_monitors()[:-1]
        if len(ring) != epochs:
            return ChaosResult(
                name, False, "ring holds %d epochs, expected %d" % (len(ring), epochs)
            )
        baseline = self._audit_keys(window.merged(), keys)
        if baseline.violated:
            return ChaosResult(
                name, False, "window bound violated before any corruption"
            )

        # The fault: one epoch's counter grid zeroed in place.
        corrupt_index = 1
        ring[corrupt_index].sketch.counters.fill(0.0)
        window.invalidate()
        surviving = np.concatenate(
            [
                keys[index * epoch_packets : (index + 1) * epoch_packets]
                for index in range(epochs)
                if index != corrupt_index
            ]
        )
        windowed = self._audit_keys(window.merged(), surviving)
        if windowed.violated:
            return ChaosResult(
                name,
                False,
                "window did not degrade gracefully: bound violated on the "
                "uncorrupted epochs (observed %.1f > bound %.1f)"
                % (windowed.observed_max_error, windowed.bound),
            )

        # Same corruption, no window: one sketch holds all the mass.
        monolith = self._build_monitor()
        monolith.update_batch(keys)
        monolith.sketch.counters.fill(0.0)
        unwindowed = self._audit_keys(monolith, surviving)
        if not unwindowed.violated:
            return ChaosResult(
                name,
                False,
                "unwindowed corruption went undetected (observed %.1f, "
                "bound %.1f)"
                % (unwindowed.observed_max_error, unwindowed.bound),
            )
        return ChaosResult(
            name,
            True,
            "epoch %d/%d zeroed: window error/bound %.3f on surviving epochs "
            "(%.3f pre-corruption), unwindowed corruption trips the violation"
            % (corrupt_index, epochs, windowed.ratio, baseline.ratio),
            metrics={
                "baseline_ratio": float(baseline.ratio),
                "windowed_ratio": float(windowed.ratio),
                "unwindowed_observed": float(unwindowed.observed_max_error),
            },
        )

    def client_flood(self) -> ChaosResult:
        """Concurrent clients flood a drop-policy tenant: survive + account.

        The interesting failure modes are silent loss (a frame neither
        ingested nor counted as dropped), corrupted accounting under
        concurrency, and the service wedging.  Drops themselves are
        *legal* here -- the scenario records how many the flood forced.
        """
        name = "client_flood"
        import threading

        from repro.service import IngestClient, MonitoringService, ServiceConfig

        frame_keys = 1000
        clients = 6
        frames_per_client = max(len(self.trace) // (clients * frame_keys), 4)
        config = ServiceConfig(
            seed=self.seed, queue_capacity=2, overflow="drop", epoch_batches=0
        )
        service = MonitoringService(config, http=False).start()
        errors: List[str] = []
        try:
            def flood(index: int) -> None:
                keys = self.trace.keys
                try:
                    with IngestClient("127.0.0.1", service.ingest_port) as client:
                        for frame in range(frames_per_client):
                            start = (
                                (index * frames_per_client + frame) * frame_keys
                            ) % max(len(keys) - frame_keys, 1)
                            client.ingest(
                                "flooded", keys[start : start + frame_keys]
                            )
                        # Responsiveness probe from inside the flood.
                        client.stats("flooded")
                except Exception as exc:
                    errors.append("client %d: %s" % (index, exc))

            threads = [
                threading.Thread(target=flood, args=(index,))
                for index in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            if errors or any(thread.is_alive() for thread in threads):
                return ChaosResult(
                    name, False, "flood clients failed: %s" % (errors or "hung")
                )
            # Let the drainer finish, then take the books.
            with IngestClient("127.0.0.1", service.ingest_port) as client:
                stats = client.sync("flooded")
            offered = clients * frames_per_client
            accepted = stats["batches_accepted"]
            dropped = stats["batches_dropped"]
            if accepted + dropped != offered:
                return ChaosResult(
                    name,
                    False,
                    "frames leaked: %d accepted + %d dropped != %d offered"
                    % (accepted, dropped, offered),
                )
            if stats["packets_ingested"] != accepted * frame_keys:
                return ChaosResult(
                    name,
                    False,
                    "accepted frames lost packets: %d ingested != %d * %d"
                    % (stats["packets_ingested"], accepted, frame_keys),
                )
            return ChaosResult(
                name,
                True,
                "%d clients x %d frames into a depth-%d queue: %d accepted, "
                "%d dropped-and-counted, zero silent loss, service responsive"
                % (clients, frames_per_client, config.queue_capacity,
                   accepted, dropped),
                metrics={
                    "offered": float(offered),
                    "accepted": float(accepted),
                    "dropped": float(dropped),
                },
            )
        finally:
            service.stop()

    def slow_consumer(self) -> ChaosResult:
        """A producer outruns the drain under ``wait``: no loss, ever.

        Backpressure must hold the reader instead of shedding: every
        frame eventually lands, and the tenant's sketch ends
        byte-identical to an in-process replay of the same frames.
        """
        name = "slow_consumer"
        from repro.service import IngestClient, MonitoringService, ServiceConfig
        from repro.service.records import batch_from_keys

        frame_keys = 500
        keys = self.trace.keys[: min(len(self.trace), 30_000)]
        frames = [
            keys[start : start + frame_keys]
            for start in range(0, len(keys), frame_keys)
        ]
        config = ServiceConfig(
            seed=self.seed, queue_capacity=2, overflow="wait", epoch_batches=0
        )
        service = MonitoringService(config, http=False).start()
        try:
            with IngestClient("127.0.0.1", service.ingest_port) as client:
                for frame in frames:
                    client.ingest("steady", frame)
                stats = client.sync("steady")
            if stats["batches_dropped"]:
                return ChaosResult(
                    name,
                    False,
                    "wait policy shed %d batches" % stats["batches_dropped"],
                )
            if stats["packets_ingested"] != len(keys):
                return ChaosResult(
                    name,
                    False,
                    "lost packets under backpressure: %d != %d"
                    % (stats["packets_ingested"], len(keys)),
                )
            live = serialize_monitor(
                service.tenants.get("steady").daemon.monitor
            )
            reference = MeasurementDaemon(config.build_monitor("steady"))
            for frame in frames:
                reference.ingest(batch_from_keys(frame))
            if live != serialize_monitor(reference.monitor):
                return ChaosResult(
                    name, False, "sketch diverged from in-process replay"
                )
            return ChaosResult(
                name,
                True,
                "%d frames through a depth-%d queue under backpressure: "
                "zero drops, byte-identical to in-process replay (%d packets)"
                % (len(frames), config.queue_capacity, len(keys)),
                metrics={
                    "frames": float(len(frames)),
                    "packets": float(len(keys)),
                },
            )
        finally:
            service.stop()

    # -- driver ---------------------------------------------------------------

    def run_all(self) -> List[ChaosResult]:
        return [
            self.kill_recover_audit(),
            self.truncate_fallback(),
            self.corrupt_fallback(),
            self.drop_exports(),
            self.window_corruption(),
            self.client_flood(),
            self.slow_consumer(),
        ]


def run_chaos(
    packets: int = 60_000,
    seed: int = 7,
    directory: Optional[str] = None,
    quick: bool = False,
) -> List[ChaosResult]:
    """Run every scenario; ``quick`` shrinks the trace for CI smoke."""
    if quick:
        packets = min(packets, 24_000)
    runner = ChaosRunner(packets=packets, seed=seed, directory=directory)
    return runner.run_all()
