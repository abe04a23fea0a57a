"""Crash-safety tests: wire format, checkpoints, fault injection, chaos.

The acceptance bar for the serialization layer is *byte-exactness*:
``serialize(deserialize(blob)) == blob``, and a restored monitor fed the
same further traffic as the original serializes identically again -- a
restored sketch is indistinguishable from one that never crashed.
"""

import os
import zlib

import numpy as np
import pytest

from repro.control import (
    CheckpointManager,
    ControlPlane,
    deserialize_monitor,
    deserialize_sketch,
    serialize_monitor,
    serialize_sketch,
)
from repro.control import export
from repro.control.tasks import HeavyHitterTask
from repro.core import NitroConfig, NitroMode, NitroSketch
from repro.core.univmon_nitro import NitroUnivMon
from repro.faults import LossyChannel, corrupt_file, truncate_file
from repro.faults.chaos import ChaosRunner
from repro.sketches import CountMinSketch, CountSketch, KArySketch
from repro.sketches.univmon import UnivMon
from repro.switchsim.daemon import MeasurementDaemon
from repro.telemetry import Telemetry
from repro.telemetry.health import CheckpointStalenessRule, sample_value
from repro.telemetry.profile import StageProfiler, stage_summary
from repro.traffic import caida_like
from repro.traffic.replay import Replayer


def _monitor_zoo(seed):
    """One of every serializable monitor shape, with live mutable state."""
    return [
        CountSketch(3, 256, seed),
        NitroSketch(
            CountSketch(3, 512, seed),
            NitroConfig(probability=0.25, top_k=16, seed=seed),
        ),
        NitroSketch(
            CountMinSketch(3, 256, seed),
            NitroConfig(
                probability=0.5,
                epsilon=0.5,
                mode=NitroMode.ALWAYS_CORRECT,
                convergence_check_period=100,
                top_k=8,
                seed=seed,
            ),
        ),
        NitroSketch(
            KArySketch(3, 256, seed),
            NitroConfig(
                probability=0.25,
                mode=NitroMode.ALWAYS_LINE_RATE,
                top_k=8,
                seed=seed,
            ),
        ),
        UnivMon(levels=4, depth=3, widths=128, k=8, seed=seed),
        NitroUnivMon(
            levels=4, depth=3, widths=128, k=8, probability=0.25, seed=seed
        ),
    ]


def _ingest(monitor, keys):
    monitor.update_batch(keys)
    # Scalar-path updates too, so the geometric _pending cursor and the
    # scalar PRNG state are both mid-flight at serialization time.
    for key in keys[:17].tolist():
        monitor.update(key)


class TestWireFormatRoundTrip:
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_byte_exact_over_monitor_zoo(self, seed):
        trace = caida_like(2_000, n_flows=300, seed=seed)
        for monitor in _monitor_zoo(seed):
            _ingest(monitor, trace.keys)
            blob = serialize_monitor(monitor)
            restored = deserialize_monitor(blob)
            assert type(restored) is type(monitor)
            assert serialize_monitor(restored) == blob

    @pytest.mark.parametrize("seed", [0, 17])
    def test_restored_monitor_replays_identically(self, seed):
        trace = caida_like(3_000, n_flows=300, seed=seed)
        head, tail = trace.keys[:2_000], trace.keys[2_000:]
        for monitor in _monitor_zoo(seed):
            _ingest(monitor, head)
            restored = deserialize_monitor(serialize_monitor(monitor))
            _ingest(monitor, tail)
            _ingest(restored, tail)
            assert serialize_monitor(restored) == serialize_monitor(monitor)

    def test_sketch_frame_rejected_by_monitor_mismatch(self):
        nitro = NitroSketch(
            CountSketch(3, 64, 1), NitroConfig(probability=1.0, top_k=4, seed=1)
        )
        blob = serialize_monitor(nitro)
        with pytest.raises(ValueError, match="deserialize_monitor"):
            deserialize_sketch(blob)


class TestWireFormatValidation:
    def _blob(self):
        sketch = CountSketch(3, 64, seed=1)
        sketch.update_batch(np.arange(100, dtype=np.int64))
        return serialize_sketch(sketch)

    def test_truncated_frame(self):
        with pytest.raises(ValueError, match="truncated"):
            deserialize_sketch(self._blob()[:9])

    def test_torn_tail(self):
        with pytest.raises(ValueError, match="CRC|truncated"):
            deserialize_sketch(self._blob()[:-20])

    def test_bad_magic(self):
        blob = self._blob()
        with pytest.raises(ValueError, match="magic"):
            deserialize_sketch(b"XXXX" + blob[4:])

    def test_flipped_byte_fails_crc(self):
        blob = bytearray(self._blob())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            deserialize_sketch(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(self._blob())
        blob[4:6] = (99).to_bytes(2, "little")
        # Re-seal the CRC so the version check itself is what fires.
        body = bytes(blob[:-4])
        resealed = body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")
        with pytest.raises(ValueError, match="version 99"):
            deserialize_sketch(resealed)

    def test_short_counter_payload(self):
        # A frame whose CRC and section bookkeeping are self-consistent
        # but whose counter grid is 8 bytes short: only the payload-size
        # validation can catch it.
        header, sections = export._unframe(self._blob())
        bad = export._frame(header, [sections[0][:-8]])
        with pytest.raises(ValueError, match="truncated or corrupt sketch payload"):
            deserialize_sketch(bad)


class TestCheckpointManager:
    def _monitor(self, seed=5):
        nitro = NitroSketch(
            CountSketch(3, 128, seed),
            NitroConfig(probability=0.5, top_k=8, seed=seed),
        )
        nitro.update_batch(np.arange(500, dtype=np.int64) % 37)
        return nitro

    def test_save_load_roundtrip_with_meta(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        monitor = self._monitor()
        saved = manager.save(monitor, meta={"epoch": 4})
        assert os.path.exists(saved.path)
        loaded = manager.load(saved.path)
        assert loaded.meta["epoch"] == 4
        assert serialize_monitor(loaded.monitor) == serialize_monitor(monitor)

    def test_no_temp_files_left_behind(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep=2)
        for _ in range(4):
            manager.save(self._monitor())
        assert all(name.endswith(".nsk") for name in os.listdir(str(tmp_path)))

    def test_rotation_keeps_newest(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), keep=2)
        for _ in range(5):
            manager.save(self._monitor())
        assert [sequence for sequence, _ in manager.checkpoints()] == [3, 4]

    def test_restore_latest_empty_directory(self, tmp_path):
        assert CheckpointManager(str(tmp_path)).restore_latest() is None

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: truncate_file(path, fraction=0.5),
            lambda path: corrupt_file(path, count=4, seed=9),
        ],
        ids=["truncated", "corrupted"],
    )
    def test_restore_latest_falls_back_past_damage(self, tmp_path, damage):
        telemetry = Telemetry()
        manager = CheckpointManager(str(tmp_path), telemetry=telemetry)
        older = self._monitor(seed=1)
        manager.save(older, meta={"epoch": 0})
        newest = manager.save(self._monitor(seed=2), meta={"epoch": 1})
        damage(newest.path)
        restored = manager.restore_latest()
        assert restored is not None
        assert restored.sequence == newest.sequence - 1
        assert serialize_monitor(restored.monitor) == serialize_monitor(older)
        snap = telemetry.snapshot()
        assert sample_value(snap, "checkpoint_restore_failures_total") == 1

    def test_validates_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), keep=0)
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), prefix="has-dash")


class TestDaemonCheckpoints:
    def _batches(self, packets=4_096, batch_size=256, seed=11):
        trace = caida_like(packets, n_flows=200, seed=seed)
        return list(Replayer(trace, batch_size=batch_size).batches())

    def _monitor(self, seed=11):
        return NitroSketch(
            CountSketch(3, 256, seed),
            NitroConfig(probability=0.5, top_k=8, seed=seed),
        )

    def test_periodic_checkpoints(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        daemon = MeasurementDaemon(
            self._monitor(), checkpoints=manager, checkpoint_interval=4
        )
        batches = self._batches()
        for batch in batches:
            daemon.ingest(batch)
        assert manager.latest_sequence() is not None
        assert len(manager.checkpoints()) == min(3, len(batches) // 4)

    def test_restore_latest_resumes_counters_and_bytes(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        daemon = MeasurementDaemon(
            self._monitor(), checkpoints=manager, checkpoint_interval=4
        )
        batches = self._batches()
        for batch in batches[:10]:
            daemon.ingest(batch)
        packets_at_checkpoint = sum(len(batch) for batch in batches[:8])
        del daemon

        recovered = MeasurementDaemon(self._monitor(), checkpoints=manager)
        assert recovered.restore_latest()
        assert recovered.batches_ingested == 8
        assert recovered.packets_offered == packets_at_checkpoint
        clean = MeasurementDaemon(self._monitor())
        for batch in batches[:8]:
            clean.ingest(batch)
        assert serialize_monitor(recovered.monitor) == serialize_monitor(
            clean.monitor
        )

    def test_restore_latest_keeps_the_attached_profiler(self, tmp_path):
        telemetry = Telemetry()
        daemon = MeasurementDaemon(
            self._monitor(), checkpoints=CheckpointManager(str(tmp_path))
        )
        daemon.profiler = StageProfiler(telemetry, sample_every=1)
        batches = self._batches()
        daemon.ingest(batches[0])
        daemon.checkpoint()
        assert daemon.restore_latest()
        assert daemon.monitor.profiler is daemon.profiler

        def monitor_stage_samples():
            # The daemon times "checkpoint" itself; every other stage is
            # recorded by the monitor through the attached profiler.
            summary = stage_summary(telemetry.registry)
            return sum(
                row["count"] for stage, row in summary.items() if stage != "checkpoint"
            )

        before = monitor_stage_samples()
        daemon.ingest(batches[1])
        assert monitor_stage_samples() > before

    def test_interval_requires_manager(self):
        with pytest.raises(ValueError):
            MeasurementDaemon(self._monitor(), checkpoint_interval=4)


class TestWindowedDaemonRecovery:
    """A checkpointed window ring must resume mid-epoch bit-exactly."""

    def _batches(self, packets=6_144, batch_size=256, seed=17):
        trace = caida_like(packets, n_flows=300, seed=seed)
        return list(Replayer(trace, batch_size=batch_size).batches())

    def _monitor(self, seed=17):
        return NitroSketch(
            CountSketch(3, 512, seed),
            NitroConfig(probability=0.5, top_k=16, seed=seed),
        )

    def test_restore_mid_epoch_continues_bit_identical(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        batches = self._batches()
        daemon = MeasurementDaemon(
            self._monitor(), checkpoints=manager, window_epochs=3
        )
        assert daemon.windowed and daemon.window_epochs == 3
        # Rotate every 4 batches, checkpoint 2 batches into the third
        # epoch -- the ring holds completed epochs AND a half-full
        # current epoch at save time.
        for index, batch in enumerate(batches[:10]):
            daemon.ingest(batch)
            if (index + 1) % 4 == 0:
                daemon.epoch_boundary()
        checkpoint = daemon.checkpoint()
        assert checkpoint is not None

        recovered = MeasurementDaemon(
            self._monitor(), checkpoints=manager, window_epochs=3
        )
        assert recovered.restore_latest()
        assert recovered.windowed and recovered.window_epochs == 3
        assert serialize_monitor(recovered.monitor) == serialize_monitor(
            daemon.monitor
        )

        # Continue both sides over the same tail with the same rotation
        # schedule: the restored ring must stay byte-identical to the
        # uninterrupted one (recycled-epoch rotation included).
        for index, batch in enumerate(batches[10:]):
            daemon.ingest(batch)
            recovered.ingest(batch)
            if (10 + index + 1) % 4 == 0:
                daemon.epoch_boundary()
                recovered.epoch_boundary()
        assert serialize_monitor(recovered.monitor) == serialize_monitor(
            daemon.monitor
        )
        probe = [int(batches[0].keys[i]) for i in range(8)]
        assert [recovered.monitor.query(k) for k in probe] == [
            daemon.monitor.query(k) for k in probe
        ]
        assert recovered.monitor.heavy_hitters(100) == daemon.monitor.heavy_hitters(
            100
        )
        assert recovered.monitor.window_packets() == daemon.monitor.window_packets()

    def test_unwindowed_checkpoint_restores_unwindowed(self, tmp_path):
        # A daemon restoring a plain (ringless) checkpoint must not
        # invent a window around it.
        manager = CheckpointManager(str(tmp_path))
        plain = MeasurementDaemon(self._monitor(), checkpoints=manager)
        for batch in self._batches()[:4]:
            plain.ingest(batch)
        plain.checkpoint()
        recovered = MeasurementDaemon(self._monitor(), checkpoints=manager)
        assert recovered.restore_latest()
        assert not recovered.windowed
        assert recovered.window_epochs == 0


class TestControlPlaneResume:
    def test_epoch_numbering_resumes_after_restart(self, tmp_path):
        trace = caida_like(6_000, n_flows=300, seed=13)
        factory = lambda epoch: NitroSketch(
            CountSketch(3, 256, 13),
            NitroConfig(probability=0.5, top_k=8, seed=13),
        )
        manager = CheckpointManager(str(tmp_path))
        plane = ControlPlane(
            factory, [HeavyHitterTask()], score=False, checkpoints=manager
        )
        first = plane.run_epochs(trace.slice(0, 3_000), epoch_packets=1_000)
        assert [report.epoch for report in first] == [0, 1, 2]

        # The "restarted" plane resumes numbering after the last
        # checkpointed epoch instead of starting over at 0.
        restarted = ControlPlane(
            factory, [HeavyHitterTask()], score=False, checkpoints=manager
        )
        second = restarted.run_epochs(trace.slice(3_000, 6_000), epoch_packets=1_000)
        assert [report.epoch for report in second] == [3, 4, 5]
        # The restored epoch-2 monitor is available for change detection.
        assert len(restarted.monitors) >= 1


class TestFaultInjectors:
    def test_truncate_file(self, tmp_path):
        path = str(tmp_path / "blob")
        with open(path, "wb") as handle:
            handle.write(bytes(range(100)))
        kept = truncate_file(path, fraction=0.4)
        assert kept == 40
        assert os.path.getsize(path) == 40
        with pytest.raises(ValueError):
            truncate_file(path, fraction=1.0)

    def test_corrupt_file_is_deterministic_and_length_preserving(self, tmp_path):
        payload = bytes(range(256)) * 4
        path_a, path_b = str(tmp_path / "a"), str(tmp_path / "b")
        for path in (path_a, path_b):
            with open(path, "wb") as handle:
                handle.write(payload)
        offsets_a = corrupt_file(path_a, count=8, seed=3)
        offsets_b = corrupt_file(path_b, count=8, seed=3)
        assert offsets_a == offsets_b
        assert os.path.getsize(path_a) == len(payload)
        with open(path_a, "rb") as handle:
            mutated = handle.read()
        assert mutated != payload
        assert [i for i in range(len(payload)) if mutated[i] != payload[i]] == offsets_a

    def test_lossy_channel_gap_detection(self):
        channel = LossyChannel(drop_every=3)
        outcomes = [channel.send(b"x") for _ in range(7)]
        assert outcomes == [True, True, False, True, True, False, True]
        assert channel.dropped == 2
        assert channel.missing_sequences() == [2, 5]
        # drop_every=0 delivers everything.
        lossless = LossyChannel()
        assert all(lossless.send(b"y") for _ in range(5))
        assert lossless.missing_sequences() == []


class TestCheckpointStalenessRule:
    def test_ok_when_not_checkpointing(self):
        result = CheckpointStalenessRule().evaluate(Telemetry().snapshot())
        assert result.status == "ok"

    def test_age_thresholds(self):
        rule = CheckpointStalenessRule(warn_age=10, fail_age=20)
        for age, expected in [(3, "ok"), (10, "warn"), (25, "fail")]:
            telemetry = Telemetry()
            telemetry.gauge("daemon_checkpoint_age_batches", age)
            assert rule.evaluate(telemetry.snapshot()).status == expected

    def test_restore_failures_warn(self):
        telemetry = Telemetry()
        telemetry.gauge("daemon_checkpoint_age_batches", 0)
        telemetry.count("checkpoint_restore_failures_total")
        result = CheckpointStalenessRule().evaluate(telemetry.snapshot())
        assert result.status == "warn"

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointStalenessRule(warn_age=0)


class TestChaosScenarios:
    def test_all_scenarios_pass(self, tmp_path):
        runner = ChaosRunner(packets=16_000, seed=7, directory=str(tmp_path))
        results = runner.run_all()
        assert [result.name for result in results] == [
            "kill_recover_audit",
            "truncate_fallback",
            "corrupt_fallback",
            "drop_exports",
            "window_corruption",
            "client_flood",
            "slow_consumer",
        ]
        for result in results:
            assert result.passed, "%s: %s" % (result.name, result.detail)
