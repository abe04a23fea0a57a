"""Tests for the multiprocess parallel ingest plane.

Covers the sharding/seed-derivation contracts (pure functions, always
run) and the live engine (skipped wholesale on hosts without a usable
``multiprocessing.shared_memory`` mount): merge bit-exactness against
the sequential oracle, shared-bank bit-exactness against a whole-trace
sketch, two-run determinism, crash recovery, corruption detection, the
epoch-frame wire format, per-epoch delivery through ``on_epoch``, and
the multicore-simulator integration.
"""

import numpy as np
import pytest

from repro.control.export import (
    deserialize_epoch_frame,
    serialize_epoch_frame,
    serialize_monitor,
)
from repro.core.config import NitroConfig
from repro.faults import FrameCorruptionPlan, WorkerCrashPlan, flip_bytes
from repro.hashing.prng import derive_stream_seed
from repro.parallel import (
    MERGE_SHARD,
    NitroFactory,
    ParallelIngestEngine,
    ShardCorruptionError,
    VanillaFactory,
    WorkerCrashError,
    epoch_bounds,
    parallel_unavailable_reason,
    rss_assignments,
    shard_counts,
)
from repro.sketches.countsketch import CountSketch
from repro.switchsim import MultiCoreSimulator, OVSDPDKPipeline
from repro.traffic.traces import caida_like

needs_shm = pytest.mark.skipif(
    parallel_unavailable_reason() is not None,
    reason=parallel_unavailable_reason() or "",
)


@pytest.fixture(scope="module")
def trace():
    return caida_like(12_000, n_flows=600, seed=11)


# -- sharding and seed derivation (no processes involved) -----------------


class TestSharding:
    def test_rss_matches_multicore_simulator(self, trace):
        """The engine and the modeled simulator must shard identically."""
        sim = MultiCoreSimulator(
            lambda core: OVSDPDKPipeline(), cores=4, rss_seed=7
        )
        modeled = sim._rss.batch(trace.keys).astype(np.uint8)
        engine_side = rss_assignments(trace.keys, 4, 7)
        assert np.array_equal(modeled, engine_side)

    def test_assignments_are_flow_consistent(self, trace):
        assignments = rss_assignments(trace.keys, 3, 0)
        by_flow = {}
        for key, shard in zip(trace.keys.tolist(), assignments.tolist()):
            assert by_flow.setdefault(key, shard) == shard

    def test_shard_counts_cover_trace(self, trace):
        assignments = rss_assignments(trace.keys, 5, 1)
        counts = shard_counts(assignments, 5)
        assert counts.sum() == len(trace.keys)
        assert (counts > 0).all()  # 600 flows over 5 shards: none empty

    def test_epoch_bounds(self):
        assert epoch_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert epoch_bounds(10, None) == [(0, 10)]
        assert epoch_bounds(0, 4) == [(0, 0)]


class TestSeedDerivation:
    def test_derived_streams_deterministic_and_distinct(self):
        seeds = [derive_stream_seed(42, shard) for shard in range(64)]
        assert seeds == [derive_stream_seed(42, shard) for shard in range(64)]
        assert len(set(seeds)) == 64
        assert all(seed != 0 for seed in seeds)

    def test_for_shard_varies_only_sampler_seed(self):
        base = NitroConfig(probability=0.05, top_k=16, seed=9)
        shard0 = base.for_shard(0)
        shard1 = base.for_shard(1)
        assert shard0.seed != shard1.seed
        assert shard0.probability == shard1.probability == 0.05
        assert base.for_shard(MERGE_SHARD).seed == base.seed

    def test_factories_share_sketch_seed(self):
        """Sketch hashes must agree across shards or merging is garbage."""
        factory = NitroFactory(sketch="countsketch", width=512, seed=5)
        a, b = factory(0), factory(1)
        assert a.sketch.seed == b.sketch.seed
        keys = np.arange(64, dtype=np.uint64)
        a.sketch.update_batch(keys)
        b.sketch.update_batch(keys)
        assert np.array_equal(a.sketch.counters, b.sketch.counters)
        # ...while the sampler streams are private and distinct.
        assert a.config.seed != b.config.seed


# -- epoch-frame wire format ----------------------------------------------


class TestEpochFrames:
    def test_roundtrip_with_monitor(self):
        monitor = NitroFactory(sketch="countsketch", width=512, seed=3)(2)
        monitor.update_batch(np.arange(500, dtype=np.uint64))
        meta = {"worker": 2, "epoch": 1, "final": False}
        frame = serialize_epoch_frame(meta, monitor)
        out_meta, out_monitor = deserialize_epoch_frame(frame)
        assert out_meta == meta
        assert serialize_monitor(out_monitor) == serialize_monitor(monitor)

    def test_roundtrip_meta_only(self):
        frame = serialize_epoch_frame({"worker": 0, "epoch": 3})
        meta, monitor = deserialize_epoch_frame(frame)
        assert meta["epoch"] == 3 and monitor is None

    def test_flipped_bytes_rejected(self):
        frame = serialize_epoch_frame({"worker": 1, "epoch": 0})
        with pytest.raises(ValueError):
            deserialize_epoch_frame(flip_bytes(frame, count=4, seed=1))


# -- the live engine ------------------------------------------------------


def _nitro_factory(seed=17):
    return NitroFactory(
        sketch="countsketch", depth=5, width=1024, probability=0.1, seed=seed
    )


@needs_shm
class TestEngine:
    def test_merge_bit_exact_vs_sequential(self, trace):
        def build():
            return ParallelIngestEngine(
                _nitro_factory(),
                workers=3,
                strategy="merge",
                epoch_packets=4_000,
                batch_size=1024,
            )

        parallel = build().run(trace.keys)
        oracle = build().run_sequential(trace.keys)
        assert parallel.epochs == oracle.epochs == 3
        assert serialize_monitor(parallel.monitor) == serialize_monitor(
            oracle.monitor
        )

    def test_on_epoch_delivers_each_epoch_like_run_sequential(self, trace):
        def deliveries(run):
            delivered = []
            run(
                trace.keys,
                on_epoch=lambda epoch, merged, metas: delivered.append(
                    (epoch, serialize_monitor(merged))
                ),
            )
            return delivered

        def build():
            return ParallelIngestEngine(
                _nitro_factory(),
                workers=3,
                strategy="merge",
                epoch_packets=4_000,
                batch_size=1024,
                reset_per_epoch=True,
            )

        parallel = deliveries(build().run)
        assert [epoch for epoch, _ in parallel] == [0, 1, 2]
        assert parallel == deliveries(build().run_sequential)

    def test_two_runs_identical(self, trace):
        """Determinism regression: scheduling must not leak into results."""

        def run_once():
            engine = ParallelIngestEngine(
                _nitro_factory(), workers=3, strategy="merge", batch_size=1024
            )
            return serialize_monitor(engine.run(trace.keys).monitor)

        assert run_once() == run_once()

    def test_shared_vanilla_bit_exact(self, trace):
        factory = VanillaFactory(sketch="countmin", depth=4, width=1024, seed=2)
        engine = ParallelIngestEngine(
            factory, workers=3, strategy="shared", batch_size=1024
        )
        result = engine.run(trace.keys)
        whole = factory(MERGE_SHARD)
        whole.update_batch(trace.keys)
        assert np.array_equal(result.monitor.counters, whole.counters)
        assert result.packets == len(trace.keys)

    def test_crash_recovery_bit_exact(self, trace):
        def build(crash_plan=None):
            return ParallelIngestEngine(
                _nitro_factory(),
                workers=3,
                strategy="merge",
                epoch_packets=4_000,
                batch_size=1024,
                crash_plan=crash_plan,
            )

        crashed = build(WorkerCrashPlan(worker=1, epoch=1, fraction=0.5)).run(
            trace.keys
        )
        assert crashed.restarts == 1
        assert crashed.worker_stats[1].restarts == 1
        oracle = build().run_sequential(trace.keys)
        assert serialize_monitor(crashed.monitor) == serialize_monitor(
            oracle.monitor
        )

    def test_restart_budget_exhaustion(self, trace):
        engine = ParallelIngestEngine(
            _nitro_factory(),
            workers=2,
            strategy="merge",
            batch_size=1024,
            max_restarts=0,
            crash_plan=WorkerCrashPlan(worker=0, epoch=0, fraction=0.0),
        )
        with pytest.raises(WorkerCrashError):
            engine.run(trace.keys)

    def test_corrupt_frame_raises(self, trace):
        engine = ParallelIngestEngine(
            _nitro_factory(),
            workers=3,
            strategy="merge",
            batch_size=1024,
            corruption_plan=FrameCorruptionPlan(worker=2, epoch=0, count=8),
        )
        with pytest.raises(ShardCorruptionError) as excinfo:
            engine.run(trace.keys)
        assert excinfo.value.worker == 2

    def test_result_reports_all_clocks(self, trace):
        engine = ParallelIngestEngine(
            VanillaFactory(sketch="countmin", depth=4, width=512, seed=1),
            workers=2,
            strategy="shared",
            batch_size=2048,
        )
        result = engine.run(trace.keys)
        assert result.wall_mpps > 0
        assert result.aggregate_cpu_mpps > 0
        assert result.aggregate_busy_mpps > 0
        assert len(result.worker_stats) == 2
        assert sum(s.packets for s in result.worker_stats) == len(trace.keys)

    def test_shared_rejects_epochs(self):
        with pytest.raises(ValueError):
            ParallelIngestEngine(
                VanillaFactory(),
                workers=2,
                strategy="shared",
                epoch_packets=100,
            )


# -- integrations ---------------------------------------------------------


@needs_shm
class TestIntegrations:
    def test_multicore_measured_alongside_modeled(self, trace):
        sim = MultiCoreSimulator(
            lambda core: OVSDPDKPipeline(), cores=3, rss_seed=4
        )
        result = sim.run(
            trace,
            measure_with=VanillaFactory(
                sketch="countmin", depth=4, width=1024, seed=1
            ),
        )
        assert result.capacity_mpps > 0  # modeled
        assert result.measured is not None
        assert result.measured_wall_mpps > 0
        assert result.measured_aggregate_cpu_mpps > 0
        # measured workers ingested exactly the modeled shards
        modeled_sizes = [len(shard) for shard in sim.shard(trace)]
        measured_sizes = [s.packets for s in result.measured.worker_stats]
        assert modeled_sizes == measured_sizes

    def test_multicore_default_has_no_measurement(self, trace):
        sim = MultiCoreSimulator(lambda core: OVSDPDKPipeline(), cores=2)
        result = sim.run(trace)
        assert result.measured is None
        assert result.measured_wall_mpps is None
