"""Tests for the switch simulator: packets, cost model, pipelines, NIC,
daemon and end-to-end simulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import nitro_countsketch
from repro.metrics.opcount import OpCounter
from repro.sketches import CountSketch, Monitor, TrackedSketch
from repro.switchsim import (
    BESSPipeline,
    CostModel,
    CycleCosts,
    DPDKForwarder,
    FiveTuple,
    GENERIC_10G,
    InMemoryPipeline,
    IntegrationMode,
    MeasurementDaemon,
    OVSDPDKPipeline,
    SwitchSimulator,
    UNLIMITED,
    VPPPipeline,
    XL710_40G,
    int_to_ip,
    ip_to_int,
)
from repro.traffic import caida_like, min_sized_stress
from repro.traffic.replay import Batch


class TestPacket:
    def test_ip_roundtrip(self):
        assert int_to_ip(ip_to_int("192.168.1.200")) == "192.168.1.200"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50)
    def test_ip_roundtrip_property(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    def test_ip_validation(self):
        with pytest.raises(ValueError):
            ip_to_int("1.2.3")
        with pytest.raises(ValueError):
            ip_to_int("1.2.3.999")

    def test_five_tuple_pack_length(self):
        tup = FiveTuple.from_strings("10.0.0.1", "10.0.0.2", 1234, 80)
        assert len(tup.pack()) == 13

    def test_flow_key_deterministic_and_64bit(self):
        tup = FiveTuple.from_strings("10.0.0.1", "10.0.0.2", 1234, 80)
        key = tup.flow_key()
        assert key == tup.flow_key()
        assert 0 <= key < 2**64

    def test_distinct_tuples_distinct_keys(self):
        a = FiveTuple.from_strings("10.0.0.1", "10.0.0.2", 1234, 80)
        b = FiveTuple.from_strings("10.0.0.1", "10.0.0.2", 1234, 81)
        assert a.flow_key() != b.flow_key()


class TestCostModel:
    def test_breakdown_totals(self):
        ops = OpCounter()
        ops.hash(10)
        ops.counter_update(10)
        ops.packet(10)
        model = CostModel()
        breakdown = model.breakdown(ops)
        expected = 10 * model.costs.hash + 10 * model.costs.counter_update
        assert breakdown.total() == pytest.approx(expected)
        assert breakdown.per_packet() == pytest.approx(expected / 10)

    def test_miss_rate(self):
        model = CostModel()
        llc = model.costs.llc_bytes
        assert model.miss_rate(0) == 0.0
        assert model.miss_rate(llc // 2) == 0.0
        assert model.miss_rate(2 * llc) == pytest.approx(0.5)
        assert model.miss_rate(100 * llc) == pytest.approx(0.99)

    def test_cache_miss_charged(self):
        ops = OpCounter()
        ops.counter_update(100)
        ops.packet(100)
        model = CostModel()
        resident = model.breakdown(ops, working_set_bytes=1024)
        thrashing = model.breakdown(ops, working_set_bytes=100 * model.costs.llc_bytes)
        assert thrashing.total() > resident.total()

    def test_capacity_inverse_to_cost(self):
        ops = OpCounter()
        ops.fixed(210.0)
        ops.packet(1)
        model = CostModel()
        # 210 cycles/packet at 2.1 GHz = 10 Mpps.
        assert model.capacity_mpps(ops) == pytest.approx(10.0)

    def test_cpu_share(self):
        ops = OpCounter()
        ops.fixed(210.0)
        ops.packet(1)
        model = CostModel()
        assert model.cpu_share_at_rate(ops, 5.0) == pytest.approx(0.5)

    def test_shares_sum_to_one(self):
        ops = OpCounter()
        ops.hash(5)
        ops.heap_op(2)
        ops.fixed(100)
        ops.packet(1)
        shares = CostModel().breakdown(ops).shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_custom_costs(self):
        model = CostModel(CycleCosts(hash=100.0))
        ops = OpCounter()
        ops.hash(1)
        ops.packet(1)
        assert model.breakdown(ops).hash == 100.0


class TestPipelines:
    def _batch(self, n=32, seed=0):
        rng = np.random.default_rng(seed)
        return Batch(
            keys=rng.integers(0, 1000, n),
            sizes=np.full(n, 64, dtype=np.int32),
            timestamps=np.linspace(0, 1e-5, n),
        )

    def test_platform_cost_ordering(self):
        """DPDK < OVS per packet; calibrated anchors hold."""
        model = CostModel()
        results = {}
        for pipeline in (DPDKForwarder(), OVSDPDKPipeline(), VPPPipeline(), BESSPipeline()):
            ops = OpCounter()
            # Warm the caches (flow-setup upcalls amortise away in any
            # real run), then measure steady state.
            for _ in range(5):
                pipeline.forward_batch(self._batch(), OpCounter())
            for _ in range(100):
                pipeline.forward_batch(self._batch(), ops)
            results[pipeline.name] = model.capacity_mpps(ops)
        assert 20 < results["ovs-dpdk"] < 25  # paper: ~22 Mpps
        assert 21 < results["dpdk"] < 26
        assert results["bess"] > results["ovs-dpdk"]

    def test_ovs_emc_hits_with_keyspace(self):
        pipeline = OVSDPDKPipeline(emc_key_space=2)
        ops = OpCounter()
        for i in range(10):
            pipeline.forward_batch(self._batch(seed=i), ops)
        assert pipeline.emc_misses <= 2
        assert pipeline.emc_hits > 300

    def test_ovs_emc_thrash_without_keyspace(self):
        pipeline = OVSDPDKPipeline(emc_entries=16, emc_key_space=None)
        ops = OpCounter()
        for i in range(20):
            pipeline.forward_batch(self._batch(seed=i), ops)
        assert pipeline.emc_misses > 100

    def test_ovs_reset(self):
        pipeline = OVSDPDKPipeline()
        pipeline.forward_batch(self._batch(), OpCounter())
        pipeline.reset()
        assert pipeline.emc_hits == 0
        assert pipeline.working_set_bytes() == 0

    def test_in_memory_is_free(self):
        ops = OpCounter()
        InMemoryPipeline().forward_batch(self._batch(), ops)
        assert ops.fixed_cycles == 0


class TestNIC:
    def test_xl710_small_packet_ceiling(self):
        # 64B at 40G would be 59.52 Mpps; the NIC caps at 42.
        assert XL710_40G.deliverable_mpps(64) == pytest.approx(42.0)

    def test_xl710_large_packets_line_rate(self):
        assert XL710_40G.deliverable_mpps(714) == pytest.approx(6.81, rel=0.01)

    def test_10g_line_rate(self):
        assert GENERIC_10G.deliverable_mpps(64) == pytest.approx(14.88, rel=0.01)

    def test_unlimited(self):
        assert UNLIMITED.deliverable_mpps(64) == float("inf")


class TestDaemonAndSimulator:
    def test_aio_slower_than_switch_alone(self):
        trace = min_sized_stress(5000, n_flows=500, seed=1)
        bare = SwitchSimulator(OVSDPDKPipeline()).run(trace, offered_gbps=40)
        daemon = MeasurementDaemon(
            TrackedSketch(CountSketch(5, 1024, 1), k=50),
            IntegrationMode.ALL_IN_ONE,
        )
        monitored = SwitchSimulator(OVSDPDKPipeline(), daemon).run(
            trace, offered_gbps=40
        )
        assert monitored.capacity_mpps < bare.capacity_mpps

    def test_separate_thread_mostly_preserves_switch(self):
        trace = min_sized_stress(5000, n_flows=500, seed=2)
        bare = SwitchSimulator(OVSDPDKPipeline()).run(trace, offered_gbps=40)
        daemon = MeasurementDaemon(
            nitro_countsketch(probability=0.01, seed=2),
            IntegrationMode.SEPARATE_THREAD,
        )
        monitored = SwitchSimulator(OVSDPDKPipeline(), daemon).run(
            trace, offered_gbps=40
        )
        assert monitored.capacity_mpps > 0.9 * bare.capacity_mpps

    def test_sampled_fraction_from_nitro(self):
        trace = min_sized_stress(5000, n_flows=500, seed=3)
        daemon = MeasurementDaemon(
            nitro_countsketch(probability=0.01, seed=3),
            IntegrationMode.SEPARATE_THREAD,
        )
        SwitchSimulator(OVSDPDKPipeline(), daemon).run(trace, offered_gbps=40)
        assert daemon.sampled_fraction() < 0.2

    def test_sampled_fraction_one_for_vanilla(self):
        trace = min_sized_stress(2000, n_flows=200, seed=4)
        daemon = MeasurementDaemon(
            TrackedSketch(CountSketch(3, 256, 4), k=10),
            IntegrationMode.SEPARATE_THREAD,
        )
        SwitchSimulator(OVSDPDKPipeline(), daemon).run(trace, offered_gbps=40)
        assert daemon.sampled_fraction() == 1.0

    def test_achieved_capped_by_nic(self):
        trace = min_sized_stress(5000, n_flows=500, seed=5)
        result = SwitchSimulator(InMemoryPipeline(), nic=GENERIC_10G).run(
            trace, offered_gbps=40
        )
        assert result.achieved_mpps <= GENERIC_10G.deliverable_mpps(64) + 1e-6

    def test_drop_fraction_when_overloaded(self):
        trace = min_sized_stress(5000, n_flows=500, seed=6)
        daemon = MeasurementDaemon(
            TrackedSketch(CountSketch(5, 1024, 6), k=50),
            IntegrationMode.ALL_IN_ONE,
        )
        result = SwitchSimulator(OVSDPDKPipeline(), daemon).run(trace, offered_gbps=40)
        assert result.drop_fraction > 0.5  # vanilla sketch can't do 59 Mpps

    def test_line_rate_for_caida_with_nitro(self):
        trace = caida_like(5000, n_flows=500, seed=7)
        daemon = MeasurementDaemon(
            nitro_countsketch(probability=0.01, seed=7),
            IntegrationMode.ALL_IN_ONE,
        )
        result = SwitchSimulator(OVSDPDKPipeline(), daemon).run(trace, offered_gbps=40)
        assert result.achieved_gbps == pytest.approx(40.0, rel=0.02)

    def test_summary_keys(self):
        trace = min_sized_stress(1000, n_flows=100, seed=8)
        result = SwitchSimulator(InMemoryPipeline()).run(trace, offered_gbps=40)
        summary = result.summary()
        assert "achieved_mpps" in summary
        assert "drop_fraction" in summary

    def test_daemon_reset(self):
        daemon = MeasurementDaemon(TrackedSketch(CountSketch(3, 256, 9), k=10))
        batch = Batch(
            keys=np.arange(10),
            sizes=np.full(10, 64, dtype=np.int32),
            timestamps=np.linspace(0, 1, 10),
        )
        daemon.ingest(batch)
        daemon.reset()
        assert daemon.packets_offered == 0
        assert daemon.ops.packets == 0


class _CountingMonitor(Monitor):
    """A free monitor so queue-drain timing measures the queue alone."""

    def __init__(self):
        self.packets = 0

    def update_batch(self, keys, weights=None, duration_seconds=None):
        self.packets += len(keys)

    def reset(self):
        self.packets = 0


class TestDaemonQueue:
    def _batch(self, start, n=10):
        keys = np.arange(start, start + n)
        return Batch(
            keys=keys,
            sizes=np.full(n, 64, dtype=np.int32),
            timestamps=np.zeros(n),
        )

    def test_drain_preserves_fifo_order_and_drop_accounting(self):
        """Regression for the deque switch: drain order, drop counting
        and queue invariants are exactly what the list gave."""
        monitor = _CountingMonitor()
        seen = []
        original = monitor.update_batch
        monitor.update_batch = lambda keys, **_: (seen.append(int(keys[0])), original(keys))
        daemon = MeasurementDaemon(monitor, queue_capacity=4)
        accepted = [daemon.enqueue(self._batch(i * 100)) for i in range(7)]
        assert accepted == [True] * 4 + [False] * 3
        assert daemon.batches_dropped == 3
        assert daemon.queue_depth == 4
        assert daemon.check_invariants() == []
        assert daemon.drain(2) == 2
        assert seen == [0, 100]  # strictly oldest-first
        assert daemon.drain() == 2
        assert seen == [0, 100, 200, 300]
        assert daemon.queue_depth == 0
        assert daemon.batches_dropped == 3  # drain never touches drops

    def test_drain_uses_deque_and_scales_linearly(self):
        """A 10k-batch backlog must drain in O(n): the old
        ``list.pop(0)`` loop was O(n^2) at service queue depths."""
        from collections import deque
        import timeit

        daemon = MeasurementDaemon(_CountingMonitor(), queue_capacity=50_000)
        assert isinstance(daemon._queue, deque)  # structural guarantee

        def backlog_drain_seconds(n_batches):
            daemon.reset()
            batch = self._batch(0, n=1)
            for _ in range(n_batches):
                daemon.enqueue(batch)
            seconds = timeit.timeit(daemon.drain, number=1)
            assert daemon.queue_depth == 0
            return seconds

        small = backlog_drain_seconds(2_000)
        large = backlog_drain_seconds(20_000)
        # Linear drain: 10x the backlog is ~10x the work.  The old
        # quadratic path is ~100x; 40x splits them with a wide margin
        # for timer noise on small absolute times.
        assert large < max(40 * small, 1.0)

    def test_reset_clears_queue(self):
        daemon = MeasurementDaemon(_CountingMonitor(), queue_capacity=8)
        daemon.enqueue(self._batch(0))
        daemon.reset()
        assert daemon.queue_depth == 0
        assert daemon.enqueue(self._batch(1))


class TestDaemonReset:
    def test_reset_rewinds_ingest_accounting_and_cadence(self, tmp_path):
        """Regression: reset must rewind ``batches_ingested`` and the
        checkpoint cadence counter -- stale values made a reset daemon
        checkpoint on the wrong schedule with pre-reset meta totals."""
        from repro.control.checkpoint import CheckpointManager
        from repro.traffic.replay import Replayer

        trace = caida_like(2000, n_flows=100, seed=6)
        batches = list(Replayer(trace, batch_size=500).batches())
        daemon = MeasurementDaemon(
            nitro_countsketch(probability=0.1, seed=6),
            checkpoints=CheckpointManager(str(tmp_path)),
            checkpoint_interval=3,
        )
        for batch in batches[:2]:
            daemon.ingest(batch)
        assert daemon.batches_ingested == 2
        daemon.reset()
        assert daemon.batches_ingested == 0
        assert daemon.packets_offered == 0
        assert daemon._batches_since_checkpoint == 0
        assert daemon.check_invariants() == []
        # The cadence restarts: two post-reset batches stay short of the
        # interval, the third triggers the first checkpoint, and its meta
        # reflects post-reset totals only.
        for batch in batches[:2]:
            daemon.ingest(batch)
        assert daemon.checkpoints.latest_sequence() is None
        daemon.ingest(batches[2])
        restored = daemon.checkpoints.restore_latest()
        assert restored is not None
        assert restored.meta["batches_ingested"] == 3
        assert restored.meta["packets_offered"] == 1500
