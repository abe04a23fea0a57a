"""Tests for the baseline systems (hashtable, SketchVisor, ElasticSketch,
NetFlow/sFlow, R-HHH)."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    ElasticSketch,
    HashTableMonitor,
    HierarchicalHeavyHitters,
    NetFlowMonitor,
    RandomizedHHH,
    SFlowMonitor,
    SketchVisor,
)
from repro.baselines.rhhh import prefix_of
from repro.sketches import UnivMon
from repro.traffic import zipf_keys

KEY_LISTS = st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300)


class TestHashTable:
    @given(KEY_LISTS)
    @settings(max_examples=50)
    def test_exact(self, keys):
        table = HashTableMonitor()
        for key in keys:
            table.update(key)
        truth = Counter(keys)
        for key, count in truth.items():
            assert table.query(key) == count
        assert table.flow_count() == len(truth)

    def test_memory_grows_with_flows(self):
        table = HashTableMonitor()
        for key in range(1000):
            table.update(key)
        assert table.memory_bytes() == 1000 * 32

    def test_heavy_hitters_exact_and_sorted(self):
        table = HashTableMonitor()
        for key, reps in ((1, 50), (2, 30), (3, 5)):
            for _ in range(reps):
                table.update(key)
        hitters = table.heavy_hitters(10)
        assert hitters == [(1, 50.0), (2, 30.0)]

    def test_reset(self):
        table = HashTableMonitor()
        table.update(1)
        table.reset()
        assert table.flow_count() == 0


class TestSketchVisor:
    def test_fast_path_residual_is_lower_bound(self):
        sv = SketchVisor(fast_entries=16, fast_fraction=1.0, seed=1)
        keys = zipf_keys(5000, 300, 1.2, seed=1)
        for key in keys.tolist():
            sv.update(key)
        truth = Counter(keys.tolist())
        for key in truth:
            entry = sv.fast_entry(key)
            if entry is not None:
                assert entry.guaranteed() <= truth[key] + 1e-9
                assert entry.estimate() <= truth[key] + entry.max_error

    def test_dominant_flow_tracked(self):
        sv = SketchVisor(fast_entries=8, fast_fraction=1.0, seed=2)
        keys = [1] * 2000 + list(range(2, 500))
        for key in keys:
            sv.update(key)
        assert sv.query(1) == pytest.approx(2000, rel=0.2)

    def test_fraction_zero_uses_normal_path_only(self):
        sv = SketchVisor(fast_entries=8, fast_fraction=0.0, seed=3)
        for _ in range(100):
            sv.update(5)
        assert sv.fast_packets == 0
        assert sv.normal_packets == 100
        assert sv.query(5) == pytest.approx(100, rel=0.3)

    def test_fraction_routing(self):
        sv = SketchVisor(fast_entries=64, fast_fraction=0.5, seed=4)
        for key in range(10000):
            sv.update(key)
        assert sv.fast_packets == pytest.approx(5000, rel=0.1)
        assert sv.fast_packets + sv.normal_packets == 10000

    def test_merge_combines_paths(self):
        sv = SketchVisor(
            fast_entries=32,
            normal_path=UnivMon(levels=4, depth=5, widths=1024, k=50, seed=5),
            fast_fraction=0.5,
            seed=5,
        )
        for _ in range(4000):
            sv.update(9)
        # Both paths saw ~2000 each; the merge must restore ~4000.
        assert sv.query(9) == pytest.approx(4000, rel=0.25)

    def test_heavy_hitters_gated_on_guarantee(self):
        sv = SketchVisor(fast_entries=4, fast_fraction=1.0, seed=6)
        # Churn: many singletons after a real heavy flow.
        for _ in range(1000):
            sv.update(1)
        for key in range(100, 1100):
            sv.update(key)
        hitters = dict(sv.heavy_hitters(threshold=500))
        assert set(hitters) == {1}

    def test_validation(self):
        with pytest.raises(ValueError):
            SketchVisor(fast_entries=0)
        with pytest.raises(ValueError):
            SketchVisor(fast_fraction=1.5)

    def test_reset(self):
        sv = SketchVisor(fast_entries=8, seed=7)
        sv.update(1)
        sv.reset()
        assert sv.fast_packets == 0
        assert sv.query(1) == 0.0


class TestElasticSketch:
    def test_heavy_flow_exact_in_heavy_part(self):
        es = ElasticSketch(heavy_buckets=1024, light_counters=4096, seed=1)
        for _ in range(500):
            es.update(7)
        assert es.query(7) == pytest.approx(500, abs=1)

    def test_eviction_moves_count_to_light(self):
        es = ElasticSketch(heavy_buckets=1, light_counters=64, vote_threshold=2, seed=2)
        for _ in range(10):
            es.update(1)
        for _ in range(100):
            es.update(2)  # votes against 1, eventually evicts it
        total = es.query(1) + es.query(2)
        assert total == pytest.approx(110, rel=0.15)

    def test_distinct_estimate_accurate_when_unsaturated(self):
        es = ElasticSketch(heavy_buckets=512, light_counters=16384, seed=3)
        for key in range(2000):
            es.update(key)
        assert es.distinct_estimate() == pytest.approx(2000, rel=0.15)

    def test_distinct_overflows_on_saturation(self):
        es = ElasticSketch(heavy_buckets=16, light_counters=128, seed=4)
        for key in range(20000):
            es.update(key)
        assert es.distinct_estimate() == math.inf

    def test_entropy_degrades_with_flows(self):
        from repro.metrics.accuracy import empirical_entropy, relative_error

        few = ElasticSketch(heavy_buckets=256, light_counters=8192, seed=5)
        many = ElasticSketch(heavy_buckets=256, light_counters=8192, seed=5)
        keys_few = zipf_keys(20000, 1000, 0.8, seed=5)
        keys_many = zipf_keys(40000, 30000, 0.4, seed=5)
        few.update_many(keys_few.tolist())
        many.update_many(keys_many.tolist())
        err_few = relative_error(
            few.entropy_estimate(), empirical_entropy(Counter(keys_few.tolist()))
        )
        err_many = relative_error(
            many.entropy_estimate(), empirical_entropy(Counter(keys_many.tolist()))
        )
        assert err_many > err_few

    def test_with_memory_sizing(self):
        es = ElasticSketch.with_memory(2_700_000)
        assert es.memory_bytes() == pytest.approx(2_700_000, rel=0.01)

    def test_heavy_hitters_sorted(self):
        es = ElasticSketch(heavy_buckets=4096, light_counters=16384, seed=6)
        keys = zipf_keys(20000, 500, 1.3, seed=6)
        es.update_many(keys.tolist())
        estimates = [est for _, est in es.heavy_hitters(50)]
        assert estimates == sorted(estimates, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticSketch(heavy_buckets=0)
        with pytest.raises(ValueError):
            ElasticSketch(vote_threshold=0)

    def test_reset(self):
        es = ElasticSketch(heavy_buckets=64, light_counters=256, seed=7)
        es.update(1)
        es.reset()
        assert es.query(1) == 0.0
        assert es.total == 0.0


class TestNetFlow:
    def test_scaled_estimates_unbiased(self):
        nf = NetFlowMonitor(0.1, seed=1)
        for _ in range(50000):
            nf.update(3)
        assert nf.query(3) == pytest.approx(50000, rel=0.1)

    def test_unsampled_flow_invisible(self):
        nf = NetFlowMonitor(0.01, seed=2)
        nf.update(5)  # one packet at 1% sampling: almost surely missed
        # Either missed entirely or scaled to 100; both are valid NetFlow.
        assert nf.query(5) in (0.0, 100.0)

    def test_recall_improves_with_rate(self):
        keys = zipf_keys(100000, 5000, 1.1, seed=3)
        truth = Counter(keys.tolist())
        top100 = {key for key, _ in truth.most_common(100)}
        recalls = []
        for rate in (0.001, 0.01, 0.1):
            nf = NetFlowMonitor(rate, seed=3)
            nf.update_batch(keys)
            found = {key for key, _ in nf.heavy_hitters(0.0)[:100]}
            recalls.append(len(found & top100) / 100)
        assert recalls[0] <= recalls[1] <= recalls[2]

    def test_memory_counts_records(self):
        nf = NetFlowMonitor(1.0, seed=4)
        for key in range(100):
            nf.update(key)
        assert nf.memory_bytes() == 100 * 48

    def test_batch_matches_scalar_statistics(self):
        keys = zipf_keys(50000, 2000, 1.2, seed=5)
        scalar = NetFlowMonitor(0.05, seed=5)
        batch = NetFlowMonitor(0.05, seed=5)
        for key in keys.tolist():
            scalar.update(key)
        batch.update_batch(keys)
        assert batch.packets_sampled == pytest.approx(scalar.packets_sampled, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetFlowMonitor(0.0)

    def test_sflow_collector_aggregation(self):
        sf = SFlowMonitor(0.5, seed=6)
        for _ in range(10000):
            sf.update(9)
        assert sf.query(9) == pytest.approx(10000, rel=0.1)
        assert 9 in sf.recorded_flows()

    def test_sflow_reset(self):
        sf = SFlowMonitor(0.5, seed=7)
        sf.update(1)
        sf.reset()
        assert sf.packets_seen == 0
        assert sf.query(1) == 0.0


class TestHHH:
    def test_prefix_masking(self):
        address = 0xC0A80101  # 192.168.1.1
        assert prefix_of(address, 8) == 0xC0000000
        assert prefix_of(address, 16) == 0xC0A80000
        assert prefix_of(address, 24) == 0xC0A80100
        assert prefix_of(address, 32) == address
        assert prefix_of(address, 0) == 0

    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            prefix_of(1, 33)

    def test_deterministic_hhh_counts_all_levels(self):
        hhh = HierarchicalHeavyHitters(counters_per_level=64)
        base = 0x0A000000  # 10.0.0.0/8 subtree
        for host in range(200):
            hhh.update(base | host)
        # The /8 prefix aggregates everything.
        assert hhh.query(base, 8) == pytest.approx(200, rel=0.1)
        # The point query reads the longest level, so the inherited
        # query_batch works (it used to need a prefix length).
        assert hhh.query_batch([base | 7]).tolist() == [hhh.query(base | 7, 32)]

    def test_randomized_hhh_scaled_estimates(self):
        rhhh = RandomizedHHH(counters_per_level=256, seed=1)
        base = 0x0A000000
        for _ in range(40000):
            rhhh.update(base | 1)
        # Each level sees ~1/4 of packets; scaling by 4 restores totals.
        assert rhhh.query(base | 1, 32) == pytest.approx(40000, rel=0.15)
        assert rhhh.query(base, 8) == pytest.approx(40000, rel=0.15)

    def test_heavy_prefixes_detects_subnet(self):
        rhhh = RandomizedHHH(counters_per_level=128, seed=2)
        rng = np.random.default_rng(2)
        # 60% of traffic from 10.1.0.0/16, rest scattered.
        for _ in range(12000):
            if rng.random() < 0.6:
                rhhh.update(0x0A010000 | int(rng.integers(0, 2**16)))
            else:
                rhhh.update(int(rng.integers(0, 2**32)))
        heavy = rhhh.heavy_prefixes(0.3)
        prefixes = {(prefix, length) for prefix, length, _ in heavy}
        assert (0x0A010000, 16) in prefixes

    def test_ops_single_level_per_packet(self):
        from repro.metrics.opcount import OpCounter

        rhhh = RandomizedHHH(counters_per_level=64, seed=3)
        ops = OpCounter()
        rhhh.ops = ops
        for _ in range(1000):
            rhhh.update(0x0A000001)
        assert ops.packets == 1000
        # One MG update per packet (R-HHH's O(1) claim), not one per level.
        assert ops.table_lookups <= 1100

    def test_reset(self):
        rhhh = RandomizedHHH(counters_per_level=16, seed=4)
        rhhh.update(1)
        rhhh.reset()
        assert rhhh.total == 0.0


class TestNetFlowTimeouts:
    def test_inactive_timeout_exports(self):
        nf = NetFlowMonitor(1.0, seed=20, inactive_timeout=1.0)
        nf.update(1, timestamp=0.0)
        nf.update(2, timestamp=5.0)  # flow 1 idle for 5s -> exported
        assert len(nf.exported) == 1
        assert nf.exported[0].key == 1
        assert nf.query(1) == 0.0  # record left the cache

    def test_active_timeout_exports_busy_flow(self):
        nf = NetFlowMonitor(1.0, seed=21, active_timeout=2.0)
        for tick in range(5):
            nf.update(7, timestamp=float(tick))
        # The flow never went idle, but crossed the 2s active timeout.
        assert any(record.key == 7 for record in nf.exported)

    def test_no_timeouts_no_expiry(self):
        nf = NetFlowMonitor(1.0, seed=22)
        nf.update(1, timestamp=0.0)
        nf.update(2, timestamp=1e9)
        assert nf.exported == []
        assert nf.query(1) == 1.0

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            NetFlowMonitor(0.5, inactive_timeout=0)

    def test_expired_record_resumes_as_new(self):
        nf = NetFlowMonitor(1.0, seed=23, inactive_timeout=1.0)
        nf.update(1, timestamp=0.0)
        nf.update(2, timestamp=10.0)   # expires flow 1
        nf.update(1, timestamp=10.5)   # flow 1 returns
        assert nf.query(1) == 1.0      # fresh record, not the old count
        assert len(nf.exported) == 1
