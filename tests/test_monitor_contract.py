"""Every public monitor class satisfies the one monitor contract.

Owners (the measurement daemon, the window ring, the auditor) call
``update(key, weight, timestamp=...)``,
``update_batch(keys, weights, duration_seconds=...)`` and
``query(key)`` on any monitor and read ``ops`` / ``telemetry`` /
``profiler`` / ``packets_sampled`` without probing for them first, so a
class that leaves ``Monitor``, drops one of those parameters or needs
more than the key to answer a point query breaks its owners.
"""

import inspect

import numpy as np
import pytest

from repro.baselines import (
    ElasticSketch,
    HashTableMonitor,
    HierarchicalHeavyHitters,
    NetFlowMonitor,
    NitroElasticSketch,
    RandomizedHHH,
    SFlowMonitor,
    SketchVisor,
)
from repro.control import KAryChangeMonitor, SlidingWindowMonitor
from repro.core import NitroSketch
from repro.core.univmon_nitro import NitroUnivMon
from repro.sketches import (
    ConservativeCountMinSketch,
    CountMinSketch,
    CountSketch,
    HeavyHitterSketch,
    KArySketch,
    MisraGries,
    Monitor,
    OneArrayCountSketch,
    SpaceSaving,
    TrackedSketch,
    UniformSampledSketch,
    UnivMon,
)

MONITOR_CLASSES = [
    CountMinSketch,
    ConservativeCountMinSketch,
    CountSketch,
    KArySketch,
    OneArrayCountSketch,
    SpaceSaving,
    MisraGries,
    HashTableMonitor,
    NitroSketch,
    TrackedSketch,
    UniformSampledSketch,
    UnivMon,
    NitroUnivMon,
    HeavyHitterSketch,
    ElasticSketch,
    NitroElasticSketch,
    SketchVisor,
    NetFlowMonitor,
    SFlowMonitor,
    HierarchicalHeavyHitters,
    RandomizedHHH,
    SlidingWindowMonitor,
    KAryChangeMonitor,
]


@pytest.mark.parametrize("cls", MONITOR_CLASSES, ids=lambda cls: cls.__name__)
def test_class_follows_monitor_contract(cls):
    assert issubclass(cls, Monitor)
    assert "timestamp" in inspect.signature(cls.update).parameters
    assert "duration_seconds" in inspect.signature(cls.update_batch).parameters
    # query(key) is the point query the inherited query_batch calls.
    _, _, *extra = inspect.signature(cls.query).parameters.values()
    assert all(p.default is not inspect.Parameter.empty for p in extra), extra


def test_default_batch_paths_feed_the_scalar_methods():
    monitor = HashTableMonitor()
    monitor.update_batch(np.array([1, 1, 2]), np.array([2.0, 3.0, 1.0]), 0.5)
    monitor.update_batch(np.array([2, 3]))
    assert monitor.query_batch(np.array([1, 2, 3, 4])).tolist() == [5.0, 2.0, 1.0, 0.0]
    assert monitor.packets_sampled is None
    assert monitor.check_invariants() == []
