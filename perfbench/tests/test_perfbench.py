"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import common  # noqa: E402
from perfbench.ledger import Ledger, Span, layer_times, self_seconds, union_length  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _span(index, parent, name, start, end, thread=1):
    return Span(str(index), parent, name, thread, start, end)


def test_union_length_merges_overlaps():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_overlapping_children_once():
    parent = _span(1, None, "daemon.ingest", 0.0, 10.0)
    children = [
        _span(2, "1", "nitro.update_batch", 1.0, 4.0),
        _span(3, "1", "audit.check", 3.0, 6.0),
        _span(4, "1", "checkpoint.save", 8.0, 12.0),
    ]
    # The children cover [1, 6] and [8, 10] of the parent: 7 of its 10 s.
    assert self_seconds(parent, children) == pytest.approx(3.0)
    times = layer_times([parent] + children)
    assert times["daemon.ingest"]["self"] == pytest.approx(3.0)
    assert times["daemon.ingest"]["busy"] == pytest.approx(10.0)
    assert times["checkpoint.save"]["busy"] == pytest.approx(4.0)


def test_busy_time_counts_nested_same_name_once_per_thread():
    spans = [
        _span(1, None, "windows.merged", 0.0, 4.0),
        _span(2, "1", "windows.merged", 1.0, 2.0),
        _span(3, None, "windows.merged", 1.0, 3.0, thread=2),
    ]
    times = layer_times(spans)
    assert times["windows.merged"]["busy"] == pytest.approx(6.0)
    assert times["windows.merged"]["calls"] == 3


def test_ledger_wrap_records_parentage_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    original = Layer.__dict__["outer"]
    ledger = Ledger()
    ledger.wrap(Layer, "outer", "layer.outer")
    ledger.wrap(Layer, "inner", "layer.inner", after=lambda a, k, t, result: {"answers": result})
    assert Layer().outer() == 42
    ledger.close()
    assert Layer.__dict__["outer"] is original
    inner, outer = ledger.spans
    assert inner.parent_id == outer.span_id and outer.parent_id is None
    assert ledger.counts["answers"] == 41


class DroppingMonitor:
    """A monitor that silently loses its second batch."""

    def __init__(self, inner):
        self.__dict__.update(inner=inner, calls=0)

    def update_batch(self, keys, *args, **kwargs):
        self.__dict__["calls"] += 1
        if self.calls != 2:
            self.inner.update_batch(keys, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __setattr__(self, name, value):
        setattr(self.inner, name, value)


class _SlowHost:
    """A host probe that always reads half the reference speed."""

    def restart(self):
        pass

    def scale(self):
        return 2.0


def test_meter_scales_each_segment_by_the_host_probe():
    meter = common.Meter(_SlowHost())
    meter.add(500_000, 0.6)
    assert meter.rates == []
    meter.add(500_000, 0.4)
    meter.add(3_000_000, 1.0)
    assert meter.rates == pytest.approx([2.0, 6.0])
    assert meter.rate() == pytest.approx(4.0)


def test_meter_without_a_segment_fails_the_run():
    with pytest.raises(common.CheckFailed):
        common.Meter(_SlowHost()).rate()


def test_conservation_check_trips_on_a_silently_dropped_batch():
    from perfbench.workloads import embed
    from repro.service import records
    from repro.service.tenants import ServiceConfig
    from repro.switchsim.daemon import MeasurementDaemon

    keys = common.caida_keys(4 * 4096, 1000, seed=1)

    def feed(monitor):
        daemon = MeasurementDaemon(monitor)
        for start in range(0, len(keys), 4096):
            daemon.ingest(records.batch_from_keys(keys[start:start + 4096]))
        return daemon

    embed.check_conservation(feed(ServiceConfig().build_monitor("t")), len(keys))
    with pytest.raises(common.CheckFailed, match="monitor ingested"):
        embed.check_conservation(feed(DroppingMonitor(ServiceConfig().build_monitor("t"))), len(keys))


def test_served_conservation_check_trips_on_lost_packets():
    from perfbench.workloads import served

    row = {"packets_ingested": 1024, "packets_accepted": 1024, "batches_dropped": 0, "queue_depth": 0}
    served.check_conservation({"a": dict(row)}, {"a": 1024})
    with pytest.raises(common.CheckFailed):
        served.check_conservation({"a": dict(row, packets_ingested=512)}, {"a": 1024})


def test_detection_requires_a_fire_and_a_resolve_per_episode():
    from perfbench.workloads import epoch

    assert epoch.detection_lags([(11, "pending"), (12, "firing"), (19, "resolved")], 24) == [4]
    with pytest.raises(common.CheckFailed):
        epoch.detection_lags([(11, "pending"), (12, "firing")], 24)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in wanted
    }
    if trace:
        out = os.path.join(ROOT, common.OUT_DIR)
        assert any(
            name.startswith("%s-s3-traced-" % workload) and name.endswith("spans.jsonl")
            for name in os.listdir(out)
        )


def test_helper_processes_are_stopped_and_reaped():
    from multiprocessing import resource_tracker, shared_memory

    from perfbench.run import stop_helper_processes

    block = shared_memory.SharedMemory(create=True, size=8)
    block.close()
    block.unlink()
    tracker_pid = resource_tracker._resource_tracker._pid
    assert tracker_pid is not None
    stop_helper_processes()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(tracker_pid, os.WNOHANG)


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = _run(str(tmp_path), "embed-caida", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
