"""Shared pieces of the workloads: inputs, accuracy, latency, layer wiring."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Dict, List, Sequence

import numpy as np

from perfbench.ledger import Ledger, layer_times

#: Heavy flows (scored by ``hh_recall`` / ``hh_are``) are those above
#: this share of the stream.
HH_SHARE = 0.001

#: Keys per ``point`` query, in-process and over REST.
POINT_KEYS = 64

#: Where runs leave span JSONL, result records and checkpoints (inside
#: the checkout; listed in the root ``.gitignore``).
OUT_DIR = ".perfbench_out"


class CheckFailed(Exception):
    """A correctness check failed: the run exits non-zero, prints no result."""


class Ops:
    """Attempted / failed operation accounting behind ``ok_share``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def merge(self, other: "Ops") -> None:
        self.add(other.attempted, other.failed)

    def ok_share(self) -> float:
        if self.attempted <= 0:
            raise CheckFailed("no operation was attempted")
        return 1.0 - self.failed / self.attempted


def out_dir(root: str) -> str:
    path = os.path.join(root, OUT_DIR)
    os.makedirs(path, exist_ok=True)
    return path


def reset_rss_peak() -> None:
    """Restart this process's VmHWM from its current RSS.

    Called once inputs are built and set-up is done, so the peak read by
    :func:`rss_peak_mb` right after the timed part leaves out input
    generation and set-up temporaries.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def rss_peak_mb() -> float:
    """Peak resident set size (VmHWM) of this process, in MiB."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        raise CheckFailed("no samples for a percentile")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: Probe runs per second that normalized figures refer to: about what
#: one uncontended CPU of the 2-vCPU Xeon host the bounds were set on does.
REFERENCE_PROBE_HZ = 40.0

#: Measured time a :class:`Meter` segment spans before it is closed.
SEGMENT_SECONDS = 1.0


def pin_to_one_cpu() -> None:
    """Pin this process, and every process it starts later, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostSpeed:
    """How fast the host runs a fixed reference computation right now.

    On a shared host, other tenants of the same physical cores slow every
    computation by up to ~1.7x for stretches of tens of seconds, without
    any stolen time showing.  The probe -- a numpy hash, a scatter and an
    interpreted dict loop, like the program's own mix -- slows alike, so
    a rate times ``REFERENCE_PROBE_HZ / probe speed`` reads the same in
    a fast and a slow stretch.  Each CPU this process may run on (the
    measured work runs on the same ones) is probed in turn and the speeds
    averaged.
    """

    ROUNDS = 40

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 62, 1 << 16, dtype=np.int64)
        self._spread = np.int64(0x9E3779B97F4A7C15 - (1 << 64))
        self.cpus = sorted(os.sched_getaffinity(0))
        self.sample()
        self.last = self.sample()

    def _run_once(self) -> float:
        keys = self._keys
        start = time.perf_counter()
        for _ in range(self.ROUNDS):
            hashed = (keys * self._spread) ^ (keys >> 17)
            np.bincount(hashed & 4095, minlength=4096)
            table = {}
            for key in keys[:2000].tolist():
                table[key & 1023] = table.get(key & 1023, 0) + 1
        return 1.0 / (time.perf_counter() - start)

    def sample(self) -> float:
        """Mean probe runs per second over ``cpus``."""
        allowed = os.sched_getaffinity(0)
        speeds = []
        for cpu in self.cpus:
            if allowed != {cpu}:
                os.sched_setaffinity(0, {cpu})
            speeds.append(self._run_once())
        if os.sched_getaffinity(0) != allowed:
            os.sched_setaffinity(0, allowed)
        return float(np.mean(speeds))

    def restart(self) -> None:
        """Probe now: the next :meth:`scale` covers the time from here."""
        self.last = self.sample()

    def scale(self) -> float:
        """Reference over measured speed, around the stretch since the last probe."""
        before, self.last = self.last, self.sample()
        return 2.0 * REFERENCE_PROBE_HZ / (before + self.last)


class Meter:
    """Ingest rate at reference host speed: the median over ~1 s segments.

    Workloads add ``(packets, seconds)`` of each timed piece of work; a
    segment closes once it spans :data:`SEGMENT_SECONDS` of timed work,
    and its rate is scaled by the host probe taken around it.
    """

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.rates: List[float] = []
        self._packets = 0
        self._seconds = 0.0
        host.restart()

    def add(self, packets: int, seconds: float) -> None:
        self._packets += packets
        self._seconds += seconds
        if self._seconds >= SEGMENT_SECONDS:
            self.rates.append(self._packets / self._seconds / 1e6 * self.host.scale())
            self._packets, self._seconds = 0, 0.0

    def rate(self) -> float:
        if not self.rates:
            raise CheckFailed("no measured segment")
        return median(self.rates)


def steady_samples(segments) -> List[float]:
    """Latency samples from a run's undisturbed segments.

    ``segments`` holds ``(rate, samples)`` per measured segment.  Other
    tenants of a shared host slow ingest and every latency in a segment
    alike, so only the samples of segments that reached the run's median
    rate are kept.
    """
    cut = median([rate for rate, _ in segments])
    kept = [value for rate, samples in segments if rate >= cut for value in samples]
    if not kept:
        raise CheckFailed("no latency sample in the steady segments")
    return kept


def provenance(root: str, workload: str, seed: int, traced: bool) -> Dict:
    """Where and how a result was measured (printed before the result)."""
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "host_cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "loadavg_start": list(os.getloadavg()),
        "measured_not_modeled": True,
    }


# -- inputs ------------------------------------------------------------------------


def caida_keys(n_packets: int, n_flows: int, seed: int) -> np.ndarray:
    """Flow keys of a CAIDA-like trace made from ``seed``."""
    from repro.traffic.traces import caida_like

    return caida_like(n_packets, n_flows=n_flows, seed=seed).keys


def key_counts(keys: np.ndarray):
    """``(unique keys, counts)`` of a key array."""
    return np.unique(keys, return_counts=True)


def stream_counts(keys: np.ndarray, passes: int, prefix: int):
    """Exact counts of ``passes`` full replays of ``keys`` plus ``keys[:prefix]``."""
    unique, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    total = counts.astype(np.int64) * passes
    if prefix:
        total += np.bincount(inverse[:prefix], minlength=len(unique))
    return unique, total


# -- accuracy ----------------------------------------------------------------------


def heavy_flows(unique: np.ndarray, counts: np.ndarray):
    """True heavy flows: ``{key: count}`` above :data:`HH_SHARE` of the stream."""
    threshold = HH_SHARE * float(counts.sum())
    mask = counts > threshold
    return {int(k): int(c) for k, c in zip(unique[mask], counts[mask])}


def hh_scores(truth: Dict[int, int], reported: Sequence[int], estimates: Dict[int, float]):
    """``(recall, average relative error)`` over the true heavy flows."""
    if not truth:
        raise CheckFailed("the stream has no heavy flow to score")
    reported_set = set(int(k) for k in reported)
    recall = sum(1 for key in truth if key in reported_set) / len(truth)
    are = sum(abs(estimates[key] - count) / count for key, count in truth.items()) / len(truth)
    return recall, are


def score_monitor(monitor, unique, counts):
    """Heavy-flow recall and ARE of an in-process monitor vs exact counts."""
    truth = heavy_flows(unique, counts)
    threshold = HH_SHARE * float(counts.sum())
    reported = [key for key, _ in monitor.heavy_hitters(threshold)]
    estimates = {key: float(monitor.query(key)) for key in truth}
    return hh_scores(truth, reported, estimates)


# -- embedded query mix ---------------------------------------------------------------


class QueryProbe:
    """Closed-loop embedded query mix against a live monitor; latencies in ms.

    The same three queries the REST plane serves, through the library
    API an embedding caller uses: heavy hitters above 1% of traffic, a
    64-key point lookup, and the entropy estimate over tracked flows.
    Workloads issue a few after every measured segment, so the samples
    spread over the whole run instead of one moment of it.
    """

    def __init__(self, key_pool: np.ndarray, seed: int) -> None:
        self.key_pool = key_pool
        self.rng = np.random.default_rng(seed)
        self.latencies: List[float] = []

    def run(self, monitor, packets: int, n_queries: int) -> None:
        from repro.telemetry.anomaly import entropy_from_estimates

        for _ in range(n_queries):
            kind = len(self.latencies) % 3
            start = time.perf_counter()
            if kind == 0:
                answer = monitor.heavy_hitters(0.01 * packets)
            elif kind == 1:
                keys = self.key_pool[self.rng.integers(0, len(self.key_pool), POINT_KEYS)]
                answer = [float(monitor.query(int(k))) for k in keys]
            else:
                estimates = {k: e for k, e in monitor.top_items() if e > 0}
                answer = entropy_from_estimates(estimates, packets)
            self.latencies.append((time.perf_counter() - start) * 1e3)
            if answer is None:
                raise CheckFailed("embedded query returned nothing")


# -- layer wiring for traced runs -----------------------------------------------------


def _nitro_before(args, kwargs):
    nitro = args[0]
    exact = (not nitro.converged) or nitro.probability >= 1.0
    return nitro.packets_sampled, len(args[1]), exact


def _nitro_after(args, kwargs, token, result):
    sampled_before, count, exact = token
    return {
        "nitro.packets": count,
        "nitro.sampled_packets": args[0].packets_sampled - sampled_before,
        "nitro.exact_packets": count if exact else 0,
    }


def _queue_before(args, kwargs):
    return args[0].queue_depth


def _queue_after(args, kwargs, depth, result):
    return {"daemon.drain_calls": 1, "daemon.queue_depth.sum": depth,
            "max:daemon.queue_depth": depth}


def _checkpoint_after(args, kwargs, token, result):
    return {"checkpoint.bytes": os.path.getsize(result.path)} if result is not None else {}


def _dispatch_attrs(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs.get("path", "")
    query = args[2] if len(args) > 2 else kwargs.get("query", "")
    return {"endpoint": path.rsplit("/", 1)[-1], "query": query}


def install_layer_spans(ledger: Ledger) -> None:
    """Wrap each layer's public functions so every call records a span."""
    from repro.control import windows
    from repro.control.checkpoint import CheckpointManager
    from repro.core.nitro import NitroSketch
    from repro.service import records
    from repro.service.query import QueryRoutes
    from repro.service.tenants import TenantManager
    from repro.switchsim.daemon import MeasurementDaemon
    from repro.telemetry import Telemetry, alerts
    from repro.telemetry.anomaly import SketchAnomalyDetectors
    from repro.telemetry.audit import GuaranteeMonitor

    wrap = ledger.wrap
    wrap(MeasurementDaemon, "ingest", "daemon.ingest")
    wrap(MeasurementDaemon, "drain", "daemon.drain", before=_queue_before, after=_queue_after)
    wrap(MeasurementDaemon, "epoch_boundary", "daemon.epoch_boundary")
    wrap(MeasurementDaemon, "checkpoint", "daemon.checkpoint")
    wrap(NitroSketch, "update_batch", "nitro.update_batch", before=_nitro_before, after=_nitro_after)
    wrap(windows.SlidingWindowMonitor, "update_batch", "windows.update_batch")
    wrap(windows.SlidingWindowMonitor, "rotate", "windows.rotate")
    wrap(windows.SlidingWindowMonitor, "merged", "windows.merged")
    wrap(records, "decode_keys", "records.decode")
    wrap(TenantManager, "get_or_create", "tenants.get_or_create")
    wrap(TenantManager, "get", "tenants.get")
    wrap(QueryRoutes, "dispatch", "query.dispatch", attrs=_dispatch_attrs)
    wrap(GuaranteeMonitor, "observe_batch", "audit.observe_batch")
    wrap(GuaranteeMonitor, "check", "audit.check")
    wrap(SketchAnomalyDetectors, "observe_epoch", "anomaly.observe_epoch")
    wrap(alerts.AlertManager, "evaluate", "alerts.evaluate")
    wrap(alerts, "snapshot_of", "telemetry.snapshot")
    wrap(CheckpointManager, "save", "checkpoint.save", after=_checkpoint_after)
    wrap(Telemetry, "record_ops", "telemetry.record_ops")


def stage_profiler():
    """A fresh public ``StageProfiler`` timing every batch, and its sink."""
    from repro.telemetry import Telemetry
    from repro.telemetry.profile import StageProfiler

    sink = Telemetry()
    return StageProfiler(sink, sample_every=1), sink


def stage_totals(sink) -> Dict[str, float]:
    """Seconds per profiler stage recorded into ``sink``."""
    from repro.telemetry.profile import stage_summary

    return {stage: row["total"] for stage, row in stage_summary(sink.registry).items()}


def ops_per_packet(ops_list) -> Dict[str, float]:
    """Merged ``OpCounter`` categories per packet."""
    from repro.metrics.opcount import OpCounter

    merged = OpCounter()
    for ops in ops_list:
        merged.merge(ops)
    per = merged.per_packet()
    return {
        "ops.hash_per_pkt": per["hashes"],
        "ops.counter_update_per_pkt": per["counter_updates"],
        "ops.prng_per_pkt": per["prng_draws"],
        "ops.heap_op_per_pkt": per["heap_ops"],
        "ops.table_lookup_per_pkt": per["table_lookups"],
    }


def ledger_metrics(times: Dict[str, Dict[str, float]], counts: Dict[str, float],
                   stages: Dict[str, float]) -> Dict[str, float]:
    """The span-, count- and profiler-derived per-layer metrics."""

    def busy(name):
        return times.get(name, {}).get("busy", 0.0)

    def own(name):
        return times.get(name, {}).get("self", 0.0)

    packets = counts.get("nitro.packets", 0.0)
    drains = counts.get("daemon.drain_calls", 0.0)
    return {
        "nitro.update_batch.busy_s": busy("nitro.update_batch"),
        "nitro.geometric_skip.busy_s": stages.get("geometric_skip", 0.0),
        "nitro.exact_update.busy_s": stages.get("exact_update", 0.0),
        "nitro.topk_query.busy_s": stages.get("query", 0.0),
        "nitro.sampled_share": counts.get("nitro.sampled_packets", 0.0) / packets if packets else 0.0,
        "nitro.exact_share": counts.get("nitro.exact_packets", 0.0) / packets if packets else 0.0,
        "kernels.row_hash.busy_s": stages.get("row_hash", 0.0),
        "kernels.scatter.busy_s": stages.get("scatter", 0.0),
        "daemon.ingest.busy_s": busy("daemon.ingest"),
        "daemon.ingest.self_s": own("daemon.ingest"),
        "daemon.drain.busy_s": busy("daemon.drain"),
        "daemon.batches": times.get("daemon.ingest", {}).get("calls", 0.0),
        "daemon.queue_depth.max": counts.get("max:daemon.queue_depth", 0.0),
        "daemon.queue_depth.mean": counts.get("daemon.queue_depth.sum", 0.0) / drains if drains else 0.0,
        "windows.update_batch.self_s": own("windows.update_batch"),
        "windows.rotate.busy_s": busy("windows.rotate"),
        "windows.rotations": times.get("windows.rotate", {}).get("calls", 0.0),
        "windows.merged.busy_s": busy("windows.merged"),
        "records.decode.busy_s": busy("records.decode"),
        "records.frames": times.get("records.decode", {}).get("calls", 0.0),
        "tenants.lookup.busy_s": busy("tenants.get_or_create") + busy("tenants.get"),
        "query.dispatch.busy_s": busy("query.dispatch"),
        "audit.observe_batch.busy_s": busy("audit.observe_batch"),
        "audit.check.busy_s": busy("audit.check"),
        "anomaly.observe_epoch.busy_s": busy("anomaly.observe_epoch"),
        "alerts.evaluate.busy_s": busy("alerts.evaluate"),
        "telemetry.record_ops.busy_s": busy("telemetry.record_ops"),
        "telemetry.snapshot.busy_s": busy("telemetry.snapshot"),
        "checkpoint.save.busy_s": busy("checkpoint.save"),
        "checkpoint.saves": times.get("checkpoint.save", {}).get("calls", 0.0),
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0.0),
    }


def traced_layers(ledger: Ledger, stages_sink, ops_list) -> Dict[str, float]:
    """Every layer metric the in-process ledger can give."""
    metrics = ledger_metrics(layer_times(ledger.spans), ledger.counts, stage_totals(stages_sink))
    metrics.update(ops_per_packet(ops_list))
    return metrics


def dump_json(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=float)


def deadline_guard(deadline: float, what: str) -> None:
    """Fail the run (never report partial numbers) once a deadline passed."""
    if time.perf_counter() > deadline:
        raise CheckFailed("deadline passed during %s" % what)
