"""The parallel ingest engine: multiprocess workers over RSS shards.

This is the repo's real multi-core data plane.  ``N`` worker processes
each own one RSS flow-hash shard of a trace and ingest it through the
same fused batch kernels the single-core path uses; per epoch, each
worker publishes a CRC-checked NSKW frame through its lock-free
:class:`~repro.parallel.mailbox.EpochMailbox`, and the parent merges the
shards into one monitor -- the paper's control plane "periodically
receives sketching data from the data plane module" (Section 6), here
with the data plane actually spread across processes.

Two strategies, both verified against an in-process sequential oracle
(:meth:`ParallelIngestEngine.run_sequential`):

``merge``
    Each worker runs a *private* monitor and ships its full serialized
    state per epoch; the parent merges via the bit-exact-verified
    ``merge`` methods.  Deterministic: parallel output is byte-identical
    to the sequential oracle, independent of scheduling, because every
    worker's sampler stream is private and derived from (seed, shard).

``shared``
    Workers scatter-add into per-worker counter banks inside one
    ``multiprocessing.shared_memory`` block (each worker owns a disjoint
    bank, so no locks and no atomics are needed); the parent combines
    with ``banks.sum(axis=0)``.  For vanilla sketches this is bit-exact
    against a single sketch over the whole trace (integral float64 adds
    commute exactly below 2**53); for NitroSketch it lands inside the
    Theorem-2 envelope.  Epoch frames carry metadata only, so the
    hand-off cost is independent of sketch size.

Fault handling: a worker that dies mid-epoch (any nonzero exit) is
respawned -- from its last published frame under ``merge`` (bit-exact
resume, the frame *is* a checkpoint) or from a zeroed bank under
``shared`` (exact replay of its shard) -- and a frame whose CRC fails
raises :class:`ShardCorruptionError` rather than merging garbage.

Throughput accounting is honest about the host (see
:class:`ParallelRunResult`): per-worker busy time is measured with both
wall and CPU clocks, and the aggregate-of-shards rate is reported next
to the end-to-end wall rate instead of being passed off as it.
"""

from __future__ import annotations

import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.control.export import deserialize_epoch_frame, serialize_epoch_frame
from repro.faults.inject import FrameCorruptionPlan, WorkerCrashPlan, flip_bytes
from repro.kernels.scatter import shared_counter_banks
from repro.parallel.mailbox import (
    EpochMailbox,
    MailboxTimeout,
    attach_block,
    create_block,
    parallel_unavailable_reason,
)
from repro.parallel.shard import MERGE_SHARD, epoch_bounds, rss_assignments
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.profile import NULL_PROFILER
from repro.telemetry.spans import Span, make_span_id, make_trace_id

STRATEGIES = ("merge", "shared")


class WorkerCrashError(RuntimeError):
    """A worker died and the restart budget is exhausted."""

    def __init__(self, worker: int, exitcode: Optional[int], restarts: int) -> None:
        super().__init__(
            "worker %d died (exit code %r) after %d restart(s); restart "
            "budget exhausted" % (worker, exitcode, restarts)
        )
        self.worker = worker
        self.exitcode = exitcode
        self.restarts = restarts


class ShardCorruptionError(RuntimeError):
    """A worker's epoch frame failed validation; its shard is suspect."""

    def __init__(self, worker: int, epoch: int, reason: str) -> None:
        super().__init__(
            "corrupt epoch frame from worker %d at epoch %d: %s"
            % (worker, epoch, reason)
        )
        self.worker = worker
        self.epoch = epoch


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs, picklable under ``spawn``."""

    factory: Callable[[int], Any]
    worker: int
    workers: int
    strategy: str
    keys_name: str
    assign_name: str
    n_packets: int
    mailbox_name: str
    mailbox_capacity: int
    batch_size: int
    epoch_packets: Optional[int]
    reset_per_epoch: bool
    depth: int
    width: int
    bank_name: Optional[str] = None
    start_epoch: int = 0
    resume_frame: Optional[bytes] = None
    crash_plan: Optional[WorkerCrashPlan] = None
    corruption_plan: Optional[FrameCorruptionPlan] = None
    publish_timeout: float = 120.0
    #: Stable identity of the run; each epoch's trace id is derived from
    #: it, so a respawned worker reproduces its predecessor's span ids.
    trace_parts: Optional[Tuple] = None


def _fresh_stats() -> Dict[str, float]:
    return {
        "packets": 0,
        "batches": 0,
        "busy_wall": 0.0,
        "busy_cpu": 0.0,
        "publish_wait": 0.0,
    }


def _stats_from_meta(meta: Dict[str, Any]) -> Dict[str, float]:
    return {
        "packets": int(meta.get("packets_total", 0)),
        "batches": int(meta.get("batches_total", 0)),
        "busy_wall": float(meta.get("busy_wall_seconds", 0.0)),
        "busy_cpu": float(meta.get("busy_cpu_seconds", 0.0)),
        "publish_wait": float(meta.get("publish_wait_seconds", 0.0)),
    }


def _epoch_shard_keys(
    keys: "np.ndarray",
    assignments: "np.ndarray",
    worker: int,
    bounds: Tuple[int, int],
) -> "np.ndarray":
    start, stop = bounds
    window = keys[start:stop]
    return window[assignments[start:stop] == worker]


def _ingest_epoch(
    monitor,
    shard_keys: "np.ndarray",
    batch_size: int,
    stats: Dict[str, float],
    crash_at_batch: Optional[int] = None,
    crash_exit_code: int = 0,
) -> None:
    """Ingest one epoch's shard in batches, timing only the ingest.

    Shared verbatim by worker processes and the sequential oracle so the
    two paths perform the *same* ``update_batch`` call sequence -- the
    bit-exactness claim rests on that.  ``crash_at_batch`` (fault
    injection) hard-exits before that batch runs; a value past the last
    batch crashes after ingest but before the frame is published.
    """
    n = len(shard_keys)
    batches = int(math.ceil(n / batch_size)) if n else 0
    for index in range(batches):
        if crash_at_batch is not None and index == crash_at_batch:
            os._exit(crash_exit_code)
        chunk = shard_keys[index * batch_size : (index + 1) * batch_size]
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        monitor.update_batch(chunk)
        stats["busy_wall"] += time.perf_counter() - wall0
        stats["busy_cpu"] += time.process_time() - cpu0
        stats["packets"] += len(chunk)
        stats["batches"] += 1
    if crash_at_batch is not None and crash_at_batch >= batches:
        os._exit(crash_exit_code)


def _owned_sketch(monitor):
    """The canonical sketch whose counter grid a monitor owns."""
    return monitor.sketch if hasattr(monitor, "sketch") else monitor


def _frame_meta(
    worker: int,
    epoch: int,
    n_epochs: int,
    packets_epoch: int,
    stats: Dict[str, float],
    monitor,
    strategy: str,
) -> Dict[str, Any]:
    meta: Dict[str, Any] = {
        "worker": worker,
        "epoch": epoch,
        "epochs": n_epochs,
        "packets_epoch": int(packets_epoch),
        "packets_total": int(stats["packets"]),
        "batches_total": int(stats["batches"]),
        "busy_wall_seconds": float(stats["busy_wall"]),
        "busy_cpu_seconds": float(stats["busy_cpu"]),
        "publish_wait_seconds": float(stats.get("publish_wait", 0.0)),
        "final": epoch == n_epochs - 1,
    }
    if strategy == "shared":
        # Counter state travels through the shared banks; everything the
        # merge base cannot recover from counters rides in the meta.
        sketch = _owned_sketch(monitor)
        if hasattr(sketch, "total"):
            meta["sketch_total"] = float(sketch.total)
        if monitor.packets_sampled is not None:
            meta["packets_sampled"] = int(monitor.packets_sampled)
        topk = getattr(monitor, "topk", None)
        if topk is not None:
            meta["topk_keys"] = [int(key) for key in topk.keys()]
    return meta


def _worker_main(spec: WorkerSpec) -> None:
    """Process entry point: ingest my shard, publish per-epoch frames."""
    keys_shm = assign_shm = bank_shm = mailbox = None
    try:
        keys_shm = attach_block(spec.keys_name)
        assign_shm = attach_block(spec.assign_name)
        keys = np.frombuffer(keys_shm.buf, dtype=np.int64, count=spec.n_packets)
        assignments = np.frombuffer(
            assign_shm.buf, dtype=np.uint8, count=spec.n_packets
        )
        mailbox = EpochMailbox.attach(spec.mailbox_name, spec.mailbox_capacity)

        if spec.resume_frame is not None:
            meta, monitor = deserialize_epoch_frame(spec.resume_frame)
            if monitor is None:
                raise RuntimeError("resume frame carries no monitor state")
            stats = _stats_from_meta(meta)
        else:
            monitor = spec.factory(spec.worker)
            stats = _fresh_stats()

        if spec.strategy == "shared":
            bank_shm = attach_block(spec.bank_name)
            banks = shared_counter_banks(
                bank_shm.buf, spec.workers, spec.depth, spec.width
            )
            bank = banks[spec.worker]
            sketch = _owned_sketch(monitor)
            if sketch.counters.shape != bank.shape:
                raise RuntimeError(
                    "factory sketch is %r, bank is %r"
                    % (sketch.counters.shape, bank.shape)
                )
            # Own my bank: zero it (a respawn replays from scratch) and
            # rebind the counter grid so every scatter-add of the fused
            # kernels lands in shared memory.  Bank slices of the 3-D
            # block are C-contiguous, so the flat fast path survives.
            bank[:] = 0.0
            sketch.counters = bank

        bounds = epoch_bounds(spec.n_packets, spec.epoch_packets)
        n_epochs = len(bounds)
        # The publish span of epoch e is only measurable after e's frame
        # left; it rides in frame e+1 (the final epoch's is never shipped).
        pending_publish_span: Optional[Dict[str, Any]] = None
        for epoch in range(spec.start_epoch, n_epochs):
            shard_keys = _epoch_shard_keys(
                keys, assignments, spec.worker, bounds[epoch]
            )
            crash_at = None
            exit_code = 0
            plan = spec.crash_plan
            if plan is not None and plan.worker == spec.worker and plan.epoch == epoch:
                batches = int(math.ceil(len(shard_keys) / spec.batch_size))
                crash_at = int(batches * plan.fraction)
                exit_code = plan.exit_code
            ingest_wall0 = time.time()
            ingest_perf0 = time.perf_counter()
            _ingest_epoch(
                monitor, shard_keys, spec.batch_size, stats, crash_at, exit_code
            )
            ingest_duration = time.perf_counter() - ingest_perf0
            meta = _frame_meta(
                spec.worker,
                epoch,
                n_epochs,
                len(shard_keys),
                stats,
                monitor,
                spec.strategy,
            )
            trace_id = ingest_span_id = None
            if spec.trace_parts is not None:
                trace_id = make_trace_id(*spec.trace_parts, epoch)
                epoch_span_id = make_span_id(trace_id, "epoch")
                ingest_span_id = make_span_id(trace_id, "worker.ingest", spec.worker)
                spans = [
                    Span(
                        trace_id=trace_id,
                        span_id=ingest_span_id,
                        parent_id=epoch_span_id,
                        name="worker.ingest",
                        start=ingest_wall0,
                        duration=ingest_duration,
                        fields={
                            "worker": spec.worker,
                            "shard": spec.worker,
                            "epoch": epoch,
                            "packets": int(len(shard_keys)),
                        },
                    ).as_dict()
                ]
                if pending_publish_span is not None:
                    spans.append(pending_publish_span)
                meta["trace"] = {
                    "trace_id": trace_id,
                    "epoch_span_id": epoch_span_id,
                    "span_id": ingest_span_id,
                    "spans": spans,
                }
            payload = serialize_epoch_frame(
                meta, monitor if spec.strategy == "merge" else None
            )
            corruption = spec.corruption_plan
            if (
                corruption is not None
                and corruption.worker == spec.worker
                and corruption.epoch == epoch
            ):
                payload = flip_bytes(payload, corruption.count, corruption.seed)
            publish_wall0 = time.time()
            publish_perf0 = time.perf_counter()
            waited = mailbox.publish(
                payload,
                epoch,
                final=(epoch == n_epochs - 1),
                timeout=spec.publish_timeout,
            )
            stats["publish_wait"] += waited
            if trace_id is not None:
                pending_publish_span = Span(
                    trace_id=trace_id,
                    span_id=make_span_id(trace_id, "mailbox.publish", spec.worker),
                    parent_id=ingest_span_id,
                    name="mailbox.publish",
                    start=publish_wall0,
                    duration=time.perf_counter() - publish_perf0,
                    fields={
                        "worker": spec.worker,
                        "epoch": epoch,
                        "wait_seconds": round(waited, 6),
                    },
                ).as_dict()
            if spec.strategy == "merge" and spec.reset_per_epoch:
                monitor.reset()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        sys.stderr.flush()
        os._exit(1)
    # Hard-exit instead of returning: under fork the child inherited the
    # parent's SharedMemory handles and numpy views, and interpreter
    # shutdown would trip over their __del__ (exported buffer pointers).
    # The kernel reclaims every mapping on exit; nothing needs closing.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


# ---------------------------------------------------------------------------
# Results.
# ---------------------------------------------------------------------------


@dataclass
class WorkerStats:
    """Measured per-worker accounting, from the worker's final frame."""

    worker: int
    packets: int
    batches: int
    epochs: int
    busy_wall_seconds: float
    busy_cpu_seconds: float
    restarts: int = 0
    #: Seconds spent blocked in mailbox flow control (back-pressure).
    publish_wait_seconds: float = 0.0

    @property
    def busy_mpps(self) -> float:
        """Packets over measured wall time spent inside ingest calls."""
        if self.busy_wall_seconds <= 0:
            return 0.0
        return self.packets / self.busy_wall_seconds / 1e6

    @property
    def cpu_mpps(self) -> float:
        """Packets over measured CPU seconds -- the per-core capacity."""
        if self.busy_cpu_seconds <= 0:
            return 0.0
        return self.packets / self.busy_cpu_seconds / 1e6


@dataclass
class ParallelRunResult:
    """One measured parallel (or sequential-oracle) ingest run.

    Every rate here is *measured*, never modeled, and each one says what
    clock it came from:

    * :attr:`wall_mpps` -- trace packets over end-to-end wall seconds
      (spawn to final merge).  On a machine with >= workers free cores
      this is the headline number; on a smaller host the workers
      time-slice and it degrades toward single-core throughput.
    * :attr:`aggregate_cpu_mpps` -- sum over workers of shard packets
      over that worker's measured *CPU* seconds.  This is the DPDK-style
      per-core capacity aggregate: immune to time-slicing, it equals the
      wall aggregate exactly when every worker owns a core, and is the
      scaling number BENCH_parallel.json gates on.
    * :attr:`aggregate_busy_mpps` -- same sum over per-worker busy
      *wall* seconds (includes involuntary preemption).
    """

    strategy: str
    workers: int
    packets: int
    epochs: int
    wall_seconds: float
    worker_stats: List[WorkerStats]
    monitor: Any
    restarts: int = 0
    host_cpus: int = field(default_factory=lambda: os.cpu_count() or 1)
    start_method: str = "fork"

    @property
    def wall_mpps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.packets / self.wall_seconds / 1e6

    @property
    def aggregate_cpu_mpps(self) -> float:
        return sum(stats.cpu_mpps for stats in self.worker_stats)

    @property
    def aggregate_busy_mpps(self) -> float:
        return sum(stats.busy_mpps for stats in self.worker_stats)

    def speedup_vs(self, baseline: "ParallelRunResult") -> float:
        """Aggregate per-core capacity ratio against a baseline run."""
        base = baseline.aggregate_cpu_mpps
        if base <= 0:
            return 0.0
        return self.aggregate_cpu_mpps / base


# ---------------------------------------------------------------------------
# Shard combination (shared by the parallel and sequential paths).
# ---------------------------------------------------------------------------


def _merge_monitors(factory: Callable[[int], Any], monitors: List[Any]):
    """Merge per-shard monitors into a fresh base, in worker order."""
    base = factory(MERGE_SHARD)
    for monitor in monitors:
        if monitor is not None:
            base.merge(monitor)
    return base


def _combine_shared(
    factory: Callable[[int], Any],
    banks: "np.ndarray",
    metas: List[Dict[str, Any]],
):
    """Rebuild the merged monitor from per-worker counter banks + metas."""
    base = factory(MERGE_SHARD)
    sketch = _owned_sketch(base)
    sketch.counters = banks.sum(axis=0)
    if hasattr(sketch, "total"):
        sketch.total = float(
            sum(meta.get("sketch_total", 0.0) for meta in metas)
        )
    if hasattr(base, "packets_seen"):
        base.packets_seen = int(sum(meta["packets_total"] for meta in metas))
    if base.packets_sampled is not None:
        base.packets_sampled = int(
            sum(meta.get("packets_sampled", 0) for meta in metas)
        )
    topk = getattr(base, "topk", None)
    if topk is not None:
        candidates = np.asarray(
            sorted({key for meta in metas for key in meta.get("topk_keys", [])}),
            dtype=np.int64,
        )
        if len(candidates):
            topk.offer_batch(candidates, sketch.query_batch(candidates))
    return base


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


class ParallelIngestEngine:
    """Run a monitor factory over a trace with N parallel workers.

    Parameters
    ----------
    monitor_factory:
        ``factory(shard_id) -> monitor``; must be picklable under the
        ``spawn`` start method (see :mod:`repro.parallel.factories`) and
        must honour the seeding contract: identical sketch seeds across
        shards, per-shard sampler streams, and
        :data:`~repro.parallel.shard.MERGE_SHARD` for the merge base.
    workers:
        Shard/process count (RSS queue count).
    strategy:
        ``"merge"`` or ``"shared"`` (see module docstring).
    epoch_packets:
        Epoch window in packets (``merge`` only); None means one epoch.
    reset_per_epoch:
        ``merge`` only: workers reset their monitor after each publish,
        so each merged monitor that ``run(on_epoch=...)`` delivers
        covers exactly one epoch.
    max_restarts:
        Total worker-respawn budget before
        :class:`WorkerCrashError` (default: ``workers``).
    deadline_seconds:
        Per-frame wait budget in the parent; guards against a hung
        worker wedging the whole run.
    crash_plan / corruption_plan:
        Deterministic fault injection (see :mod:`repro.faults.inject`);
        production runs leave both None.
    """

    def __init__(
        self,
        monitor_factory: Callable[[int], Any],
        workers: int = 2,
        strategy: str = "merge",
        epoch_packets: Optional[int] = None,
        batch_size: int = 16384,
        rss_seed: int = 0,
        reset_per_epoch: bool = False,
        telemetry=NULL_TELEMETRY,
        profiler=NULL_PROFILER,
        max_restarts: Optional[int] = None,
        deadline_seconds: float = 120.0,
        start_method: Optional[str] = None,
        crash_plan: Optional[WorkerCrashPlan] = None,
        corruption_plan: Optional[FrameCorruptionPlan] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1, got %d" % workers)
        if strategy not in STRATEGIES:
            raise ValueError(
                "strategy must be one of %s, got %r" % (STRATEGIES, strategy)
            )
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1, got %d" % batch_size)
        if strategy == "shared" and epoch_packets is not None:
            raise ValueError(
                "the shared strategy is single-epoch (counter banks are "
                "cumulative); epoch_packets only applies to 'merge'"
            )
        if strategy == "shared" and reset_per_epoch:
            raise ValueError("reset_per_epoch only applies to 'merge'")
        self.monitor_factory = monitor_factory
        self.workers = workers
        self.strategy = strategy
        self.epoch_packets = epoch_packets
        self.batch_size = batch_size
        self.rss_seed = rss_seed
        self.reset_per_epoch = reset_per_epoch
        self.telemetry = telemetry
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.max_restarts = workers if max_restarts is None else max_restarts
        self.deadline_seconds = deadline_seconds
        self.start_method = start_method
        self.crash_plan = crash_plan
        self.corruption_plan = corruption_plan

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _as_keys(trace) -> "np.ndarray":
        keys = trace.keys if hasattr(trace, "keys") else trace
        return np.ascontiguousarray(keys, dtype=np.int64)

    def _context(self):
        import multiprocessing

        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        if "fork" in multiprocessing.get_all_start_methods():
            # fork is the cheap path and the only one that accepts
            # closure factories; spawn-only platforms need picklable
            # factories (repro.parallel.factories).
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _trace_parts(self, n_packets: int) -> Tuple:
        """The run identity every epoch trace id is derived from.

        Pure function of the configuration, so :meth:`run`,
        :meth:`run_sequential` and any crash-recovery respawn of the
        same run all produce identical trace/span ids.
        """
        return (
            "nitrosketch",
            self.strategy,
            self.workers,
            self.rss_seed,
            n_packets,
            self.epoch_packets,
        )

    def _probe_geometry(self) -> Tuple[int, int, int]:
        """(depth, width, mailbox capacity) from a probe monitor."""
        probe = self.monitor_factory(MERGE_SHARD)
        sketch = _owned_sketch(probe)
        counters = getattr(sketch, "counters", None)
        if counters is None or counters.ndim != 2:
            raise TypeError(
                "the parallel engine needs a monitor owning a 2-D counter "
                "grid; %r does not" % (type(probe).__name__,)
            )
        meta = _frame_meta(0, 0, 1, 0, _fresh_stats(), probe, self.strategy)
        payload = serialize_epoch_frame(
            meta, probe if self.strategy == "merge" else None
        )
        # 2x the empty-state frame plus fixed headroom covers top-k
        # growth and longer JSON numerals; counter sections are fixed
        # size, so this cannot be outgrown.
        capacity = max(1 << 16, 2 * len(payload) + (1 << 18))
        return sketch.counters.shape[0], sketch.counters.shape[1], capacity

    # -- the measured parallel path --------------------------------------------

    def run(
        self,
        trace,
        assignments: Optional["np.ndarray"] = None,
        on_epoch: Optional[Callable[[int, Any, List[Dict[str, Any]]], None]] = None,
    ) -> ParallelRunResult:
        """Ingest ``trace`` with real worker processes; return the merge.

        ``assignments`` overrides the RSS shard map (must match the one
        used by any companion modeled run); ``on_epoch(epoch, merged,
        metas)`` delivers each epoch's merged monitor as it lands.
        Worker signals (restarts, corrupt frames, per-worker rates) are
        fanned into telemetry before returning, so a caller's
        ``AlertManager.evaluate()`` after the run sees them.
        """
        reason = parallel_unavailable_reason()
        if reason is not None:
            raise RuntimeError("parallel engine unavailable: %s" % reason)
        keys = self._as_keys(trace)
        n_packets = len(keys)
        if assignments is None:
            assignments = rss_assignments(keys, self.workers, self.rss_seed)
        else:
            assignments = np.ascontiguousarray(assignments, dtype=np.uint8)
            if len(assignments) != n_packets:
                raise ValueError(
                    "assignments length %d != trace length %d"
                    % (len(assignments), n_packets)
                )
        depth, width, capacity = self._probe_geometry()
        bounds = epoch_bounds(n_packets, self.epoch_packets)
        n_epochs = len(bounds)
        context = self._context()

        keys_shm = create_block(max(8, keys.nbytes))
        assign_shm = create_block(max(1, assignments.nbytes))
        keys_view = np.frombuffer(keys_shm.buf, dtype=np.int64, count=n_packets)
        keys_view[:] = keys
        assign_view = np.frombuffer(
            assign_shm.buf, dtype=np.uint8, count=n_packets
        )
        assign_view[:] = assignments
        bank_shm = None
        banks = None
        if self.strategy == "shared":
            bank_shm = create_block(self.workers * depth * width * 8)
            banks = shared_counter_banks(bank_shm.buf, self.workers, depth, width)
            banks[:] = 0.0
        mailboxes = [EpochMailbox.create(capacity) for _ in range(self.workers)]

        base_specs = [
            WorkerSpec(
                factory=self.monitor_factory,
                worker=worker,
                workers=self.workers,
                strategy=self.strategy,
                keys_name=keys_shm.name,
                assign_name=assign_shm.name,
                n_packets=n_packets,
                mailbox_name=mailboxes[worker].name,
                mailbox_capacity=capacity,
                batch_size=self.batch_size,
                epoch_packets=self.epoch_packets,
                reset_per_epoch=self.reset_per_epoch,
                depth=depth,
                width=width,
                bank_name=bank_shm.name if bank_shm is not None else None,
                crash_plan=self.crash_plan,
                corruption_plan=self.corruption_plan,
                publish_timeout=self.deadline_seconds,
                trace_parts=self._trace_parts(n_packets),
            )
            for worker in range(self.workers)
        ]
        self._procs: List[Any] = []
        self._mailboxes = mailboxes
        self._restart_counts = [0] * self.workers
        self._resume_frames: List[Optional[bytes]] = [None] * self.workers
        self._base_specs = base_specs
        self._spawn_context = context

        wall_start = time.perf_counter()
        for spec in base_specs:
            self._spawn(spec)

        final_metas: List[Optional[Dict[str, Any]]] = [None] * self.workers
        merged = None
        trace_parts = self._trace_parts(n_packets)
        span_sink = getattr(self.telemetry, "spans", None)
        try:
            for epoch in range(n_epochs):
                trace_id = make_trace_id(*trace_parts, epoch)
                epoch_span = self.telemetry.start_span(
                    "epoch",
                    trace_id=trace_id,
                    span_id=make_span_id(trace_id, "epoch"),
                    epoch=epoch,
                    workers=self.workers,
                )
                epoch_metas: List[Dict[str, Any]] = []
                epoch_monitors: List[Any] = []
                with epoch_span:
                    for worker in range(self.workers):
                        meta, monitor = self._await_frame(worker, epoch, epoch_span)
                        epoch_metas.append(meta)
                        epoch_monitors.append(monitor)
                        if meta.get("final"):
                            final_metas[worker] = meta
                        trace_block = meta.get("trace")
                        if span_sink is not None and isinstance(trace_block, dict):
                            span_sink.record_dicts(trace_block.get("spans", ()))
                    merge_span = epoch_span.child(
                        "merge",
                        span_id=make_span_id(trace_id, "merge"),
                        epoch=epoch,
                    )
                    with merge_span:
                        merge_perf0 = time.perf_counter()
                        if self.strategy == "merge":
                            merged = _merge_monitors(
                                self.monitor_factory, epoch_monitors
                            )
                        else:
                            merged = _combine_shared(
                                self.monitor_factory, banks, epoch_metas
                            )
                        self.profiler.observe(
                            "merge", time.perf_counter() - merge_perf0
                        )
                    if on_epoch is not None:
                        on_epoch(epoch, merged, list(epoch_metas))
            for proc in self._procs:
                proc.join(timeout=10.0)
            wall_seconds = time.perf_counter() - wall_start
        finally:
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            keys_view = None
            assign_view = None
            banks = None
            for mailbox in mailboxes:
                mailbox.destroy()
            for shm in (keys_shm, assign_shm, bank_shm):
                if shm is not None:
                    shm.close()
                    shm.unlink()

        worker_stats = [
            self._stats_for(worker, final_metas[worker], n_epochs)
            for worker in range(self.workers)
        ]
        result = ParallelRunResult(
            strategy=self.strategy,
            workers=self.workers,
            packets=n_packets,
            epochs=n_epochs,
            wall_seconds=wall_seconds,
            worker_stats=worker_stats,
            monitor=merged,
            restarts=sum(self._restart_counts),
            start_method=context.get_start_method(),
        )
        from repro.telemetry.fanin import record_parallel_run

        record_parallel_run(self.telemetry, result)
        return result

    def _spawn(self, spec: WorkerSpec) -> None:
        proc = self._spawn_context.Process(
            target=_worker_main, args=(spec,), daemon=True
        )
        proc.start()
        while len(self._procs) <= spec.worker:
            self._procs.append(None)
        self._procs[spec.worker] = proc

    def _await_frame(
        self, worker: int, epoch: int, epoch_span=None
    ) -> Tuple[Dict[str, Any], Any]:
        """Block until ``worker`` delivers ``epoch``'s validated frame.

        Handles the two failure modes: a dead worker is respawned from
        its last good frame (``merge``) or from scratch (``shared``)
        within the restart budget, and a frame failing CRC raises
        :class:`ShardCorruptionError` -- it is never acked, never
        merged.  ``epoch_span`` (an :class:`~repro.telemetry.spans.ActiveSpan`)
        receives a ``frame.crc`` child covering decode/CRC-check/ack.
        """
        mailbox = self._mailboxes[worker]
        deadline = time.perf_counter() + self.deadline_seconds
        while True:
            got = mailbox.poll()
            if got is not None:
                payload, frame_epoch, _final = got
                if frame_epoch != epoch:
                    raise RuntimeError(
                        "protocol error: worker %d published epoch %d while "
                        "the parent awaited %d" % (worker, frame_epoch, epoch)
                    )
                crc_span = (
                    epoch_span.child(
                        "frame.crc",
                        span_id=make_span_id(
                            epoch_span.trace_id, "frame.crc", worker
                        ),
                        worker=worker,
                        epoch=epoch,
                    )
                    if epoch_span is not None
                    else None
                )
                ack_perf0 = time.perf_counter()
                try:
                    if crc_span is not None:
                        with crc_span:
                            crc_span.annotate(bytes=len(payload))
                            meta, monitor = deserialize_epoch_frame(payload)
                            mailbox.ack(frame_epoch)
                    else:
                        meta, monitor = deserialize_epoch_frame(payload)
                        mailbox.ack(frame_epoch)
                except ValueError as exc:
                    self.telemetry.count(
                        "parallel_corrupt_frames_total", worker=str(worker)
                    )
                    self.telemetry.event(
                        "parallel.corrupt_frame",
                        worker=worker,
                        epoch=epoch,
                        reason=str(exc),
                    )
                    raise ShardCorruptionError(worker, epoch, str(exc)) from exc
                ack_seconds = time.perf_counter() - ack_perf0
                self.telemetry.observe(
                    "parallel_mailbox_ack_seconds", ack_seconds, worker=str(worker)
                )
                self.profiler.observe("mailbox_ack", ack_seconds)
                if self.strategy == "merge" and not self.reset_per_epoch:
                    # A cumulative frame is a checkpoint: keep the bytes
                    # so a later crash resumes bit-exactly from here.
                    self._resume_frames[worker] = payload
                return meta, monitor
            proc = self._procs[worker]
            if proc.exitcode is not None:
                self._restart(worker, epoch, proc.exitcode)
                deadline = time.perf_counter() + self.deadline_seconds
                continue
            if time.perf_counter() > deadline:
                raise MailboxTimeout(
                    "worker %d delivered no frame for epoch %d within %.0fs"
                    % (worker, epoch, self.deadline_seconds)
                )
            time.sleep(0.0005)

    def _restart(self, worker: int, epoch: int, exitcode: Optional[int]) -> None:
        self._restart_counts[worker] += 1
        if self._restart_counts[worker] > self.max_restarts:
            raise WorkerCrashError(worker, exitcode, self._restart_counts[worker] - 1)
        if self.strategy == "shared":
            # The dead worker owned its bank exclusively; the respawn
            # zeroes it and replays the whole shard -- exact recovery.
            start_epoch, resume = 0, None
        elif self.reset_per_epoch:
            # Frames are per-epoch; a fresh monitor equals a reset one
            # (the reset-equals-fresh contract), so replay this epoch.
            start_epoch, resume = epoch, None
        else:
            # Resume from the last published cumulative frame: the
            # worker replays exactly the epochs the parent never saw.
            start_epoch, resume = epoch, self._resume_frames[worker]
        spec = replace(
            self._base_specs[worker],
            start_epoch=start_epoch,
            resume_frame=resume,
            crash_plan=None,
        )
        self.telemetry.count("parallel_worker_restarts_total", worker=str(worker))
        self.telemetry.event(
            "parallel.worker_restart",
            worker=worker,
            epoch=epoch,
            exitcode=exitcode,
            resumed="frame" if resume is not None else "scratch",
        )
        self._spawn(spec)

    def _stats_for(
        self, worker: int, meta: Optional[Dict[str, Any]], n_epochs: int
    ) -> WorkerStats:
        stats = _stats_from_meta(meta or {})
        return WorkerStats(
            worker=worker,
            packets=int(stats["packets"]),
            batches=int(stats["batches"]),
            epochs=n_epochs,
            busy_wall_seconds=stats["busy_wall"],
            busy_cpu_seconds=stats["busy_cpu"],
            restarts=self._restart_counts[worker],
            publish_wait_seconds=stats["publish_wait"],
        )

    # -- the sequential oracle --------------------------------------------------

    def run_sequential(
        self,
        trace,
        assignments: Optional["np.ndarray"] = None,
        on_epoch: Optional[Callable[[int, Any, List[Dict[str, Any]]], None]] = None,
    ) -> ParallelRunResult:
        """The same computation, in-process, one shard at a time.

        Identical sharding, identical factories, identical batch
        boundaries, identical merge order -- the differential oracle the
        parallel path is checked against.  ``merge`` output is
        byte-exact equal to :meth:`run`'s; ``shared`` output is
        bit-exact for vanilla sketches and envelope-equal for Nitro.
        """
        keys = self._as_keys(trace)
        n_packets = len(keys)
        if assignments is None:
            assignments = rss_assignments(keys, self.workers, self.rss_seed)
        else:
            assignments = np.ascontiguousarray(assignments, dtype=np.uint8)
        bounds = epoch_bounds(n_packets, self.epoch_packets)
        n_epochs = len(bounds)
        monitors = [self.monitor_factory(worker) for worker in range(self.workers)]
        stats_list = [_fresh_stats() for _ in range(self.workers)]

        wall_start = time.perf_counter()
        merged = None
        final_metas: List[Optional[Dict[str, Any]]] = [None] * self.workers
        trace_parts = self._trace_parts(n_packets)
        for epoch in range(n_epochs):
            trace_id = make_trace_id(*trace_parts, epoch)
            epoch_span = self.telemetry.start_span(
                "epoch",
                trace_id=trace_id,
                span_id=make_span_id(trace_id, "epoch"),
                epoch=epoch,
                workers=self.workers,
            )
            epoch_metas: List[Dict[str, Any]] = []
            with epoch_span:
                for worker in range(self.workers):
                    shard_keys = _epoch_shard_keys(
                        keys, assignments, worker, bounds[epoch]
                    )
                    ingest_span = epoch_span.child(
                        "worker.ingest",
                        span_id=make_span_id(trace_id, "worker.ingest", worker),
                        worker=worker,
                        shard=worker,
                        epoch=epoch,
                        packets=int(len(shard_keys)),
                    )
                    with ingest_span:
                        _ingest_epoch(
                            monitors[worker],
                            shard_keys,
                            self.batch_size,
                            stats_list[worker],
                        )
                    meta = _frame_meta(
                        worker,
                        epoch,
                        n_epochs,
                        len(shard_keys),
                        stats_list[worker],
                        monitors[worker],
                        self.strategy,
                    )
                    epoch_metas.append(meta)
                    if meta.get("final"):
                        final_metas[worker] = meta
                merge_span = epoch_span.child(
                    "merge", span_id=make_span_id(trace_id, "merge"), epoch=epoch
                )
                with merge_span:
                    merge_perf0 = time.perf_counter()
                    if self.strategy == "merge":
                        merged = _merge_monitors(self.monitor_factory, monitors)
                        if self.reset_per_epoch:
                            for monitor in monitors:
                                monitor.reset()
                    else:
                        banks = np.stack(
                            [_owned_sketch(monitor).counters for monitor in monitors]
                        )
                        merged = _combine_shared(
                            self.monitor_factory, banks, epoch_metas
                        )
                    self.profiler.observe("merge", time.perf_counter() - merge_perf0)
                if on_epoch is not None:
                    on_epoch(epoch, merged, list(epoch_metas))
        wall_seconds = time.perf_counter() - wall_start

        worker_stats = [
            WorkerStats(
                worker=worker,
                packets=int(stats_list[worker]["packets"]),
                batches=int(stats_list[worker]["batches"]),
                epochs=n_epochs,
                busy_wall_seconds=stats_list[worker]["busy_wall"],
                busy_cpu_seconds=stats_list[worker]["busy_cpu"],
            )
            for worker in range(self.workers)
        ]
        return ParallelRunResult(
            strategy=self.strategy,
            workers=self.workers,
            packets=n_packets,
            epochs=n_epochs,
            wall_seconds=wall_seconds,
            worker_stats=worker_stats,
            monitor=merged,
            start_method="inline",
        )
