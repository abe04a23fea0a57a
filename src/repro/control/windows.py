"""Sliding-window monitoring over epoch rings.

The paper's task list includes windowed variants (ref [6], a sliding
Bloom filter giving counting/distinct/entropy over windows).  Sketch
linearity gives a simple, exact-at-epoch-granularity construction: keep
a ring of the last ``W`` epoch sketches; the window view is their
merge.  This is the standard "basic window" technique -- memory is
``W`` sketches, and answers cover the most recent ``W`` epochs with
epoch-granularity staleness (docs/WINDOWS.md).

Epochs close through :meth:`SlidingWindowMonitor.rotate`:
:meth:`~SlidingWindowMonitor.update_batch` calls it every
``epoch_packets`` packets, or, with ``epoch_packets == 0``, an owner
such as :class:`~repro.switchsim.daemon.MeasurementDaemon` calls it on
its own epoch boundaries.  The window is the ``window_epochs - 1`` most
recent completed epochs plus the in-progress one.

Works with any mergeable monitor (canonical sketches and NitroSketch
wrappers); the factory must produce same-seed instances.  The whole
ring -- every epoch sketch plus the rotation cursor -- round-trips
byte-exactly through :func:`repro.control.export.serialize_monitor`,
so :class:`~repro.control.checkpoint.CheckpointManager` checkpoints
windows like any other monitor.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.hashing import key_array
from repro.sketches.base import Monitor


class SlidingWindowMonitor(Monitor):
    """Ring of epoch sketches answering queries over the last W epochs.

    Parameters
    ----------
    monitor_factory:
        Builds one epoch monitor; must produce merge-compatible
        instances (same seed/shape).
    window_epochs:
        Number of epochs the window spans, including the in-progress
        epoch.
    epoch_packets:
        Packets per epoch (the rotation granularity).  ``0`` disables
        automatic rotation: the owner calls :meth:`rotate` on its own
        epoch boundaries.
    """

    def __init__(
        self,
        monitor_factory: Callable[[], object],
        window_epochs: int,
        epoch_packets: int = 0,
    ) -> None:
        if window_epochs < 1:
            raise ValueError("window_epochs must be >= 1")
        if epoch_packets < 0:
            raise ValueError("epoch_packets must be >= 0 (0 = manual rotation)")
        self.monitor_factory = monitor_factory
        self.window_epochs = int(window_epochs)
        self.epoch_packets = int(epoch_packets)
        # Completed epochs inside the window (the in-progress epoch is
        # held separately), so the window is ring + current: rotate()
        # keeps window_epochs - 1 completed epochs.
        self._ring: Deque = deque()
        self._ring_counts: Deque[int] = deque()
        self._current = monitor_factory()
        self._current_count = 0
        self.epochs_rotated = 0
        #: Cached merge of ring + current; rebuilt lazily after any
        #: ingest or rotation invalidates it.
        self._merged = None
        # Instrumentation handed down by an owner (the daemon): applied
        # to every ring member and to each newly-opened epoch.
        self._ops = Monitor.ops
        self._telemetry = Monitor.telemetry
        self._profiler = Monitor.profiler

    @classmethod
    def from_template(
        cls,
        monitor,
        window_epochs: int,
        epoch_packets: int = 0,
    ) -> "SlidingWindowMonitor":
        """Wrap a pristine monitor instance as the window's first epoch.

        The factory for later epochs replays ``monitor``'s serialized
        state, so every epoch starts bit-identical to the template --
        the caller needs no factory closure.  ``monitor`` must be
        unused: any counts it already holds would leak into every
        future epoch.
        """
        from repro.control.export import deserialize_monitor, serialize_monitor

        template = serialize_monitor(monitor)
        window = cls(
            lambda: deserialize_monitor(template), window_epochs, epoch_packets
        )
        window._current = monitor
        return window

    # -- instrumentation hand-down ------------------------------------------

    def _wire(self, monitor) -> None:
        """Apply the owner's instrumentation to one epoch monitor."""
        monitor.ops = self._ops
        monitor.telemetry = self._telemetry
        monitor.profiler = self._profiler

    @property
    def ops(self):
        """Shared op counter, propagated to every epoch monitor."""
        return self._ops

    @ops.setter
    def ops(self, value) -> None:
        self._ops = value
        for monitor in self.window_monitors():
            monitor.ops = value

    @property
    def telemetry(self):
        """Shared telemetry sink, propagated to every epoch monitor."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, value) -> None:
        self._telemetry = value
        for monitor in self.window_monitors():
            monitor.telemetry = value

    @property
    def profiler(self):
        """Shared stage profiler, propagated to every epoch monitor."""
        return self._profiler

    @profiler.setter
    def profiler(self, value) -> None:
        self._profiler = value
        for monitor in self.window_monitors():
            monitor.profiler = value

    # -- ingest -------------------------------------------------------------

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        """Ingest one packet, rotating the ring at epoch boundaries."""
        self._current.update(key, weight, timestamp=timestamp)
        self._current_count += 1
        self._merged = None
        if self.epoch_packets and self._current_count >= self.epoch_packets:
            self.rotate()

    def update_batch(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        duration_seconds: Optional[float] = None,
    ) -> None:
        """Batched ingest honouring epoch boundaries.

        The common case -- the whole batch fits inside the current
        epoch -- is one kernel call with no slicing; only batches that
        cross an epoch boundary pay the split loop, and each slice gets
        its packet share of ``duration_seconds``.
        """
        keys = np.asarray(keys)
        total = len(keys)
        if total == 0:
            return
        self._merged = None
        if (
            self.epoch_packets == 0
            or self._current_count + total < self.epoch_packets
        ):
            self._current.update_batch(
                keys, weights, duration_seconds=duration_seconds
            )
            self._current_count += total
            return
        share = None if duration_seconds is None else duration_seconds / total
        start = 0
        while start < total:
            room = self.epoch_packets - self._current_count
            stop = min(start + room, total)
            self._current.update_batch(
                keys[start:stop],
                None if weights is None else weights[start:stop],
                duration_seconds=None if share is None else share * (stop - start),
            )
            self._current_count += stop - start
            start = stop
            if self._current_count >= self.epoch_packets:
                self.rotate()

    def rotate(self) -> None:
        """Close the in-progress epoch and open a fresh one.

        The evicted epoch (if the ring is full) is recycled via
        ``reset()`` -- reset-equals-fresh is part of the monitor
        contract (verified by ``selfcheck``), so recycling avoids a
        factory rebuild per epoch without changing behaviour.
        """
        self._ring.append(self._current)
        self._ring_counts.append(self._current_count)
        evicted = None
        while len(self._ring) > self.window_epochs - 1:
            evicted = self._ring.popleft()
            self._ring_counts.popleft()
        if evicted is not None:
            evicted.reset()
            self._current = evicted
        else:
            self._current = self.monitor_factory()
            self._wire(self._current)
        self._current_count = 0
        self.epochs_rotated += 1
        self._merged = None

    # -- queries ------------------------------------------------------------

    def window_monitors(self) -> List:
        """The monitors currently inside the window (oldest first),
        including the in-progress epoch."""
        return list(self._ring) + [self._current]

    def current_monitor(self):
        """The in-progress epoch's monitor (one epoch of traffic)."""
        return self._current

    def merged(self):
        """The merged window view (ring + current), cached.

        Rebuilt lazily after ingest or rotation invalidates it; repeat
        queries between updates reuse the same merge.  Treat the result
        as read-only -- mutate a copy, or call :meth:`invalidate` after
        deliberate surgery (the chaos scenarios do).
        """
        if self._merged is None:
            merged = self.monitor_factory()
            for monitor in self._ring:
                merged.merge(monitor)
            merged.merge(self._current)
            self._merged = merged
        return self._merged

    def invalidate(self) -> None:
        """Drop the cached merged view (after external mutation)."""
        self._merged = None

    def query(self, key: int) -> float:
        """Estimated count of ``key`` over the window."""
        return float(self.merged().query(key))

    def query_batch(self, keys) -> "np.ndarray":
        """Batched window estimates (one fused pass over the merge)."""
        return self.merged().query_batch(np.asarray(keys))

    def heavy_hitters(self, threshold: float) -> List[Tuple[int, float]]:
        """Window heavy hitters from per-epoch candidates + window counts.

        Each candidate's window estimate is computed exactly once, in
        one batched query against the cached merged view.
        """
        candidates: set = set()
        for monitor in self.window_monitors():
            topk = getattr(monitor, "topk", None)
            if topk is not None:
                candidates.update(topk.keys())
        if not candidates:
            return []
        ordered = sorted(candidates)
        estimates = self.query_batch(key_array(ordered))
        hitters = [
            (key, float(est))
            for key, est in zip(ordered, estimates.tolist())
            if est > threshold
        ]
        hitters.sort(key=lambda item: (-item[1], item[0]))
        return hitters

    def window_packets(self) -> int:
        """Packets currently covered by the window (exact, per-epoch)."""
        return sum(self._ring_counts) + self._current_count

    @property
    def packets_seen(self) -> int:
        """Aggregate packets offered to the window's monitors."""
        return sum(
            int(getattr(monitor, "packets_seen", 0))
            for monitor in self.window_monitors()
        )

    @property
    def packets_sampled(self) -> Optional[int]:
        """Aggregate sampled packets, or None for non-sampling monitors."""
        values = [monitor.packets_sampled for monitor in self.window_monitors()]
        if any(value is None for value in values):
            return None
        return sum(int(value) for value in values)

    def memory_bytes(self) -> int:
        return sum(monitor.memory_bytes() for monitor in self.window_monitors())

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything: empty ring, fresh in-progress epoch."""
        self._ring.clear()
        self._ring_counts.clear()
        self._current = self.monitor_factory()
        self._wire(self._current)
        self._current_count = 0
        self.epochs_rotated = 0
        self._merged = None

    def check_invariants(self) -> List[str]:
        """Ring coherence plus every member monitor's own invariants."""
        violations: List[str] = []
        if len(self._ring) != len(self._ring_counts):
            violations.append(
                "window: ring holds %d monitors but %d packet counts"
                % (len(self._ring), len(self._ring_counts))
            )
        if len(self._ring) > self.window_epochs - 1:
            violations.append(
                "window: ring holds %d completed epochs, window spans %d"
                % (len(self._ring), self.window_epochs)
            )
        if self._current_count < 0:
            violations.append(
                "window: negative in-progress packet count %d"
                % (self._current_count,)
            )
        if self.epoch_packets and self._current_count >= self.epoch_packets:
            violations.append(
                "window: in-progress epoch holds %d packets past the %d "
                "rotation boundary" % (self._current_count, self.epoch_packets)
            )
        if any(count < 0 for count in self._ring_counts):
            violations.append("window: negative ring packet count")
        for index, monitor in enumerate(self.window_monitors()):
            for violation in monitor.check_invariants():
                violations.append("window[%d]: %s" % (index, violation))
        return violations


def export_window_metrics(window, telemetry, heavy_share: float = 0.01) -> None:
    """Publish window-scoped gauges into a telemetry registry.

    Exposes the window's span, packet coverage, memory, heavy-hitter
    count and entropy as ``window_*`` gauges so ``nitrosketch top``,
    ``/metrics`` and ``/snapshot`` can show window-scoped (not
    cumulative) traffic structure.  Cheap enough to run once per epoch
    boundary; never on the per-batch hot path.  With telemetry off it
    returns at once: the gauges need the merged window, which would be
    built only to be thrown away.
    """
    if not telemetry.enabled:
        return
    from repro.telemetry.anomaly import entropy_from_estimates

    packets = window.window_packets()
    telemetry.gauge("window_epochs_spanned", float(len(window.window_monitors())))
    telemetry.gauge("window_epochs_rotated", float(window.epochs_rotated))
    telemetry.gauge("window_packets", float(packets))
    telemetry.gauge("window_memory_bytes", float(window.memory_bytes()))
    hitters = window.heavy_hitters(heavy_share * packets) if packets else []
    telemetry.gauge("window_heavy_hitters", float(len(hitters)))
    telemetry.gauge(
        "window_entropy_bits",
        entropy_from_estimates(dict(hitters), float(packets)) if packets else 0.0,
    )
