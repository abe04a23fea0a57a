"""NetFlow- and sFlow-style sampled monitoring (paper refs [21, 71]).

The default monitoring tools on OVS-DPDK (sFlow) and VPP (NetFlow),
used as the Figure 13(b)/15 comparison:

* **NetFlow**: sample each packet with probability ``p``; sampled
  packets create or update a *flow record* (key, packets, bytes, first/
  last timestamps).  Estimates scale by ``1/p``.  Memory grows with the
  number of *sampled flows* -- at ``p = 0.01`` on a heavy-tailed trace
  that is most flows, which is why Figure 13(b) shows NetFlow consuming
  far more memory than NitroSketch at the same sampling rate.
* **sFlow**: sample with probability ``p`` and export the *packet
  header* to the collector; the collector aggregates.  The switch-side
  state is a small export buffer, but the collector sees only a ``p``
  fraction of traffic, so recall on heavy-tailed traces suffers
  (Figure 15).

Both miss small flows entirely at low sampling rates -- the recall gap
NitroSketch's always-on counter arrays close.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.hashing.prng import XorShift64Star
from repro.sketches.base import Monitor

#: Bytes per NetFlow v5-style record (key, counters, timestamps, ports).
FLOW_RECORD_BYTES = 48
#: Bytes per exported sFlow sample (flow key + truncated header).
SFLOW_SAMPLE_BYTES = 24


@dataclass
class FlowRecord:
    """A NetFlow record for one sampled flow."""

    key: int
    sampled_packets: float = 0.0
    sampled_bytes: float = 0.0
    first_seen: Optional[float] = None
    last_seen: Optional[float] = None


class NetFlowMonitor(Monitor):
    """Packet-sampled flow records with inverse-probability estimates.

    ``active_timeout`` / ``inactive_timeout`` reproduce real NetFlow
    cache semantics: a record is exported (and its table slot freed)
    when its flow has been idle for ``inactive_timeout`` seconds or
    continuously active for ``active_timeout`` seconds.  Timeouts are
    evaluated lazily against packet timestamps via :meth:`expire`;
    exported records accumulate in ``exported`` (the collector's view).
    Both default to None (no expiry), matching the paper's single-epoch
    measurements.
    """

    def __init__(
        self,
        sampling_rate: float,
        seed: int = 0,
        active_timeout: Optional[float] = None,
        inactive_timeout: Optional[float] = None,
    ) -> None:
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1], got %r" % (sampling_rate,))
        for timeout in (active_timeout, inactive_timeout):
            if timeout is not None and timeout <= 0:
                raise ValueError("timeouts must be positive when given")
        self.sampling_rate = sampling_rate
        self.active_timeout = active_timeout
        self.inactive_timeout = inactive_timeout
        self._rng = XorShift64Star(seed ^ 0x17F10)
        self._records: Dict[int, FlowRecord] = {}
        #: Records exported by timeout expiry (the collector's archive).
        self.exported: list = []
        self.packets_seen = 0
        self.packets_sampled = 0

    def expire(self, now: float) -> int:
        """Export records past their timeouts; returns how many expired."""
        if self.active_timeout is None and self.inactive_timeout is None:
            return 0
        expired = []
        for key, record in self._records.items():
            first = record.first_seen if record.first_seen is not None else now
            last = record.last_seen if record.last_seen is not None else now
            if (
                self.inactive_timeout is not None
                and now - last >= self.inactive_timeout
            ):
                expired.append(key)
            elif (
                self.active_timeout is not None
                and now - first >= self.active_timeout
            ):
                expired.append(key)
        for key in expired:
            self.exported.append(self._records.pop(key))
        return len(expired)

    def update(
        self,
        key: int,
        weight: float = 1.0,
        timestamp: Optional[float] = None,
    ) -> None:
        """Offer one packet; a coin flip decides whether a record is touched.

        ``weight`` (the packet's size) feeds the record's byte count;
        estimates count packets.
        """
        self.packets_seen += 1
        self.ops.packet()
        self.ops.prng()
        if self._rng.next_float() >= self.sampling_rate:
            return
        self.packets_sampled += 1
        self.ops.hash()
        self.ops.table_lookup()
        self.ops.counter_update()
        if timestamp is not None:
            self.expire(timestamp)
        record = self._records.get(key)
        if record is None:
            record = FlowRecord(key)
            self._records[key] = record
            record.first_seen = timestamp
        record.sampled_packets += 1
        record.sampled_bytes += weight
        record.last_seen = timestamp

    def update_batch(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        duration_seconds: Optional[float] = None,
    ) -> None:
        """Vectorised ingest: one Bernoulli mask, then grouped record updates.

        Statistically equivalent to per-packet :meth:`update` (independent
        RNG stream) in packet counts; batch records keep no byte counts.
        """
        keys = np.asarray(keys)
        count = len(keys)
        if count == 0:
            return
        self.packets_seen += count
        self.ops.packet(count)
        self.ops.prng(count)
        rng = np.random.default_rng(self._rng.next_u64() & 0xFFFFFFFF)
        mask = rng.random(count) < self.sampling_rate
        sampled = keys[mask]
        self.packets_sampled += int(sampled.size)
        if sampled.size == 0:
            return
        self.ops.hash(int(sampled.size))
        self.ops.table_lookup(int(sampled.size))
        self.ops.counter_update(int(sampled.size))
        unique, counts = np.unique(sampled, return_counts=True)
        for key, sampled_count in zip(unique.tolist(), counts.tolist()):
            record = self._records.get(key)
            if record is None:
                record = FlowRecord(key)
                self._records[key] = record
            record.sampled_packets += sampled_count

    def query(self, key: int) -> float:
        """Estimated packet count (sampled count scaled by ``1/p``)."""
        record = self._records.get(key)
        if record is None:
            return 0.0
        return record.sampled_packets / self.sampling_rate

    def recorded_flows(self) -> Set[int]:
        """Keys with at least one sampled packet -- NetFlow's visibility."""
        return set(self._records)

    def heavy_hitters(self, threshold: float) -> List[Tuple[int, float]]:
        """Flows whose scaled estimate exceeds ``threshold``."""
        hitters = [
            (key, record.sampled_packets / self.sampling_rate)
            for key, record in self._records.items()
            if record.sampled_packets / self.sampling_rate > threshold
        ]
        hitters.sort(key=lambda item: (-item[1], item[0]))
        return hitters

    def memory_bytes(self) -> int:
        """Switch-side record-table footprint (Figure 13b's metric)."""
        return len(self._records) * FLOW_RECORD_BYTES

    def reset(self) -> None:
        self._records.clear()
        self.exported.clear()
        self.packets_seen = 0
        self.packets_sampled = 0


class SFlowMonitor(Monitor):
    """sFlow: export sampled headers, aggregate at the collector."""

    def __init__(self, sampling_rate: float, seed: int = 0) -> None:
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1], got %r" % (sampling_rate,))
        self.sampling_rate = sampling_rate
        self._rng = XorShift64Star(seed ^ 0x5F10)
        #: Collector-side per-flow sampled counts.
        self._collector: Dict[int, float] = {}
        self.packets_seen = 0
        self.packets_sampled = 0

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        self.packets_seen += 1
        self.ops.packet()
        self.ops.prng()
        if self._rng.next_float() >= self.sampling_rate:
            return
        self.packets_sampled += 1
        self.ops.memcpy()  # header export
        self._collector[key] = self._collector.get(key, 0.0) + weight

    def query(self, key: int) -> float:
        return self._collector.get(key, 0.0) / self.sampling_rate

    def recorded_flows(self) -> Set[int]:
        return set(self._collector)

    def heavy_hitters(self, threshold: float) -> List[Tuple[int, float]]:
        hitters = [
            (key, count / self.sampling_rate)
            for key, count in self._collector.items()
            if count / self.sampling_rate > threshold
        ]
        hitters.sort(key=lambda item: (-item[1], item[0]))
        return hitters

    def memory_bytes(self) -> int:
        """Collector-side aggregation state."""
        return len(self._collector) * SFLOW_SAMPLE_BYTES

    def reset(self) -> None:
        self._collector.clear()
        self.packets_seen = 0
        self.packets_sampled = 0
