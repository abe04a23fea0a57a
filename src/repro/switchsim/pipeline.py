"""Software-switch data-plane models.

Each pipeline consumes packet batches and records its forwarding work
into an :class:`~repro.metrics.opcount.OpCounter`; the cost model then
prices that work.  Per-packet fixed costs are calibrated so the
platforms land at their paper-reported min-sized-packet rates
(OVS-DPDK ~22 Mpps, VPP ~24 Mpps, BESS ~29 Mpps, raw DPDK ~23 Mpps on
one core -- Figures 2 and 8b).

The models are structural, not just constants:

* **OVS-DPDK** simulates the three-tier lookup of the userspace
  datapath (Section 6): an Exact Match Cache keyed per flow, a
  tuple-space-search *megaflow* classifier (one masked hash + probe per
  subtable) on EMC misses, and an OpenFlow table fallback that installs
  new megaflow entries.  EMC hit rate is exactly what the paper
  controls for ("we modify the MAC addresses of packets to avoid cache
  misses on the Exact-Match Cache").
* **VPP** runs an actual graph of nodes (ethernet-input, ip4-input,
  ip4-lookup with a FIB, ip4-rewrite); per-node dispatch overhead is
  amortised over the vector, which is VPP's whole performance story.
  A measurement node can be appended after the IP stack, exactly where
  Section 6 integrates NitroSketch.
* **BESS** chains modules (port_inc -> l2_forward -> port_out) with the
  same insertion hook.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence

from repro.metrics.opcount import OpCounter
from repro.telemetry import NULL_TELEMETRY
from repro.traffic.replay import Batch


class SwitchPipeline(abc.ABC):
    """A single-thread software-switch forwarding plane."""

    #: Human-readable platform name.
    name: str = "switch"
    #: Observability sink (per-stage timing histograms, cache counters).
    #: A class-level no-op by default so un-instrumented runs pay nothing;
    #: assigning a real ``Telemetry`` on an instance lights it up.
    telemetry = NULL_TELEMETRY

    @abc.abstractmethod
    def forward_batch(self, batch: Batch, ops: OpCounter) -> None:
        """Forward one packet batch, recording work into ``ops``."""

    def working_set_bytes(self) -> int:
        """Randomly-accessed switch state (for the LLC model)."""
        return 0

    def reset(self) -> None:
        """Clear forwarding caches."""


class DPDKForwarder(SwitchPipeline):
    """Raw DPDK l2fwd: PMD receive + transmit, no lookup -- the upper
    bound in Figure 2."""

    name = "dpdk"

    #: Receive + transmit + mbuf management per packet.
    PER_PACKET_CYCLES = 90.0

    def forward_batch(self, batch: Batch, ops: OpCounter) -> None:
        count = len(batch)
        ops.packet(count)
        self.telemetry.count("pipeline_batches_total", platform=self.name)
        with self.telemetry.timer(
            "pipeline_stage_seconds", platform=self.name, stage="l2fwd"
        ):
            ops.fixed(self.PER_PACKET_CYCLES * count)


# ---------------------------------------------------------------------------
# OVS-DPDK: EMC -> tuple-space megaflow classifier -> OpenFlow table.
# ---------------------------------------------------------------------------


class TupleSpaceClassifier:
    """The megaflow layer: one hash table per distinct wildcard mask.

    Real OVS builds one subtable per flow-mask in use; a lookup hashes
    the packet under each subtable's mask until one matches.  We model
    masks as bit-masks over the 64-bit flow key; the paper's two
    forwarding rules yield two subtables.
    """

    def __init__(self, masks: Sequence[int] = (0xFFFF, 0xFFFFFFFFFFFFFFFF)) -> None:
        if not masks:
            raise ValueError("at least one subtable mask required")
        self.subtables: "OrderedDict[int, Dict[int, int]]" = OrderedDict(
            (mask, {}) for mask in masks
        )
        self.lookups = 0
        self.matches = 0

    def install(self, key: int, mask: int, action: int) -> None:
        """Install a megaflow entry under one of the subtable masks."""
        if mask not in self.subtables:
            self.subtables[mask] = {}
        self.subtables[mask][key & mask] = action

    def lookup(self, key: int, ops: OpCounter) -> Optional[int]:
        """Walk the subtables; bill one hash + probe per subtable visited."""
        self.lookups += 1
        for mask, table in self.subtables.items():
            ops.hash()
            ops.table_lookup()
            action = table.get(key & mask)
            if action is not None:
                self.matches += 1
                return action
        return None

    def entry_count(self) -> int:
        return sum(len(table) for table in self.subtables.values())

    def reset(self) -> None:
        for table in self.subtables.values():
            table.clear()
        self.lookups = 0
        self.matches = 0


class OVSDPDKPipeline(SwitchPipeline):
    """OVS-DPDK userspace datapath with the three-tier lookup.

    EMC hits cost one table probe (the NIC's RSS hash is reused, so no
    software hash); misses walk the tuple-space classifier and, when
    even that misses, hit the OpenFlow table (upcall cost) and install
    megaflow + EMC entries.
    """

    name = "ovs-dpdk"

    #: PMD receive + transmit per packet.
    PMD_CYCLES = 35.0
    #: miniflow_extract header parsing per packet (Table 2's row).
    MINIFLOW_CYCLES = 25.0
    #: Emc bookkeeping/action execution on the hit path.
    ACTION_CYCLES = 5.0
    #: OpenFlow slow-path consultation on a full classifier miss.
    UPCALL_CYCLES = 4000.0

    def __init__(
        self,
        emc_entries: int = 8192,
        classifier_subtables: int = 2,
        emc_key_space: Optional[int] = 2,
    ) -> None:
        """``emc_key_space`` models the paper's EMC-friendly setup: packets
        are rewritten so they fall into a tiny number of exact-match
        entries ("we modify the MAC addresses of packets to avoid cache
        misses on the Exact-Match Cache", Section 7).  Pass ``None`` to key
        the EMC by full flow and study cache-thrash behaviour instead."""
        if emc_entries < 1:
            raise ValueError("emc_entries must be >= 1")
        self.emc_entries = emc_entries
        self.classifier_subtables = classifier_subtables
        self.emc_key_space = emc_key_space
        # Wildcard masks: a coarse L2-ish mask plus an exact 5-tuple mask
        # (the paper's two bidirectional forwarding rules).
        masks = [0xFFFF] + [0xFFFFFFFFFFFFFFFF] * max(classifier_subtables - 1, 0)
        self.classifier = TupleSpaceClassifier(masks[:classifier_subtables] or [0xFFFF])
        self._emc: "OrderedDict[int, int]" = OrderedDict()
        self.emc_hits = 0
        self.emc_misses = 0
        self.upcalls = 0

    def forward_batch(self, batch: Batch, ops: OpCounter) -> None:
        count = len(batch)
        ops.packet(count)
        telemetry = self.telemetry
        telemetry.count("pipeline_batches_total", platform=self.name)
        hits_before, misses_before, upcalls_before = (
            self.emc_hits,
            self.emc_misses,
            self.upcalls,
        )
        with telemetry.timer(
            "pipeline_stage_seconds", platform=self.name, stage="datapath"
        ):
            ops.fixed(
                (self.PMD_CYCLES + self.MINIFLOW_CYCLES + self.ACTION_CYCLES) * count
            )
            emc = self._emc
            for key in batch.keys.tolist():
                if self.emc_key_space is not None:
                    key = key % self.emc_key_space
                ops.table_lookup()
                if key in emc:
                    self.emc_hits += 1
                    emc.move_to_end(key)
                    continue
                self.emc_misses += 1
                action = self.classifier.lookup(key, ops)
                if action is None:
                    # OpenFlow table consultation; install a megaflow entry
                    # under the coarse mask so subsequent flows match fast.
                    self.upcalls += 1
                    ops.fixed(self.UPCALL_CYCLES)
                    coarse_mask = next(iter(self.classifier.subtables))
                    self.classifier.install(key, coarse_mask, action=1)
                ops.memcpy()  # EMC entry install
                emc[key] = 1
                if len(emc) > self.emc_entries:
                    emc.popitem(last=False)
        if telemetry.enabled:
            telemetry.count("ovs_emc_hits_total", self.emc_hits - hits_before)
            telemetry.count("ovs_emc_misses_total", self.emc_misses - misses_before)
            telemetry.count("ovs_upcalls_total", self.upcalls - upcalls_before)

    def working_set_bytes(self) -> int:
        # EMC entries ~64 B (miniflow + netdev flow reference); megaflow
        # entries ~128 B.
        return len(self._emc) * 64 + self.classifier.entry_count() * 128

    def reset(self) -> None:
        self._emc.clear()
        self.classifier.reset()
        self.emc_hits = 0
        self.emc_misses = 0
        self.upcalls = 0


# ---------------------------------------------------------------------------
# VPP: a packet-processing graph.
# ---------------------------------------------------------------------------


class GraphNode(abc.ABC):
    """One VPP graph node: per-vector dispatch cost + per-packet work."""

    name: str = "node"
    #: Frame dispatch overhead, charged once per batch.
    dispatch_cycles: float = 120.0
    #: Baseline per-packet cost inside the node.
    per_packet_cycles: float = 15.0

    def process(self, batch: Batch, ops: OpCounter) -> None:
        """Default behaviour: charge the fixed costs."""
        ops.fixed(self.dispatch_cycles + self.per_packet_cycles * len(batch))


class EthernetInputNode(GraphNode):
    """Parse L2 headers, demux by ethertype."""

    name = "ethernet-input"
    per_packet_cycles = 14.0


class IP4InputNode(GraphNode):
    """Validate the IPv4 header (checksum, TTL)."""

    name = "ip4-input"
    per_packet_cycles = 12.0


class IP4LookupNode(GraphNode):
    """FIB longest-prefix match; billed as real table lookups."""

    name = "ip4-lookup"
    per_packet_cycles = 4.0

    def __init__(self, fib_entries: int = 2) -> None:
        # The testbed installs two forwarding rules.
        self.fib: Dict[int, int] = {index: index for index in range(fib_entries)}

    def process(self, batch: Batch, ops: OpCounter) -> None:
        super().process(batch, ops)
        count = len(batch)
        # mtrie walk: modelled as one table probe per packet.
        ops.table_lookup(count)
        self.lookups = getattr(self, "lookups", 0) + count


class IP4RewriteNode(GraphNode):
    """Rewrite MACs, decrement TTL, enqueue to tx."""

    name = "ip4-rewrite"
    per_packet_cycles = 12.0


class MeasurementNode(GraphNode):
    """A measurement plugin node (Section 6's VPP integration).

    Wraps any monitor; the node itself is free in the graph (its work is
    the monitor's own, recorded in the monitor's ops sink).
    """

    name = "nitrosketch"
    dispatch_cycles = 120.0
    per_packet_cycles = 0.0

    def __init__(self, ingest: Callable[[Batch], None]) -> None:
        self._ingest = ingest

    def process(self, batch: Batch, ops: OpCounter) -> None:
        super().process(batch, ops)
        self._ingest(batch)


class VPPPipeline(SwitchPipeline):
    """FD.io VPP: the L3 vSwitch graph the paper describes."""

    name = "vpp"

    def __init__(self, nodes: Optional[List[GraphNode]] = None) -> None:
        if nodes is None:
            nodes = [
                EthernetInputNode(),
                IP4InputNode(),
                IP4LookupNode(),
                IP4RewriteNode(),
            ]
        self.nodes = nodes

    def add_node(self, node: GraphNode, after: Optional[str] = None) -> None:
        """Insert a node (the paper adds its module after the IP stack)."""
        if after is None:
            self.nodes.append(node)
            return
        for index, existing in enumerate(self.nodes):
            if existing.name == after:
                self.nodes.insert(index + 1, node)
                return
        raise ValueError("no node named %r in the graph" % (after,))

    def forward_batch(self, batch: Batch, ops: OpCounter) -> None:
        ops.packet(len(batch))
        telemetry = self.telemetry
        telemetry.count("pipeline_batches_total", platform=self.name)
        for node in self.nodes:
            with telemetry.timer(
                "pipeline_stage_seconds", platform=self.name, stage=node.name
            ):
                node.process(batch, ops)


# ---------------------------------------------------------------------------
# BESS: a module chain.
# ---------------------------------------------------------------------------


class BESSModule(abc.ABC):
    """One BESS module: per-batch scheduling + per-packet work."""

    name: str = "module"
    schedule_cycles: float = 60.0
    per_packet_cycles: float = 20.0

    def process(self, batch: Batch, ops: OpCounter) -> None:
        ops.fixed(self.schedule_cycles + self.per_packet_cycles * len(batch))


class PortIncModule(BESSModule):
    name = "port_inc"
    per_packet_cycles = 18.0


class L2ForwardModule(BESSModule):
    """Destination-MAC table forwarding."""

    name = "l2_forward"
    per_packet_cycles = 4.0

    def __init__(self, table_size: int = 2) -> None:
        self.table: Dict[int, int] = {index: index for index in range(table_size)}

    def process(self, batch: Batch, ops: OpCounter) -> None:
        super().process(batch, ops)
        ops.table_lookup(len(batch))


class PortOutModule(BESSModule):
    name = "port_out"
    per_packet_cycles = 14.0


class SketchModule(BESSModule):
    """A measurement module in the BESS pipeline (Section 6)."""

    name = "nitrosketch"
    per_packet_cycles = 0.0

    def __init__(self, ingest: Callable[[Batch], None]) -> None:
        self._ingest = ingest

    def process(self, batch: Batch, ops: OpCounter) -> None:
        super().process(batch, ops)
        self._ingest(batch)


class BESSPipeline(SwitchPipeline):
    """BESS: a light-weight modular software switch."""

    name = "bess"

    def __init__(self, modules: Optional[List[BESSModule]] = None) -> None:
        if modules is None:
            modules = [PortIncModule(), L2ForwardModule(), PortOutModule()]
        self.modules = modules

    def add_module(self, module: BESSModule, position: Optional[int] = None) -> None:
        """Insert a module into the chain (default: before port_out)."""
        if position is None:
            position = max(len(self.modules) - 1, 0)
        self.modules.insert(position, module)

    def forward_batch(self, batch: Batch, ops: OpCounter) -> None:
        ops.packet(len(batch))
        telemetry = self.telemetry
        telemetry.count("pipeline_batches_total", platform=self.name)
        for module in self.modules:
            with telemetry.timer(
                "pipeline_stage_seconds", platform=self.name, stage=module.name
            ):
                module.process(batch, ops)


class InMemoryPipeline(SwitchPipeline):
    """No switch at all -- the in-memory benchmark setting of Figure 13a."""

    name = "in-memory"

    def forward_batch(self, batch: Batch, ops: OpCounter) -> None:
        ops.packet(len(batch))
