"""End-to-end switch simulation: pipeline + daemon + cost model + NIC.

Runs a trace through a software-switch pipeline with an optional
measurement daemon, then derives the throughput/CPU numbers of the
paper's evaluation:

* **capacity** -- the packet rate the bottleneck thread sustains
  (cycles-per-packet vs the core's clock);
* **achieved rate** -- ``min(offered, capacity, NIC deliverable)``;
* **CPU shares** -- the Figure-10 view: how much of each core the
  switch and sketch modules consume at the achieved rate;
* **hotspot breakdown** -- the Table-2 view of where cycles go.

In the separate-thread mode the switch thread pays only the
pre-processing memcpy for the packets the daemon actually wants
(``sampled_fraction``), and the measurement thread's own capacity is an
independent bound -- exactly the Section-6 architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.metrics.opcount import OpCounter
from repro.metrics.throughput import mpps_to_gbps
from repro.switchsim.costmodel import CostModel, CycleBreakdown
from repro.switchsim.daemon import IntegrationMode, MeasurementDaemon
from repro.switchsim.nic import NICModel, XL710_40G
from repro.switchsim.pipeline import SwitchPipeline
from repro.telemetry import NULL_TELEMETRY
from repro.traffic.replay import Replayer
from repro.traffic.traces import Trace


@dataclass
class SimulationResult:
    """Everything the throughput/CPU figures need, from one run."""

    platform: str
    daemon_name: str
    packets: int
    mean_packet_size: float
    offered_mpps: float
    capacity_mpps: float
    achieved_mpps: float
    achieved_gbps: float
    drop_fraction: float
    switch_cycles_per_packet: float
    sketch_cycles_per_packet: float
    switch_cpu_share: float
    sketch_cpu_share: float
    switch_breakdown: CycleBreakdown
    sketch_breakdown: CycleBreakdown
    #: Core id when produced by :class:`~repro.switchsim.multicore.
    #: MultiCoreSimulator` (empty shards are skipped, so ``per_core``
    #: list positions do not track core ids); ``None`` for single-core runs.
    core: Optional[int] = None

    def summary(self) -> Dict[str, float]:
        """The headline numbers as a flat dict (report rows)."""
        return {
            "offered_mpps": round(self.offered_mpps, 3),
            "capacity_mpps": round(self.capacity_mpps, 3),
            "achieved_mpps": round(self.achieved_mpps, 3),
            "achieved_gbps": round(self.achieved_gbps, 3),
            "drop_fraction": round(self.drop_fraction, 4),
            "switch_cpu_share": round(self.switch_cpu_share, 4),
            "sketch_cpu_share": round(self.sketch_cpu_share, 4),
        }


class SwitchSimulator:
    """Drives a trace through a pipeline (+ optional measurement daemon)."""

    def __init__(
        self,
        pipeline: SwitchPipeline,
        daemon: Optional[MeasurementDaemon] = None,
        cost_model: Optional[CostModel] = None,
        nic: NICModel = XL710_40G,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.pipeline = pipeline
        self.daemon = daemon
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.nic = nic
        self.telemetry = telemetry
        # Fan the sink out so pipeline stages and the daemon's monitor
        # all record into the same registry/tracer.
        if telemetry is not NULL_TELEMETRY:
            pipeline.telemetry = telemetry
            if daemon is not None:
                daemon.telemetry = telemetry
                daemon.monitor.telemetry = telemetry
                # The shadow auditor (when attached) exports its error
                # gauges into the same registry as everything else.
                auditor = daemon.auditor
                if auditor is not None:
                    auditor.telemetry = telemetry
                    inner = getattr(auditor, "auditor", None)
                    if inner is not None:
                        inner.telemetry = telemetry

    def run(
        self,
        trace: Trace,
        batch_size: int = 32,
        offered_gbps: Optional[float] = None,
    ) -> SimulationResult:
        """Simulate the full trace; returns the performance summary."""
        replayer = Replayer(trace, batch_size=batch_size, offered_gbps=offered_gbps)
        switch_ops = OpCounter()
        for batch in replayer:
            self.pipeline.forward_batch(batch, switch_ops)
            if self.daemon is not None:
                self.daemon.ingest(batch)
        return self._evaluate(trace, switch_ops, replayer.offered_rate_mpps)

    def _evaluate(
        self, trace: Trace, switch_ops: OpCounter, offered_mpps: float
    ) -> SimulationResult:
        cost = self.cost_model
        costs = cost.costs
        switch_breakdown = cost.breakdown(switch_ops, self.pipeline.working_set_bytes())
        switch_pp = switch_breakdown.per_packet()

        sketch_breakdown = CycleBreakdown()
        sketch_pp = 0.0
        daemon_name = "none"
        if self.daemon is not None:
            daemon_name = self.daemon.name
            sketch_breakdown = cost.breakdown(self.daemon.ops, self.daemon.memory_bytes())
            sketch_breakdown.packets = max(
                sketch_breakdown.packets, self.daemon.packets_offered
            )
            sketch_pp = sketch_breakdown.total() / max(self.daemon.packets_offered, 1)

        clock_hz = costs.clock_ghz * 1e9
        switch_thread_pp = switch_pp
        if self.daemon is None:
            capacity_mpps = clock_hz / max(switch_pp, 1e-9) / 1e6
        elif self.daemon.mode is IntegrationMode.ALL_IN_ONE:
            capacity_mpps = clock_hz / max(switch_pp + sketch_pp, 1e-9) / 1e6
        else:
            # Switch thread: forwarding + pre-processing copy of the
            # headers the daemon wants; measurement thread: the sketch.
            copy_pp = costs.memcpy * self.daemon.sampled_fraction()
            switch_thread_pp = switch_pp + copy_pp
            switch_bound = clock_hz / max(switch_thread_pp, 1e-9) / 1e6
            sketch_bound = clock_hz / max(sketch_pp, 1e-9) / 1e6
            capacity_mpps = min(switch_bound, sketch_bound)

        deliverable = self.nic.deliverable_mpps(trace.mean_packet_size)
        achieved_mpps = min(offered_mpps, capacity_mpps, deliverable)
        drop_fraction = (
            0.0 if offered_mpps <= 0 else max(0.0, 1.0 - achieved_mpps / offered_mpps)
        )

        switch_share = achieved_mpps * 1e6 * switch_thread_pp / clock_hz
        sketch_share = achieved_mpps * 1e6 * sketch_pp / clock_hz

        telemetry = self.telemetry
        run_labels = {"platform": self.pipeline.name, "daemon": daemon_name}
        telemetry.gauge("simulator_capacity_mpps", capacity_mpps, **run_labels)
        telemetry.gauge("simulator_achieved_mpps", achieved_mpps, **run_labels)
        telemetry.gauge(
            "simulator_cpu_share", min(switch_share, 1.0), component="switch", **run_labels
        )
        telemetry.gauge(
            "simulator_cpu_share", min(sketch_share, 1.0), component="sketch", **run_labels
        )
        telemetry.record_ops(switch_ops, component=self.pipeline.name)
        telemetry.event(
            "simulate.run",
            platform=self.pipeline.name,
            daemon=daemon_name,
            packets=len(trace),
            offered_mpps=offered_mpps,
            capacity_mpps=capacity_mpps,
            achieved_mpps=achieved_mpps,
            drop_fraction=drop_fraction,
        )

        return SimulationResult(
            platform=self.pipeline.name,
            daemon_name=daemon_name,
            packets=len(trace),
            mean_packet_size=trace.mean_packet_size,
            offered_mpps=offered_mpps,
            capacity_mpps=capacity_mpps,
            achieved_mpps=achieved_mpps,
            achieved_gbps=mpps_to_gbps(achieved_mpps, trace.mean_packet_size),
            drop_fraction=drop_fraction,
            switch_cycles_per_packet=switch_pp,
            sketch_cycles_per_packet=sketch_pp,
            switch_cpu_share=min(switch_share, 1.0),
            sketch_cpu_share=min(sketch_share, 1.0),
            switch_breakdown=switch_breakdown,
            sketch_breakdown=sketch_breakdown,
        )
