#!/usr/bin/env python
"""Distributed monitoring: per-core sketches merged at the control plane.

Real deployments shard traffic across PMD cores (NIC RSS) or across
switches; sketch linearity makes the aggregate view exact: each vantage
point runs its own NitroSketch with the *same seed*, serializes its
counters over the control link (Section 6's 1GbE), and the controller
sums them.

This example shards a trace across three simulated cores, runs one
NitroSketch per core, ships each core's state across the modelled
control link, merges, and shows that the merged heavy hitters match a
single monolithic monitor.  A live shadow auditor rides the merged
view -- exact ground truth for a uniform flow sample, checked against
the Theorem 2 ``eps * L2`` bound -- and the run's metrics plus a
``/health`` verdict are served over HTTP for the duration of the run.

Run:  python examples/distributed_monitoring.py
"""

from repro.control import ControlLink, deserialize_sketch, serialize_sketch
from repro.core import NitroConfig, NitroSketch
from repro.metrics import heavy_hitter_truth, recall
from repro.sketches import CountSketch
from repro.switchsim import MultiCoreSimulator, OVSDPDKPipeline
from repro.telemetry import AlertManager, Telemetry, TelemetryServer
from repro.telemetry.audit import GuaranteeMonitor, ShadowAuditor
from repro.telemetry.health import health_rules
from repro.traffic import caida_like

CORES = 3
SEED = 33


def make_monitor() -> NitroSketch:
    # Same seed everywhere => identical hash functions => mergeable.
    return NitroSketch(
        CountSketch(5, 65536, seed=SEED),
        NitroConfig(probability=0.02, top_k=200, seed=SEED),
    )


def main() -> None:
    trace = caida_like(900_000, n_flows=80_000, seed=SEED)
    counts = trace.counts()
    threshold = 0.0005 * len(trace)
    truth = heavy_hitter_truth(counts, 0.0005)

    # --- observability: auditor + health endpoint ------------------------
    telemetry = Telemetry()
    auditor = ShadowAuditor(capacity=256, seed=SEED, telemetry=telemetry)
    health = AlertManager(telemetry, health_rules(error_slo=5.0))
    server = TelemetryServer(telemetry, port=0, health=health).start()
    print(
        "telemetry: /metrics /snapshot /health on http://127.0.0.1:%d"
        % server.port
    )

    # --- shard across cores (RSS keeps flows core-local) ----------------
    sharder = MultiCoreSimulator(lambda core: OVSDPDKPipeline(), cores=CORES)
    shards = sharder.shard(trace)
    link = ControlLink(rate_gbps=1.0)

    monitors = []
    total_link_ms = 0.0
    for core, shard in enumerate(shards):
        monitor = make_monitor()
        monitor.update_batch(shard.keys)
        blob = serialize_sketch(monitor.sketch)
        total_link_ms += 1000 * link.transfer_seconds(len(blob))
        print(
            "core %d: %6d packets, %5.1f KB exported" % (core, len(shard), len(blob) / 1024)
        )
        monitors.append((monitor, blob))

    # --- control plane: rebuild + merge ----------------------------------
    merged, _ = monitors[0]
    for monitor, blob in monitors[1:]:
        remote = deserialize_sketch(blob)  # what actually crossed the link
        merged.sketch.merge(remote)
        for key in monitor.topk.keys():
            merged.topk.offer(key, merged.sketch.query(key))
    print("control link busy %.2f ms/epoch for %d cores" % (total_link_ms, CORES))

    # --- compare against a monolithic monitor ----------------------------
    monolithic = make_monitor()
    monolithic.update_batch(trace.keys)

    merged_found = {key for key, _ in merged.heavy_hitters(threshold)}
    mono_found = {key for key, _ in monolithic.heavy_hitters(threshold)}
    print(
        "heavy hitters: merged recall %.1f%%, monolithic recall %.1f%%, "
        "overlap %d/%d"
        % (
            100 * recall(merged_found, truth),
            100 * recall(mono_found, truth),
            len(merged_found & mono_found),
            len(mono_found),
        )
    )
    top_flow = max(counts, key=counts.get)
    print(
        "largest flow: truth=%d merged=%.0f monolithic=%.0f"
        % (counts[top_flow], merged.query(top_flow), monolithic.query(top_flow))
    )

    # --- audit the merged view against the Theorem 2 bound ---------------
    guard = GuaranteeMonitor(auditor, merged, epsilon=0.5)
    guard.observe_batch(trace.keys)
    check = guard.check()
    health.evaluate()
    print(
        "audit: %d tracked flows, observed max error %.0f vs %s bound %.0f "
        "(ratio %.3f), violations %d, health %s"
        % (
            auditor.tracked_flows,
            check.observed_max_error,
            check.guarantee,
            check.bound,
            check.ratio,
            guard.violations,
            health.verdict(),
        )
    )
    server.close()


if __name__ == "__main__":
    main()
