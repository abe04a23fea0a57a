"""The server process of ``serve-windowed``, started by the benchmark.

Run as ``python3 -m perfbench.serve_child`` from the checkout root with
``src`` on ``PYTHONPATH``.  It starts a ``MonitoringService`` on
loopback with ephemeral ports, creates the windowed tenants, prints one
JSON line with the ports, and serves until it reads ``stop`` (or end of
file) on standard input.  It then stops the service gracefully and
prints one JSON report line: peak RSS, epoch-close times, tenant stats
and, when traced, the server-side layer ledger (its spans go to
``<out>-server-spans.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from perfbench import common
from perfbench.ledger import Ledger

#: Per-tenant queue bound: small, so a full queue pushes back on the
#: client through TCP within a fraction of a second.
QUEUE_CAPACITY = 32


def service_config():
    """The tenant configuration of ``serve-windowed`` (also used to replay)."""
    from repro.service.tenants import ServiceConfig

    return ServiceConfig(
        window_epochs=4, epoch_batches=16, overflow="wait", queue_capacity=QUEUE_CAPACITY
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="serve-windowed server process")
    parser.add_argument("--tenants", required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.service.server import MonitoringService
    from repro.switchsim.daemon import MeasurementDaemon

    ledger = sink = None
    if args.traced:
        ledger = Ledger(prefix="s")
        common.install_layer_spans(ledger)
        profiler, sink = common.stage_profiler()

    closes = []
    boundary = MeasurementDaemon.epoch_boundary

    def timed_boundary(self):
        start = time.perf_counter()
        boundary(self)
        closes.append((start, (time.perf_counter() - start) * 1e3))

    MeasurementDaemon.epoch_boundary = timed_boundary

    service = MonitoringService(service_config(), host="127.0.0.1").start()
    tenants = args.tenants.split(",")
    for tenant in tenants:
        state = service.tenants.get_or_create(tenant)
        if ledger is not None:
            state.daemon.profiler = profiler
    print(json.dumps({"ingest_port": service.ingest_port, "http_port": service.http_port}), flush=True)

    for line in sys.stdin:
        if line.strip() == "stop":
            break
    service.stop()
    MeasurementDaemon.epoch_boundary = boundary

    states = service.tenant_states()
    report = {
        "rss_peak_mb": common.rss_peak_mb(),
        # (perf_counter start, ms): CLOCK_MONOTONIC, comparable across processes.
        "epoch_close": closes,
        "tenants": {state.name: state.stats() for state in states},
        "resident": len(service.tenants),
    }
    if ledger is not None:
        ledger.close()
        path = args.out + "-server-spans.jsonl"
        ledger.write_jsonl(path)
        report["spans"] = path
        report["layers"] = common.traced_layers(ledger, sink, [s.daemon.ops for s in states])
        report["layers"]["daemon.batches_dropped"] = float(sum(s.daemon.batches_dropped for s in states))
        dispatches = [s for s in ledger.spans if s.name == "query.dispatch" and s.attrs]
        report["dispatch_ms"] = {s.attrs["query"]: (s.end - s.start) * 1e3 for s in dispatches}
        report["dispatch_by_endpoint"] = {}
        for span in dispatches:
            report["dispatch_by_endpoint"].setdefault(span.attrs["endpoint"], []).append(
                (span.end - span.start) * 1e3
            )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
