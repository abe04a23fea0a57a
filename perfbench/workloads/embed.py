"""``embed-caida``: one in-process daemon on a CAIDA-like trace, closed loop.

The per-packet path (geometric skip, row hash, scatter, top-k offers)
does almost all the work; no serving, window or epoch layer runs.  The
monitor is the one a served tenant gets, so the gap to
``serve-windowed`` isolates the serving layers.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import common

BATCH = 16384
#: Batches per reporting epoch: the caller reads heavy hitters once per
#: epoch, the way an embedding application publishes results.
EPOCH_BATCHES = 8
SETUP_REPEATS = 5
QUERIES_PER_EPOCH = 6


def build_daemon(batches):
    """The embedded stack, warmed up until AlwaysCorrect converged.

    Returns ``(daemon, batches fed during warm-up)``.
    """
    from repro.service import records
    from repro.service.tenants import ServiceConfig
    from repro.switchsim.daemon import MeasurementDaemon

    monitor = ServiceConfig().build_monitor("embed")
    daemon = MeasurementDaemon(monitor, name="embed")
    fed = 0
    while not monitor.converged:
        if fed >= len(batches):
            raise common.CheckFailed("AlwaysCorrect never converged during warm-up")
        daemon.ingest(records.batch_from_keys(batches[fed]))
        fed += 1
    return daemon, fed


def check_conservation(daemon, packets_fed: int) -> None:
    """Every packet handed to the daemon reached the sketch."""
    problems = list(daemon.check_invariants())
    seen = getattr(daemon.monitor, "packets_seen", None)
    if daemon.packets_offered != packets_fed:
        problems.append("daemon saw %d packets, %d were fed" % (daemon.packets_offered, packets_fed))
    if seen != packets_fed:
        problems.append("monitor ingested %s packets, %d were fed" % (seen, packets_fed))
    if problems:
        raise common.CheckFailed("embed-caida: " + "; ".join(problems))


def run(ctx):
    from repro.service import records

    n_packets = BATCH * (8 if ctx.tiny else 128)
    keys = common.caida_keys(n_packets, 5_000 if ctx.tiny else 200_000, ctx.seed)
    batches = [keys[start:start + BATCH] for start in range(0, n_packets, BATCH)]
    wrapped = [records.batch_from_keys(piece) for piece in batches]
    probe = common.QueryProbe(np.unique(keys), ctx.seed)

    common.pin_to_one_cpu()
    host = common.HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        host.restart()
        start = time.perf_counter()
        daemon, fed = build_daemon(batches)
        setups.append((time.perf_counter() - start) / host.scale())
    monitor = daemon.monitor

    ledger = profiler_sink = None
    if ctx.traced:
        ledger = ctx.ledger()
        common.install_layer_spans(ledger)
        daemon.profiler, profiler_sink = common.stage_profiler()

    common.reset_rss_peak()
    meter = common.Meter(host)
    closes, queries = [], []
    batch_index = fed
    packets = fed * BATCH
    stop_at = time.perf_counter() + ctx.seconds
    try:
        while True:
            start = time.perf_counter()
            for _ in range(EPOCH_BATCHES):
                daemon.ingest(wrapped[batch_index % len(wrapped)])
                batch_index += 1
            packets += EPOCH_BATCHES * BATCH
            close_start = time.perf_counter()
            report = monitor.heavy_hitters(common.HH_SHARE * packets)
            end = time.perf_counter()
            if not report:
                raise common.CheckFailed("embed-caida: epoch report is empty")
            rate = EPOCH_BATCHES * BATCH / (end - start) / 1e6
            meter.add(EPOCH_BATCHES * BATCH, end - start)
            closes.append((rate, [(end - close_start) * 1e3]))
            before = len(probe.latencies)
            probe.run(monitor, packets, QUERIES_PER_EPOCH)
            queries.append((rate, probe.latencies[before:]))
            if end >= stop_at and len(meter.rates) >= 3:
                break
            common.deadline_guard(ctx.deadline, "embed-caida ingest")
    finally:
        if ledger is not None:
            ledger.close()
    rss = common.rss_peak_mb()

    ops = common.Ops()
    ops.add(batch_index + len(closes))
    check_conservation(daemon, packets)
    unique, counts = common.stream_counts(keys, batch_index // len(batches), (batch_index % len(batches)) * BATCH)
    recall, are = common.score_monitor(monitor, unique, counts)
    ops.add(len(probe.latencies))
    latencies = common.steady_samples(queries)
    closes = common.steady_samples(closes)

    e2e = {
        "ingest_mpps": meter.rate(),
        "setup_s": common.median(setups),
        "rss_peak_mb": rss,
        "hh_recall": recall,
        "hh_are": are,
        "query_p50_ms": common.percentile(latencies, 50),
        "query_p90_ms": common.percentile(latencies, 90),
        "epoch_close_p50_ms": common.percentile(closes, 50),
        "epoch_close_p95_ms": common.percentile(closes, 95),
    }
    layers = {}
    if ledger is not None:
        layers = common.traced_layers(ledger, profiler_sink, [daemon.ops])
        layers["daemon.batches_dropped"] = float(daemon.batches_dropped)
        ctx.save_spans(ledger)
    return e2e, layers, ops
