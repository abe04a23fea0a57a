"""``parallel-merge``: the multiprocess engine, 2 workers, ``merge`` strategy.

``ParallelIngestEngine`` forks one worker per RSS shard; each ingests its
shard of a CAIDA-like trace into a private NitroSketch and publishes one
CRC-checked frame per 500k-packet epoch through its shared-memory
mailbox; the parent decodes, acks and merges the frames in worker order.
It is the only workload that exercises ``parallel/``.  The monitor has
the served tenant's geometry and sampling probability, built by the
engine's picklable ``NitroFactory``.

One engine run replays the whole trace; a run's rate counts from its
first merged epoch to its last, so the fork and start-up of the workers
fall in ``setup_s`` instead.  The host probe runs on each CPU between
engine runs, never beside the workers.
"""

from __future__ import annotations

import time

from perfbench import common

WORKERS = 2
EPOCH_PACKETS = 500_000
EPOCHS = 8
BATCH = 16384
SETUP_REPEATS = 5
QUERIES_PER_RUN = 6


def factory(seed: int):
    from repro.parallel import NitroFactory
    from repro.service.tenants import ServiceConfig

    config = ServiceConfig()
    return NitroFactory(
        sketch="countsketch", depth=config.depth, width=config.width,
        probability=config.probability, top_k=config.top_k, seed=seed,
    )


def engine(seed: int, epoch_packets: int):
    from repro.parallel import ParallelIngestEngine

    return ParallelIngestEngine(
        factory(seed), workers=WORKERS, strategy="merge",
        epoch_packets=epoch_packets, batch_size=BATCH, deadline_seconds=60.0,
    )


def check_run(result, n_packets: int) -> None:
    """Every packet reached exactly one worker and the merged monitor."""
    problems = []
    shard_packets = sum(stats.packets for stats in result.worker_stats)
    if result.packets != n_packets or shard_packets != n_packets:
        problems.append("run covered %d packets, workers %d, trace %d" % (
            result.packets, shard_packets, n_packets))
    if result.monitor.packets_seen != n_packets:
        problems.append("merged monitor saw %d of %d packets" % (result.monitor.packets_seen, n_packets))
    problems.extend(result.monitor.check_invariants())
    if problems:
        raise common.CheckFailed("parallel-merge: " + "; ".join(problems))


def _frame_decode_attrs(args, kwargs):
    return {"bytes": len(args[0])}


def install_parent_spans(ledger) -> None:
    """Spans around the parent's per-frame decode and per-epoch merge.

    Both are looked up in the engine module's namespace at call time, so
    wrapping them there is enough.  Worker-side layers run in the worker
    processes; they are read from ``ParallelRunResult.worker_stats``.
    """
    from repro.parallel import engine as engine_module

    ledger.wrap(engine_module, "deserialize_epoch_frame", "parallel.frame_decode", attrs=_frame_decode_attrs)
    ledger.wrap(engine_module, "_merge_monitors", "parallel.merge")


def run(ctx):
    from repro.control.export import serialize_monitor

    epoch_packets = 16384 if ctx.tiny else EPOCH_PACKETS
    n_packets = epoch_packets * (4 if ctx.tiny else EPOCHS)
    keys = common.caida_keys(n_packets, 5_000 if ctx.tiny else 200_000, ctx.seed)
    unique, counts = common.key_counts(keys)
    probe = common.QueryProbe(unique, ctx.seed)

    ops = common.Ops()
    # The workers run on every CPU, so each is probed in turn.
    host = common.HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        # Ready = workers forked, mailboxes up, first frame merged.
        host.restart()
        start = time.perf_counter()
        result = engine(ctx.seed, epoch_packets).run(keys[:BATCH])
        setups.append((time.perf_counter() - start) / host.scale())
        check_run(result, BATCH)
        ops.add(WORKERS + result.epochs, result.restarts)

    ledger = None
    if ctx.traced:
        ledger = ctx.ledger()
        install_parent_spans(ledger)

    common.reset_rss_peak()
    meter = common.Meter(host)
    closes, queries, worker_stats, agg_cpu = [], [], [], []
    restarts = 0
    reference = None
    stop_at = time.perf_counter() + ctx.seconds
    try:
        while True:
            landed, reports = [], []

            def on_epoch(epoch, merged, metas):
                landed.append(time.perf_counter())
                # Merged epochs are cumulative: report over all packets so far.
                report = merged.heavy_hitters(common.HH_SHARE * epoch_packets * (epoch + 1))
                reports.append((time.perf_counter() - landed[-1]) * 1e3)
                if not report:
                    raise common.CheckFailed("parallel-merge: epoch %d report is empty" % epoch)

            result = engine(ctx.seed, epoch_packets).run(keys, on_epoch=on_epoch)
            # A restarted worker is a failed operation the engine recovers from.
            ops.add(WORKERS + result.epochs, result.restarts)
            check_run(result, n_packets)
            state = serialize_monitor(result.monitor)
            if reference is None:
                reference = state
            elif state != reference:
                raise common.CheckFailed("parallel-merge: two runs over the same trace merged differently")
            rate = (n_packets - epoch_packets) / (landed[-1] - landed[0]) / 1e6
            meter.add(n_packets - epoch_packets, landed[-1] - landed[0])
            closes.append((rate, reports))
            worker_stats.extend(result.worker_stats)
            agg_cpu.append(result.aggregate_cpu_mpps)
            restarts += result.restarts
            before = len(probe.latencies)
            probe.run(result.monitor, n_packets, QUERIES_PER_RUN)
            queries.append((rate, probe.latencies[before:]))
            if time.perf_counter() >= stop_at and len(meter.rates) >= 3:
                break
            common.deadline_guard(ctx.deadline, "parallel-merge ingest")
    finally:
        if ledger is not None:
            ledger.close()
    rss = common.rss_peak_mb()

    oracle = engine(ctx.seed, epoch_packets).run_sequential(keys)
    if serialize_monitor(oracle.monitor) != reference:
        raise common.CheckFailed("parallel-merge: merged monitor differs from run_sequential")
    recall, are = common.score_monitor(result.monitor, unique, counts)
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
        from perfbench.ledger import layer_times

        times = layer_times(ledger.spans)
        layers = {
            "parallel.worker_busy_s": sum(entry.busy_wall_seconds for entry in worker_stats),
            "parallel.worker_cpu_s": sum(entry.busy_cpu_seconds for entry in worker_stats),
            "parallel.publish_wait_s": sum(entry.publish_wait_seconds for entry in worker_stats),
            "parallel.frame_decode_s": times.get("parallel.frame_decode", {}).get("busy", 0.0),
            "parallel.parent_merge_s": times.get("parallel.merge", {}).get("busy", 0.0),
            "parallel.agg_cpu_mpps": common.median(agg_cpu),
            "parallel.restarts": float(restarts),
        }
        ctx.save_spans(ledger)
    return e2e, layers, ops
