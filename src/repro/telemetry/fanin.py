"""Per-worker metrics fan-in for the parallel data plane.

Worker processes cannot share a :class:`~repro.telemetry.Telemetry`
instance (it is in-process state), so each worker accounts for itself
inside its epoch-frame metadata and the parent fans the numbers into
the session's telemetry sink here -- one flat namespace, labeled by
worker id, exactly like a multi-queue NIC exports per-queue counters.
"""

from __future__ import annotations


def record_parallel_run(telemetry, result) -> None:
    """Fan one :class:`~repro.parallel.ParallelRunResult` into a sink.

    Emits per-worker counters/gauges (labeled ``worker=<id>``), the
    aggregate measured rates, and one ``parallel.run`` event carrying
    the run's shape -- enough for the dashboard to show per-queue skew
    and for alert rules to watch restart counts.
    """
    telemetry.gauge("parallel_workers", result.workers)
    telemetry.gauge("parallel_host_cpus", result.host_cpus)
    for stats in result.worker_stats:
        label = str(stats.worker)
        telemetry.count("parallel_worker_packets_total", stats.packets, worker=label)
        telemetry.count("parallel_worker_batches_total", stats.batches, worker=label)
        telemetry.observe(
            "parallel_worker_busy_seconds", stats.busy_wall_seconds, worker=label
        )
        telemetry.gauge("parallel_worker_cpu_mpps", stats.cpu_mpps, worker=label)
        telemetry.gauge("parallel_worker_restarts", stats.restarts, worker=label)
        telemetry.observe(
            "parallel_mailbox_publish_wait_seconds",
            stats.publish_wait_seconds,
            worker=label,
        )
    telemetry.gauge("parallel_wall_mpps", result.wall_mpps)
    telemetry.gauge("parallel_aggregate_cpu_mpps", result.aggregate_cpu_mpps)
    telemetry.gauge("parallel_aggregate_busy_mpps", result.aggregate_busy_mpps)
    telemetry.event(
        "parallel.run",
        strategy=result.strategy,
        workers=result.workers,
        packets=result.packets,
        epochs=result.epochs,
        restarts=result.restarts,
        wall_seconds=result.wall_seconds,
        wall_mpps=result.wall_mpps,
        aggregate_cpu_mpps=result.aggregate_cpu_mpps,
        start_method=result.start_method,
    )


def record_service_state(telemetry, service) -> None:
    """Fan one :class:`~repro.service.MonitoringService`'s tenant table
    into the sink.

    Point-in-time gauges only (the wire path owns the counters): the
    tenant-table totals plus per-tenant queue depth and sketch memory,
    labeled ``tenant=<id>`` exactly like the per-worker parallel gauges
    -- the ``nitrosketch top`` tenants panel and the Prometheus scrape
    read the same families.
    """
    stats = service.tenants.stats()
    with telemetry.atomic():
        telemetry.gauge("service_tenants_active", stats["tenants"])
        telemetry.gauge("service_memory_bytes", stats["memory_bytes"])
        telemetry.gauge(
            "service_connections_active", service.connections_active
        )
    for state in service.tenants.states():
        with state.lock:
            depth = state.daemon.queue_depth
            memory = state.daemon.memory_bytes()
        with telemetry.atomic():
            telemetry.gauge("service_queue_depth", depth, tenant=state.name)
            telemetry.gauge(
                "service_tenant_memory_bytes", memory, tenant=state.name
            )
