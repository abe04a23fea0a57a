"""Command-line interface: ``nitrosketch <subcommand>``.

Subcommands:

* ``generate`` -- synthesise a trace family to ``.npz`` or ``.pcap``;
* ``monitor``  -- run a (Nitro-)sketch over a trace file and report
  heavy hitters / entropy / distinct flows;
* ``simulate`` -- run the software-switch simulator over a trace and
  report throughput and CPU shares;
* ``experiment`` -- regenerate a paper table/figure by name;
* ``telemetry`` -- run the ``clean`` scenario, dump/validate a metrics
  snapshot (Prometheus text or JSON), export a JSONL event trace, or
  serve everything over HTTP (see docs/OBSERVABILITY.md);
* ``audit`` -- run the ``clean`` (or, with ``--corrupt``, the
  ``corrupt``) scenario, serve and probe the ``/health`` endpoint, and
  exit non-zero when the verdict or the alerts behind it disagree with
  the expectation (the CI audit-smoke job's entry point);
* ``top`` -- live terminal dashboard (error vs bound, p, throughput,
  per-stage timings, alerts) over a ``/snapshot`` URL or an in-process
  ``clean`` scenario run;
* ``chaos`` -- fault-injection harness: kill-mid-epoch, truncated and
  corrupted checkpoints, dropped exports, each followed by recovery and
  a shadow-audited bound check (the CI chaos-smoke job's entry point;
  see docs/RECOVERY.md);
* ``selfcheck`` -- the differential + statistical correctness harness:
  every ingest path against the vanilla oracle, the sampling process
  against its closed-form math, the stack's cross-component invariants
  under load, the parallel plane against its sequential oracle, and the
  sliding-window substrate against from-scratch window oracles;
  exits non-zero on any violation (the CI selfcheck-smoke,
  parallel-smoke and windows-smoke jobs' entry point; see
  docs/VERIFICATION.md);
* ``parallel`` -- run the multiprocess shared-memory ingest engine over
  a trace and report per-worker and aggregate throughput honestly
  (wall, CPU-clock, busy-wall -- see docs/PARALLELISM.md);
* ``trace`` -- run the parallel engine with span tracing on and render
  the per-epoch trace tree: worker ingest and mailbox-publish spans
  (shipped across process boundaries in the epoch-frame metadata)
  nested under the parent's epoch/CRC/merge spans;
* ``profile`` -- ingest a trace with the per-stage latency profiler
  attached and report count/total/p50/p95/p99 per pipeline stage plus
  flamegraph-compatible collapsed stacks (see docs/OBSERVABILITY.md);
* ``serve`` -- the always-on monitoring service: an asyncio ingest
  endpoint accepting framed key batches from concurrent clients into
  per-tenant sketch namespaces (LRU + idle eviction under one memory
  budget), a REST query plane (``/tenants/<id>/heavy_hitters``
  ``/point`` ``/entropy`` ``/change`` ``/reports`` next to ``/metrics``
  ``/health``), checkpoint-on-exit and restore-on-start (see
  docs/SERVICE.md).

Examples::

    nitrosketch generate caida --packets 1000000 --out trace.npz
    nitrosketch monitor trace.npz --sketch univmon --probability 0.01
    nitrosketch simulate trace.npz --platform ovs --mode separate
    nitrosketch experiment fig8 --scale 0.05
    nitrosketch telemetry --demo --format prom
    nitrosketch telemetry --demo --serve --port 9109
    nitrosketch audit --packets 50000
    nitrosketch audit --corrupt
    nitrosketch chaos --quick
    nitrosketch selfcheck --quick
    nitrosketch selfcheck --suite differential --seed 3
    nitrosketch selfcheck --suite parallel --quick
    nitrosketch parallel --workers 4 --packets 400000
    nitrosketch trace --workers 2 --packets 100000
    nitrosketch profile --packets 200000 --sample-every 4
    nitrosketch top --url http://127.0.0.1:9109/snapshot
    nitrosketch alerts --demo
    nitrosketch alerts --demo --serve --port 9109
    nitrosketch alerts --eval --packets 20000
    nitrosketch serve --ingest-port 9200 --http-port 9109 --checkpoint-dir /var/lib/nitro
    nitrosketch serve --demo --duration 5
    nitrosketch selfcheck --suite service --quick
"""

from __future__ import annotations

import argparse
import importlib
import operator
import sys
from typing import Optional

from repro.core import NitroMode, nitro_countmin, nitro_countsketch, nitro_kary, nitro_univmon
from repro.experiments.common import vanilla_monitor
from repro.experiments.report import print_result
from repro.faults.chaos import MIN_PACKETS as CHAOS_MIN_PACKETS
from repro.metrics.accuracy import (
    empirical_entropy,
    heavy_hitter_truth,
    mean_relative_error,
    recall,
)
from repro.switchsim import (
    BESSPipeline,
    IntegrationMode,
    MeasurementDaemon,
    OVSDPDKPipeline,
    SwitchSimulator,
    VPPPipeline,
)
from repro.traffic import TRACE_FAMILIES, caida_like, load_trace, read_pcap, save_trace, write_pcap

EXPERIMENT_NAMES = (
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ablation",
    "adaptive",
    "validation",
    "parallel_scaling",
)

PLATFORMS = {
    "ovs": OVSDPDKPipeline,
    "vpp": VPPPipeline,
    "bess": BESSPipeline,
}

#: Per command, the legal range of each flag whose out-of-range values
#: would otherwise end in a traceback deep in the stack.  ``main`` checks
#: them all: ``<command>: --flag must be <rule>`` and exit code 2.
FLAG_RANGES = {
    "telemetry": {"packets": ">= 1", "trace_capacity": ">= 1"},
    "audit": {"packets": ">= 1"},
    "top": {"packets": ">= 1", "interval": "> 0"},
    "alerts": {"packets": ">= 1"},
    "profile": {"sample_every": ">= 1", "batch_size": ">= 1", "history_capacity": ">= 4"},
    "trace": {"workers": ">= 1", "batch_size": ">= 1"},
    "parallel": {"workers": ">= 1", "batch_size": ">= 1"},
    "chaos": {"packets": ">= %d" % CHAOS_MIN_PACKETS},
}

#: The mean relative-error SLO behind the views' ``/health``.  A shadow
#: auditor rides every scenario, and the scenarios' sketches are sized to
#: hold their eps bounds, not the stock 5% mean error over sampled mice.
SCENARIO_ERROR_SLO = 5.0


def _load_trace(args):
    """The ``trace`` file argument, or a synthetic CAIDA-like trace of
    ``--packets`` packets when it is omitted."""
    if args.trace is None:
        return caida_like(args.packets, seed=args.seed)
    if args.trace.endswith(".pcap"):
        return read_pcap(args.trace)
    return load_trace(args.trace)


def _build_monitor(args):
    nitro_factories = {
        "cm": nitro_countmin,
        "cs": nitro_countsketch,
        "kary": nitro_kary,
    }
    mode = NitroMode(args.mode) if args.vanilla is False else None
    if args.vanilla:
        return vanilla_monitor(args.sketch, seed=args.seed, k=args.top_k)
    if args.sketch == "univmon":
        return nitro_univmon(
            probability=args.probability, mode=mode, k=args.top_k, seed=args.seed
        )
    return nitro_factories[args.sketch](
        probability=args.probability, mode=mode, top_k=args.top_k, seed=args.seed
    )


def cmd_generate(args) -> int:
    generator = TRACE_FAMILIES[args.family]
    trace = generator(args.packets, seed=args.seed)
    if args.out.endswith(".pcap"):
        write_pcap(trace, args.out)
    else:
        save_trace(trace, args.out)
    print(
        "wrote %s: %d packets, %d flows, mean size %.0fB"
        % (args.out, len(trace), trace.flow_count(), trace.mean_packet_size)
    )
    return 0


def cmd_monitor(args) -> int:
    trace = _load_trace(args)
    monitor = _build_monitor(args)
    monitor.update_batch(trace.keys)
    threshold = args.threshold * len(trace)
    hitters = monitor.heavy_hitters(threshold)
    counts = trace.counts()
    truth = heavy_hitter_truth(counts, args.threshold)
    print(
        "%d packets, %d flows; %d heavy hitters above %.3f%% "
        "(recall %.1f%%, mean rel. error %.2f%%)"
        % (
            len(trace),
            len(counts),
            len(hitters),
            100 * args.threshold,
            100 * recall({key for key, _ in hitters}, truth),
            100 * mean_relative_error(dict(hitters), counts),
        )
    )
    for key, estimate in hitters[: args.show]:
        print("  flow %20d  ~%.0f packets (true %d)" % (key, estimate, counts.get(key, 0)))
    if hasattr(monitor, "entropy_estimate"):
        print(
            "entropy: %.3f bits (true %.3f)"
            % (monitor.entropy_estimate(), empirical_entropy(counts))
        )
    if hasattr(monitor, "distinct_estimate"):
        print("distinct flows: ~%.0f (true %d)" % (monitor.distinct_estimate(), len(counts)))
    return 0


def cmd_simulate(args) -> int:
    trace = _load_trace(args)
    monitor = _build_monitor(args)
    mode = (
        IntegrationMode.SEPARATE_THREAD
        if args.integration == "separate"
        else IntegrationMode.ALL_IN_ONE
    )
    daemon = MeasurementDaemon(monitor, mode, name=args.sketch, use_batch=False)
    simulator = SwitchSimulator(PLATFORMS[args.platform](), daemon)
    result = simulator.run(trace, offered_gbps=args.offered_gbps)
    for key, value in result.summary().items():
        print("%-18s %s" % (key, value))
    return 0


def _start_server(telemetry, args, **routes):
    """Serve ``telemetry`` on the command's ``--host``/``--port``; ``/health``
    runs the stock rules at its ``--error-slo``, else at
    :data:`SCENARIO_ERROR_SLO`."""
    from repro.telemetry import AlertManager, TelemetryServer
    from repro.telemetry.health import health_rules

    slo = getattr(args, "error_slo", SCENARIO_ERROR_SLO)
    health = AlertManager(telemetry, health_rules(slo))
    return TelemetryServer(
        telemetry, host=args.host, port=args.port, health=health, **routes
    ).start()


def _park(
    banner: Optional[str] = None, seconds: float = 0.0, tick=None, every: float = 3600.0
) -> bool:
    """Wait while started servers answer from their daemon threads.

    Prints ``banner``, then waits ``seconds`` (when > 0) or until Ctrl-C
    / SIGINT, calling ``tick`` every ``every`` seconds meanwhile.
    Returns True when interrupted.  The caller closes what it started.
    """
    import time

    try:  # a SIGINT that follows the banner must land in this block
        if banner:
            print("%s (Ctrl-C to stop)" % banner, file=sys.stderr)
        if seconds > 0:
            time.sleep(seconds)
            return False
        while True:
            time.sleep(every)
            if tick is not None:
                tick()
    except KeyboardInterrupt:
        return True


def _get(url: str):
    """GET ``url``: (HTTP status, body), error statuses included."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:  # 503 carries the body too
        return error.code, error.read().decode("utf-8")


def cmd_telemetry(args) -> int:
    from repro.telemetry import SpanTracer, Telemetry

    if not args.demo and not args.serve:
        print("telemetry: nothing to do (pass --demo and/or --serve)", file=sys.stderr)
        return 2

    telemetry = Telemetry(spans=SpanTracer(capacity=args.trace_capacity))
    if args.demo:
        from repro.telemetry.scenario import Scenario

        scenario = Scenario("clean", telemetry, args.packets, args.seed)
        scenario.run()
        nitro = scenario.monitor
        print(
            "demo: %d packets, converged=%s at packet %s, p=%s"
            % (
                len(scenario.trace),
                nitro.converged,
                nitro.correctness.converged_at_packet,
                nitro.probability,
            ),
            file=sys.stderr,
        )
        problems = scenario.problems()
        for problem in problems:
            print("telemetry validation: %s" % problem, file=sys.stderr)
        if problems:
            return 1
        print("telemetry snapshot validated", file=sys.stderr)

    body = (
        telemetry.render_json() if args.format == "json" else telemetry.render_prometheus()
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(body)
        print("wrote %s" % args.out, file=sys.stderr)
    else:
        print(body, end="")

    if args.trace_out:
        count = telemetry.spans.write_jsonl(args.trace_out)
        print("wrote %d spans to %s" % (count, args.trace_out), file=sys.stderr)

    if args.serve:
        with _start_server(telemetry, args) as server:
            _park(
                "serving /metrics /snapshot /trace /health on http://%s:%d"
                % (args.host, server.port)
            )
    return 0


def cmd_audit(args) -> int:
    import json

    from repro.telemetry import Telemetry
    from repro.telemetry.scenario import Scenario

    telemetry = Telemetry()
    scenario = Scenario(
        "corrupt" if args.corrupt else "clean", telemetry, args.packets, args.seed
    )
    report = scenario.run()
    print(
        "audit: %d packets, %s bound %.1f, observed max error %.1f (ratio %.3f), "
        "violations %d"
        % (
            len(scenario.trace),
            report.guarantee,
            report.bound,
            report.observed_max_error,
            report.ratio,
            scenario.guard.violations,
        ),
        file=sys.stderr,
    )

    problems = scenario.problems()
    with _start_server(telemetry, args) as server:
        base = "http://%s:%d" % (args.host, server.port)
        http_status, body = _get(base + "/health")
        payload = json.loads(body)
        if args.serve:
            _park("serving /metrics /snapshot /trace /health on %s" % base)
    print(json.dumps(payload, indent=2, sort_keys=True))

    # The verdict must name the alert behind it, not just the status.
    firing = [alert for alert in payload["alerts"] if alert["state"] == "firing"]
    critical = [alert["alert"] for alert in firing if alert["severity"] == "critical"]
    failed = payload["status"] == "fail"
    if failed != args.corrupt or http_status != (503 if args.corrupt else 200):
        problems.append(
            "/health on the %s run returned %s (HTTP %d), expected %s"
            % (
                scenario.name,
                payload["status"],
                http_status,
                "fail (HTTP 503)" if args.corrupt else "ok/warn (HTTP 200)",
            )
        )
    if args.corrupt and "guarantee_violation" not in critical:
        problems.append(
            "/health on the corrupt run does not list guarantee_violation "
            "as firing (critical firing: %s)" % (", ".join(critical) or "none")
        )
    if not args.corrupt and critical:
        problems.append(
            "/health on the clean run has critical alert(s) firing: %s"
            % ", ".join(critical)
        )
    for problem in problems:
        print("audit: %s" % problem, file=sys.stderr)
    if not problems:
        print(
            "audit: %s path verified (/health %d, status %s, firing: %s)"
            % (
                "violation" if args.corrupt else "clean",
                http_status,
                payload["status"],
                ", ".join(alert["alert"] for alert in firing) or "none",
            ),
            file=sys.stderr,
        )
    return 1 if problems else 0


def cmd_alerts(args) -> int:
    import contextlib
    import json
    import re

    from repro.telemetry import Telemetry, WebhookReceiver
    from repro.telemetry.scenario import Scenario

    if not (args.demo or args.eval or args.serve):
        print(
            "alerts: nothing to do (pass --demo, --eval, and/or --serve)",
            file=sys.stderr,
        )
        return 2

    telemetry = Telemetry()
    problems = []
    fired = []
    with contextlib.ExitStack() as stack:
        server = stack.enter_context(_start_server(telemetry, args))
        base = "http://%s:%d" % (args.host, server.port)

        def on_transition(event):
            # Probe over real HTTP at the instant entropy_collapse fires.
            if event["alert"] != "entropy_collapse" or event["to"] != "firing":
                return
            fired.append(event)
            try:
                alerts = json.loads(_get(base + "/alerts")[1])
                metrics = _get(base + "/metrics")[1]
            except Exception as error:  # noqa: BLE001 - report, don't crash the run
                problems.append("HTTP probe at the firing instant failed: %s" % error)
                return
            if not any(
                status["alert"] == "entropy_collapse"
                for status in alerts.get("firing", [])
            ):
                problems.append(
                    "/alerts did not list entropy_collapse under 'firing' "
                    "at the firing instant"
                )
            pattern = (
                r'^ALERTS\{alertname="entropy_collapse",'
                r'alertstate="firing"[^}]*\} 1(\.0)?$'
            )
            if not re.search(pattern, metrics, re.MULTILINE):
                problems.append(
                    'no ALERTS{alertname="entropy_collapse",alertstate='
                    '"firing"} 1 sample in /metrics at the firing instant'
                )

        receiver = None
        webhook_url = args.url
        if args.demo and webhook_url is None:
            # Loopback receiver: proves webhook delivery over real HTTP.
            receiver = stack.enter_context(WebhookReceiver(host=args.host))
            webhook_url = receiver.url
        scenario = Scenario(
            "ddos", telemetry, args.packets, args.seed, webhook_url=webhook_url
        )
        manager = scenario.manager
        # Attach the live alert plane to the already-running server before
        # ingest, so /alerts, /rules and /history reflect the run as it
        # happens -- and so the firing-instant probe sees it.
        server.alerts = manager
        server.history = scenario.history
        if args.demo:
            manager.on_transition = on_transition
        scenario.run()
        print(
            "alerts: %d packets, %d epochs, entropy_collapse transitions %s"
            % (
                len(scenario.trace),
                scenario.daemon.epochs_completed,
                scenario.entropy_transitions(),
            ),
            file=sys.stderr,
        )

        if args.demo:
            problems += scenario.problems()
            if not fired:
                problems.append(
                    "entropy_collapse never fired, so the /alerts probe never ran"
                )
            if receiver is not None and not any(
                body.get("alert") == "entropy_collapse" for body in receiver.received
            ):
                problems.append("webhook receiver saw no entropy_collapse notification")
            for problem in problems:
                print("alerts: %s" % problem, file=sys.stderr)
            if not problems:
                print(
                    "alerts: lifecycle verified over HTTP (fired, notified, "
                    "resolved; webhook %s)"
                    % ("delivered" if webhook_url else "not configured"),
                    file=sys.stderr,
                )

        if args.eval:
            print(json.dumps(manager.as_dict(), indent=2, sort_keys=True))

        if args.serve:
            _park(
                "serving /metrics /snapshot /trace /alerts /rules /history "
                "/health on %s" % base
            )
    return 1 if problems else 0


def cmd_top(args) -> int:
    from repro.telemetry.dashboard import SnapshotSource, TopLoop

    if (args.url is None) == (not args.demo):
        print("top: pass exactly one of --url or --demo", file=sys.stderr)
        return 2
    if args.url is not None:
        source = SnapshotSource(url=args.url)
    else:
        from repro.telemetry import AlertManager, Telemetry
        from repro.telemetry.health import health_rules
        from repro.telemetry.scenario import Scenario

        telemetry = Telemetry()
        Scenario("clean", telemetry, args.packets, args.seed).run()
        AlertManager(telemetry, health_rules(error_slo=args.error_slo)).evaluate()
        source = SnapshotSource(telemetry=telemetry)
    loop = TopLoop(
        source,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )
    return loop.run()


def cmd_chaos(args) -> int:
    """Inject faults, recover, audit; exit non-zero on any failure."""
    from repro.faults import run_chaos

    results = run_chaos(
        packets=args.packets,
        seed=args.seed,
        directory=args.dir,
        quick=args.quick,
    )
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print("%-20s %s  %s" % (result.name, status, result.detail))
        if not result.passed:
            failed += 1
    print(
        "chaos: %d/%d scenario(s) passed" % (len(results) - failed, len(results))
    )
    return 1 if failed else 0


def cmd_selfcheck(args) -> int:
    """Run the verification harness; exit non-zero on any violation."""
    from repro.verify import run_selfcheck

    def stream(result) -> None:
        status = "PASS" if result.passed else "FAIL"
        print("%-42s %s  %s" % (result.name, status, result.detail))

    try:
        report = run_selfcheck(
            quick=args.quick,
            seed=args.seed,
            suites=args.suite or None,
            on_result=stream,
        )
    except ValueError as error:
        print("selfcheck: %s" % error, file=sys.stderr)
        return 2
    print("selfcheck: %s" % report.summary())
    return 0 if report.passed else 1


def cmd_parallel(args) -> int:
    """Run the multiprocess ingest engine over a trace and report rates."""
    from repro.parallel import (
        NitroFactory,
        ParallelIngestEngine,
        VanillaFactory,
        parallel_unavailable_reason,
    )
    reason = parallel_unavailable_reason()
    if reason:
        print("parallel: %s" % reason, file=sys.stderr)
        return 2
    trace = _load_trace(args)
    if args.nitro:
        factory = NitroFactory(
            sketch=args.sketch,
            depth=args.depth,
            width=args.width,
            probability=args.probability,
            seed=args.seed,
        )
    else:
        factory = VanillaFactory(
            sketch=args.sketch, depth=args.depth, width=args.width, seed=args.seed
        )
    engine = ParallelIngestEngine(
        factory,
        workers=args.workers,
        strategy=args.strategy,
        epoch_packets=args.epoch_packets,
        batch_size=args.batch_size,
    )
    result = engine.run(trace.keys)
    print(
        "%d workers (%s, %s%s), %d packets, %d epoch(s), start method %s, "
        "host CPUs %d"
        % (
            result.workers,
            result.strategy,
            "nitro-" if args.nitro else "",
            args.sketch,
            result.packets,
            result.epochs,
            result.start_method,
            result.host_cpus,
        )
    )
    for stats in result.worker_stats:
        print(
            "  worker %d: %8d packets, %5d batches, busy %6.3fs wall / "
            "%6.3fs cpu, %6.2f Mpps (cpu clock)%s"
            % (
                stats.worker,
                stats.packets,
                stats.batches,
                stats.busy_wall_seconds,
                stats.busy_cpu_seconds,
                stats.cpu_mpps,
                ", %d restart(s)" % stats.restarts if stats.restarts else "",
            )
        )
    print("wall (end-to-end)       %8.2f Mpps" % result.wall_mpps)
    print("aggregate (cpu clock)   %8.2f Mpps" % result.aggregate_cpu_mpps)
    print("aggregate (busy wall)   %8.2f Mpps" % result.aggregate_busy_mpps)
    return 0


def cmd_trace(args) -> int:
    """Parallel run with span tracing; render the per-epoch trace tree."""
    from repro.parallel import (
        ParallelIngestEngine,
        VanillaFactory,
        parallel_unavailable_reason,
    )
    from repro.telemetry import Telemetry, render_span_tree
    trace = _load_trace(args)
    epoch_packets = args.epoch_packets or max(1, len(trace) // max(args.epochs, 1))
    telemetry = Telemetry()
    factory = VanillaFactory(
        sketch=args.sketch, depth=args.depth, width=args.width, seed=args.seed
    )
    engine = ParallelIngestEngine(
        factory,
        workers=args.workers,
        strategy="merge",
        epoch_packets=epoch_packets,
        batch_size=args.batch_size,
        telemetry=telemetry,
    )
    reason = parallel_unavailable_reason()
    if args.sequential or reason is not None:
        if reason is not None and not args.sequential:
            print(
                "trace: %s; falling back to the in-process oracle" % reason,
                file=sys.stderr,
            )
        result = engine.run_sequential(trace.keys)
    else:
        result = engine.run(trace.keys)
    spans = telemetry.spans.spans()
    print(
        "trace: %d packets, %d worker(s), %d epoch(s), %d span(s) across "
        "%d trace(s)"
        % (
            result.packets,
            result.workers,
            result.epochs,
            len(spans),
            len(telemetry.spans.trace_ids()),
        ),
        file=sys.stderr,
    )
    print(render_span_tree(spans), end="")
    if args.out:
        count = telemetry.spans.write_jsonl(args.out)
        print("wrote %d spans to %s" % (count, args.out), file=sys.stderr)
    return 0


def cmd_profile(args) -> int:
    """Profiled ingest: per-stage latency table + collapsed stacks."""
    from repro.telemetry import HistoryStore, Telemetry
    from repro.telemetry.profile import (
        StageProfiler,
        collapsed_stacks,
        render_stage_table,
    )

    trace = _load_trace(args)
    telemetry = Telemetry()
    profiler = StageProfiler(telemetry, sample_every=args.sample_every)
    monitor = _build_monitor(args)
    monitor.telemetry = telemetry
    monitor.profiler = profiler
    history = HistoryStore(capacity=args.history_capacity)
    keys = trace.keys
    n_batches = max(1, -(-len(keys) // args.batch_size))
    history_every = max(1, n_batches // 64)
    for index, start in enumerate(range(0, len(keys), args.batch_size)):
        monitor.update_batch(keys[start : start + args.batch_size])
        if index % history_every == 0:
            history.record(telemetry.snapshot())
    history.record(telemetry.snapshot())
    print(
        "profile: %d packets in %d batches, profiled every %d batch(es) "
        "(%d sampled), %d history sample(s)"
        % (
            len(keys),
            profiler.batches_seen,
            args.sample_every,
            profiler.batches_profiled,
            len(history),
        ),
        file=sys.stderr,
    )
    print(render_stage_table(telemetry.registry), end="")
    stacks = collapsed_stacks(telemetry.registry)
    if args.collapsed_out:
        with open(args.collapsed_out, "w") as handle:
            handle.write(stacks)
        print("wrote collapsed stacks to %s" % args.collapsed_out, file=sys.stderr)
    else:
        print()
        print("collapsed stacks (flamegraph.pl / speedscope):")
        print(stacks, end="")
    if args.serve:
        with _start_server(telemetry, args, history=history) as server:
            _park(
                "serving /metrics /snapshot /trace /history /health on "
                "http://%s:%d" % (args.host, server.port),
                # One history sample per second while serving.
                tick=lambda: history.record(telemetry.snapshot()),
                every=1.0,
            )
    return 0


def cmd_serve(args) -> int:
    """Run the always-on monitoring service until SIGINT (or --duration)."""
    from repro.service import IngestClient, MonitoringService, ServiceConfig
    from repro.telemetry import Telemetry

    config = ServiceConfig(
        depth=args.depth,
        width=args.width,
        probability=args.probability,
        epsilon=args.epsilon,
        seed=args.seed,
        queue_capacity=args.queue_capacity,
        overflow=args.overflow,
        window_epochs=args.window_epochs,
        epoch_batches=args.epoch_batches,
        audit=args.audit,
        max_tenants=args.max_tenants,
        memory_budget_bytes=int(args.memory_budget_mb * 1024 * 1024),
        idle_seconds=args.idle_seconds,
        checkpoint_dir=args.checkpoint_dir,
    )
    telemetry = Telemetry()
    service = MonitoringService(
        config,
        telemetry=telemetry,
        host=args.host,
        ingest_port=args.ingest_port,
        http_port=args.http_port,
    ).start()
    print("nitrosketch serve: ingest on %s:%d, http on %s:%d"
          % (args.host, service.ingest_port, args.host, service.http_port))
    print("  query:  curl http://%s:%d/tenants" % (args.host, service.http_port))
    if config.checkpoint_dir:
        print("  checkpoints: %s" % config.checkpoint_dir)
    if args.demo:
        # Seed two tenants with synthetic traffic so the query plane has
        # something to show immediately.
        with IngestClient(args.host, service.ingest_port) as client:
            for tenant, offset in (("demo_a", 0), ("demo_b", 1 << 32)):
                trace = caida_like(20_000, n_flows=1000, seed=args.seed)
                keys = trace.keys + offset
                for start in range(0, len(keys), 2000):
                    client.ingest(tenant, keys[start : start + 2000])
                client.sync(tenant)
        print("  demo tenants ingested: demo_a, demo_b")
    try:
        if _park(seconds=args.duration):
            print("\nnitrosketch serve: shutting down (drain + checkpoint)")
    finally:
        service.stop()
    stats = service.tenants.stats()
    print(
        "nitrosketch serve: stopped cleanly (%d tenants, %d created, %d evicted)"
        % (stats["tenants"], stats["created"], stats["evicted"])
    )
    return 0


def cmd_experiment(args) -> int:
    module = importlib.import_module("repro.experiments.%s" % args.name)
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    output = module.run(**kwargs)
    panels = output if isinstance(output, tuple) else (output,)
    for panel in panels:
        print_result(panel)
        print()
    return 0


def _add_monitor_arguments(parser) -> None:
    parser.add_argument(
        "--sketch", choices=("cm", "cs", "kary", "univmon"), default="cs"
    )
    parser.add_argument("--probability", type=float, default=0.01)
    parser.add_argument(
        "--mode",
        choices=("fixed", "always_line_rate", "always_correct"),
        default="fixed",
    )
    parser.add_argument("--vanilla", action="store_true", help="disable NitroSketch")
    parser.add_argument("--top-k", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nitrosketch", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="synthesise a trace")
    generate.add_argument("family", choices=sorted(TRACE_FAMILIES))
    generate.add_argument("--packets", type=int, default=1_000_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help=".npz or .pcap path")
    generate.set_defaults(func=cmd_generate)

    monitor = sub.add_parser("monitor", help="run a sketch over a trace")
    monitor.add_argument("trace", help=".npz or .pcap trace file")
    monitor.add_argument("--threshold", type=float, default=0.0005)
    monitor.add_argument("--show", type=int, default=10)
    _add_monitor_arguments(monitor)
    monitor.set_defaults(func=cmd_monitor)

    simulate = sub.add_parser("simulate", help="switch-simulator run")
    simulate.add_argument("trace")
    simulate.add_argument("--platform", choices=sorted(PLATFORMS), default="ovs")
    simulate.add_argument(
        "--integration", choices=("aio", "separate"), default="aio"
    )
    simulate.add_argument("--offered-gbps", type=float, default=40.0)
    _add_monitor_arguments(simulate)
    simulate.set_defaults(func=cmd_simulate)

    experiment = sub.add_parser("experiment", help="regenerate a paper figure")
    experiment.add_argument("name", choices=EXPERIMENT_NAMES)
    experiment.add_argument("--scale", type=float, default=None)
    experiment.set_defaults(func=cmd_experiment)

    telemetry = sub.add_parser(
        "telemetry", help="instrumented demo run, snapshot dump, HTTP endpoint"
    )
    telemetry.add_argument(
        "--demo",
        action="store_true",
        help="run the instrumented demo pipeline and validate its snapshot",
    )
    telemetry.add_argument("--packets", type=int, default=100_000)
    telemetry.add_argument("--seed", type=int, default=7)
    telemetry.add_argument(
        "--format", choices=("prom", "json"), default="prom", help="snapshot format"
    )
    telemetry.add_argument("--out", default=None, help="snapshot path (default stdout)")
    telemetry.add_argument(
        "--trace-out", default=None, help="write the JSONL trace (spans and events) here"
    )
    telemetry.add_argument(
        "--trace-capacity", type=int, default=4096, help="trace ring-buffer size"
    )
    telemetry.add_argument(
        "--serve", action="store_true", help="serve /metrics /snapshot /trace over HTTP"
    )
    telemetry.add_argument("--host", default="127.0.0.1")
    telemetry.add_argument("--port", type=int, default=9109)
    telemetry.set_defaults(func=cmd_telemetry)

    audit = sub.add_parser(
        "audit",
        help="audited demo run + /health probe (CI audit-smoke entry point)",
    )
    audit.add_argument("--packets", type=int, default=50_000)
    audit.add_argument("--seed", type=int, default=7)
    audit.add_argument(
        "--corrupt",
        action="store_true",
        help="smash the sketch after ingest; the violation alert must fire",
    )
    audit.add_argument(
        "--error-slo",
        type=float,
        default=SCENARIO_ERROR_SLO,
        help="mean relative-error SLO for the health rule set",
    )
    audit.add_argument(
        "--serve", action="store_true", help="keep serving HTTP after the probe"
    )
    audit.add_argument("--host", default="127.0.0.1")
    audit.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    audit.set_defaults(func=cmd_audit)

    top = sub.add_parser("top", help="live terminal dashboard")
    top.add_argument(
        "--url", default=None, help="a TelemetryServer /snapshot URL to poll"
    )
    top.add_argument(
        "--demo",
        action="store_true",
        help="render over an in-process audited demo run instead of a URL",
    )
    top.add_argument("--interval", type=float, default=1.0)
    top.add_argument(
        "--iterations", type=int, default=None, help="frames to render (default: run until Ctrl-C)"
    )
    top.add_argument(
        "--no-clear", action="store_true", help="do not clear the screen between frames"
    )
    top.add_argument("--packets", type=int, default=50_000)
    top.add_argument("--seed", type=int, default=7)
    top.add_argument("--error-slo", type=float, default=SCENARIO_ERROR_SLO)
    top.set_defaults(func=cmd_top)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection: inject -> recover -> audit (see docs/RECOVERY.md)",
    )
    chaos.add_argument(
        "--quick", action="store_true", help="CI-sized trace (the chaos-smoke job)"
    )
    chaos.add_argument("--packets", type=int, default=60_000)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--dir", default=None, help="checkpoint directory (default: a temp dir)"
    )
    chaos.set_defaults(func=cmd_chaos)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="differential/statistical/invariant harness (see docs/VERIFICATION.md)",
    )
    selfcheck.add_argument(
        "--quick", action="store_true", help="CI-sized run (the selfcheck-smoke job)"
    )
    selfcheck.add_argument("--seed", type=int, default=0)
    selfcheck.add_argument(
        "--suite",
        action="append",
        choices=("differential", "statistical", "invariant", "parallel", "windows", "service"),
        default=None,
        help="run only the named suite (repeatable; default: all)",
    )
    selfcheck.set_defaults(func=cmd_selfcheck)

    parallel = sub.add_parser(
        "parallel",
        help="multiprocess shared-memory ingest run (see docs/PARALLELISM.md)",
    )
    parallel.add_argument(
        "trace", nargs="?", default=None, help=".npz/.pcap trace (default: synthetic)"
    )
    parallel.add_argument("--packets", type=int, default=400_000,
                          help="synthetic trace size when no trace file is given")
    parallel.add_argument("--workers", type=int, default=4)
    parallel.add_argument(
        "--strategy", choices=("merge", "shared"), default="shared"
    )
    parallel.add_argument(
        "--sketch", choices=("countmin", "countsketch", "kary"), default="countmin"
    )
    parallel.add_argument(
        "--nitro", action="store_true",
        help="run NitroSketch monitors instead of vanilla sketches",
    )
    parallel.add_argument("--probability", type=float, default=0.01)
    parallel.add_argument("--depth", type=int, default=5)
    parallel.add_argument("--width", type=int, default=102_400)
    parallel.add_argument("--batch-size", type=int, default=16_384)
    parallel.add_argument(
        "--epoch-packets", type=int, default=None,
        help="packets per epoch (merge strategy only; default: one epoch)",
    )
    parallel.add_argument("--seed", type=int, default=0)
    parallel.set_defaults(func=cmd_parallel)

    trace = sub.add_parser(
        "trace",
        help="parallel run with span tracing; render the per-epoch trace tree",
    )
    trace.add_argument(
        "trace", nargs="?", default=None, help=".npz/.pcap trace (default: synthetic)"
    )
    trace.add_argument("--packets", type=int, default=100_000,
                       help="synthetic trace size when no trace file is given")
    trace.add_argument("--workers", type=int, default=2)
    trace.add_argument("--epochs", type=int, default=2,
                       help="epoch count when --epoch-packets is not given")
    trace.add_argument("--epoch-packets", type=int, default=None)
    trace.add_argument(
        "--sketch", choices=("countmin", "countsketch", "kary"), default="countmin"
    )
    trace.add_argument("--depth", type=int, default=4)
    trace.add_argument("--width", type=int, default=8_192)
    trace.add_argument("--batch-size", type=int, default=16_384)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--sequential", action="store_true",
        help="use the in-process sequential oracle (same spans, no processes)",
    )
    trace.add_argument("--out", default=None, help="write the span JSONL here")
    trace.set_defaults(func=cmd_trace)

    profile = sub.add_parser(
        "profile",
        help="per-stage latency profile + collapsed stacks (docs/OBSERVABILITY.md)",
    )
    profile.add_argument(
        "trace", nargs="?", default=None, help=".npz/.pcap trace (default: synthetic)"
    )
    profile.add_argument("--packets", type=int, default=200_000,
                         help="synthetic trace size when no trace file is given")
    profile.add_argument(
        "--sample-every", type=int, default=4,
        help="profile every Nth batch (1 = every batch)",
    )
    profile.add_argument("--batch-size", type=int, default=16_384)
    profile.add_argument(
        "--collapsed-out", default=None,
        help="write flamegraph collapsed stacks here instead of stdout",
    )
    profile.add_argument("--history-capacity", type=int, default=512)
    profile.add_argument(
        "--serve", action="store_true",
        help="serve /metrics /snapshot /trace /history /health after the run",
    )
    profile.add_argument("--host", default="127.0.0.1")
    profile.add_argument("--port", type=int, default=9109)
    _add_monitor_arguments(profile)
    profile.set_defaults(func=cmd_profile)

    serve = sub.add_parser(
        "serve",
        help="always-on monitoring service: async ingest + multi-tenant "
        "query plane (see docs/SERVICE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--ingest-port", type=int, default=9200,
                       help="wire-ingest TCP port (0 = ephemeral)")
    serve.add_argument("--http-port", type=int, default=9109,
                       help="query/metrics HTTP port (0 = ephemeral)")
    serve.add_argument("--depth", type=int, default=5)
    serve.add_argument("--width", type=int, default=4096)
    serve.add_argument("--probability", type=float, default=0.1)
    serve.add_argument("--epsilon", type=float, default=0.5)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--queue-capacity", type=int, default=256,
                       help="per-tenant ingest queue depth (batches)")
    serve.add_argument("--overflow", choices=("wait", "drop"), default="wait",
                       help="full-queue policy: backpressure or shed+count")
    serve.add_argument("--window-epochs", type=int, default=0,
                       help="measure over a sliding window of this many epochs")
    serve.add_argument("--epoch-batches", type=int, default=16,
                       help="batches per detector epoch (0 = no epochs)")
    serve.add_argument("--audit", action="store_true",
                       help="attach a per-tenant live guarantee auditor")
    serve.add_argument("--max-tenants", type=int, default=64)
    serve.add_argument("--memory-budget-mb", type=float, default=0.0,
                       help="summed sketch-memory budget (0 = unbounded)")
    serve.add_argument("--idle-seconds", type=float, default=0.0,
                       help="evict tenants idle this long (0 = never)")
    serve.add_argument("--checkpoint-dir", default=None,
                       help="persist tenants here on eviction/shutdown")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="serve this many seconds then exit (0 = until SIGINT)")
    serve.add_argument("--demo", action="store_true",
                       help="pre-ingest two synthetic demo tenants")
    serve.set_defaults(func=cmd_serve)

    alerts = sub.add_parser(
        "alerts",
        help="alerting + anomaly-detection demo (docs/OBSERVABILITY.md)",
    )
    alerts.add_argument(
        "--demo", action="store_true",
        help="replay the DDoS-onset trace and verify the full alert "
             "lifecycle over HTTP (fires, notifies, resolves)",
    )
    alerts.add_argument(
        "--eval", action="store_true",
        help="print the post-run alert states and sink stats as JSON",
    )
    alerts.add_argument(
        "--serve", action="store_true",
        help="keep serving /metrics /snapshot /alerts /rules /history "
             "/health after the run",
    )
    alerts.add_argument(
        "--url", default=None,
        help="deliver webhook notifications to this URL (default: a "
             "loopback receiver started for the demo)",
    )
    alerts.add_argument("--packets", type=int, default=60_000)
    alerts.add_argument("--seed", type=int, default=7)
    alerts.add_argument("--host", default="127.0.0.1")
    alerts.add_argument("--port", type=int, default=0)
    alerts.set_defaults(func=cmd_alerts)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    compare = {">=": operator.ge, ">": operator.gt}
    for dest, rule in FLAG_RANGES.get(args.command, {}).items():
        op, bound = rule.split()
        if not compare[op](getattr(args, dest), float(bound)):
            flag = "--" + dest.replace("_", "-")
            print("%s: %s must be %s" % (args.command, flag, rule), file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
