"""The repository benchmark: one command, four workloads, two kinds of run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload embed-caida --seed 1 --seconds 10 --trace 0

Workloads: ``embed-caida``, ``serve-windowed``, ``epoch-ddos``,
``parallel-merge``.
``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload twice, half the time each: untraced,
then with span recording and the stage profiler attached; it reports
the per-layer ledger plus ``trace.overhead_ratio`` (untraced over traced
``ingest_mpps``) and writes the spans as JSONL under ``.perfbench_out/``.

Rates and set-up times are read at a reference host speed: a fixed
probe computation (``common.HostSpeed``) runs on the measured CPUs
around every ~1 s segment, and a segment's rate is scaled by the
reference probe speed over the measured one.  Other tenants of a shared
host slow the program and the probe alike, so the scaling cancels them.
``ingest_mpps`` is the median scaled segment rate.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records provenance.  A failed correctness check, a passed deadline or
a dead server process exits non-zero without printing a result.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("embed-caida", "serve-windowed", "epoch-ddos", "parallel-merge")

#: Hard wall budget of one invocation: the run fails (never reports a
#: partial number) when it is exceeded.
DEADLINE_SECONDS = 160
ALARM_SECONDS = 172

#: Latency and accuracy figures every workload measures in its untraced
#: half, reported with the per-layer ledger: on a shared 2-CPU host their
#: run-to-run spread is wider than any bound an end-to-end metric may have.
LEDGER_FROM_PLAIN = {
    "query.latency_p50_ms": "query_p50_ms",
    "query.latency_p90_ms": "query_p90_ms",
    "epoch.close_p50_ms": "epoch_close_p50_ms",
    "epoch.close_p95_ms": "epoch_close_p95_ms",
    "accuracy.hh_are": "hh_are",
}


class Context:
    """What a workload needs to know about the run it is part of."""

    def __init__(self, workload, seed, seconds, traced, tiny, deadline, tag):
        self.root = ROOT
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tiny = tiny
        self.deadline = deadline
        self.tag = tag
        from perfbench import common

        self.out = common.out_dir(ROOT)

    def path(self, suffix: str) -> str:
        return os.path.join(
            self.out, "%s-s%d-%s-%d%s" % (self.workload, self.seed, self.tag, os.getpid(), suffix)
        )

    def ledger(self):
        from perfbench.ledger import Ledger

        return Ledger(prefix="b")

    def save_spans(self, ledger, name: str = "bench") -> str:
        path = self.path("-%s-spans.jsonl" % name)
        ledger.write_jsonl(path)
        return path


def _module(workload):
    import importlib

    name = {
        "embed-caida": "embed",
        "serve-windowed": "served",
        "epoch-ddos": "epoch",
        "parallel-merge": "parallel",
    }[workload]
    return importlib.import_module("perfbench.workloads." + name)


def _on_alarm(signum, frame):
    from perfbench.common import CheckFailed

    raise CheckFailed("run exceeded its %d s budget" % ALARM_SECONDS)


def measure(workload, seed, seconds, trace, tiny=False):
    """Run one benchmark invocation; returns ``(result, provenance)``."""
    from perfbench import common

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    module = _module(workload)
    prov = common.provenance(ROOT, workload, seed, bool(trace))
    deadline = time.perf_counter() + DEADLINE_SECONDS
    ops = common.Ops()
    if not trace:
        ctx = Context(workload, seed, seconds, False, tiny, deadline, "e2e")
        e2e, _layers, run_ops = module.run(ctx)
        ops.merge(run_ops)
        e2e["ok_share"] = ops.ok_share()
        wanted = spec["end_to_end"]
        metrics = e2e
    else:
        half = max(seconds / 2.0, 0.5)
        plain = Context(workload, seed, half, False, tiny, deadline, "plain")
        e2e_plain, _unused, plain_ops = module.run(plain)
        traced = Context(workload, seed, half, True, tiny, deadline, "traced")
        e2e_traced, layers, traced_ops = module.run(traced)
        ops.merge(plain_ops)
        ops.merge(traced_ops)
        layers["trace.overhead_ratio"] = e2e_plain["ingest_mpps"] / e2e_traced["ingest_mpps"]
        for name, source in LEDGER_FROM_PLAIN.items():
            layers[name] = e2e_plain[source]
        wanted = spec["per_layer"]
        for entry in wanted:
            # A layer that does not run on this workload did no work.
            layers.setdefault(entry["name"], 0.0)
        metrics = layers
    missing = sorted(set(entry["name"] for entry in wanted) - set(metrics))
    if missing:
        raise common.CheckFailed("metrics not measured: %s" % missing)
    result = {
        "correct": True,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
            for entry in wanted
        },
    }
    return result, prov


def stop_helper_processes() -> None:
    """Stop and reap every helper process ``multiprocessing`` started.

    Shared memory starts a resource tracker that otherwise outlives this
    process and is left as an orphan; worker processes are joined by the
    engine, but one left by a failed run is stopped here too.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        tracker_module._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-tests)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program source under %s/src" % ROOT, file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.common import CheckFailed, dump_json

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(ALARM_SECONDS)
    try:
        result, prov = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except CheckFailed as exc:
        print("perfbench: CHECK FAILED: %s" % exc, file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        stop_helper_processes()
    record = dict(provenance=prov, result=result)
    dump_json(
        os.path.join(ROOT, ".perfbench_out", "%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)),
        record,
    )
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
