#!/usr/bin/env python
"""Guard the kernel throughput and the overhead ratios against their gates.

Usage:  PYTHONPATH=src python scripts/check_perf.py [--update] [--factor F]
                                                    [--skip NAME ...]

Every check prints one row; any miss fails the run:

* rate floors -- each bench :func:`repro.experiments.kernelbench.run`
  times must reach ``factor`` (default 0.7, i.e. a >30% regression
  fails) of its ``fused_rate`` in ``BENCH_kernels.json``.  Rates are
  only comparable on one host, so the baseline's host is printed next
  to the current one;
* overhead ceilings -- each row of :data:`kernelbench.GATES` times an
  instrumented ingest path against its bare twin and bounds the ratio;
* parallel scaling -- the real multiprocess engine (shared-memory
  CountMin banks, 1 and 4 workers) must reach ``PARALLEL_SCALING_FLOOR``
  (2.5x) aggregate CPU-clock scaling, and the committed
  ``BENCH_parallel.json`` must show the same.  Comparisons that need
  real parallel hardware (the 4-worker aggregate vs the single-core
  ``countmin_update_batch`` baseline, and wall-clock scaling) only run
  when the host has >= 4 CPUs: on fewer CPUs the workers time-slice and
  those numbers measure the scheduler, not the engine.

``--skip NAME`` (repeatable) skips one overhead gate or ``parallel``.
``--update`` rewrites the baseline from this run instead of checking.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BASELINE = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")
PARALLEL_BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_parallel.json"
)

#: Live parallel-gate measurement attempts; the best ratio counts (a
#: loaded box -- e.g. right after the kernel benches above -- can
#: starve one attempt's workers).
PARALLEL_ATTEMPTS = 3


def check(failures, label, detail, passed, failure, miss="GATE MISSED", suffix=""):
    """Print one gate row; on a miss, record ``failure`` for the summary."""
    print("%-32s %s  %s%s" % (label, detail, "ok" if passed else miss, suffix))
    if not passed:
        failures.append(failure)


def describe_host(host) -> str:
    if not host:
        return "unrecorded"
    return "%(cpus)d CPU(s), %(cpu_model)s, Python %(python)s, numpy %(numpy)s" % host


def parallel_scaling_gate(args, failures) -> None:
    """The multiprocess-engine scaling gate."""
    from repro.experiments.parallel_scaling import (
        BATCH_SIZE,
        PARALLEL_SCALING_FLOOR,
    )
    from repro.parallel import (
        ParallelIngestEngine,
        VanillaFactory,
        parallel_unavailable_reason,
    )
    from repro.traffic.traces import caida_like

    floor = PARALLEL_SCALING_FLOOR

    # 1. The committed baseline must exist and itself clear the floor.
    try:
        with open(PARALLEL_BASELINE) as handle:
            committed = json.load(handle)
        recorded = committed["configs"]["shared-countmin"]["workers"]["4"][
            "scaling_x"
        ]
    except (FileNotFoundError, KeyError) as error:
        failures.append(
            "BENCH_parallel.json missing or malformed (%r) -- run "
            "python -m repro.experiments.parallel_scaling --write" % error
        )
        return
    check(
        failures,
        "parallel_baseline",
        "committed scaling %.2fx (gate %.1fx)" % (recorded, floor),
        recorded >= floor,
        "BENCH_parallel.json records %.2fx 4-worker scaling, below the %.1fx "
        "gate" % (recorded, floor),
    )

    reason = parallel_unavailable_reason()
    if reason:
        print("%-32s live gate skipped: %s" % ("parallel_scaling", reason))
        return

    # 2. Live: 4-worker aggregate CPU-clock rate vs 1-worker, same trace.
    # 800k packets: short traces leave each worker too few batches for a
    # stable CPU-clock reading.
    packets = max(400_000, int(800_000 * args.scale))
    trace = caida_like(packets, seed=0)
    factory = VanillaFactory(sketch="countmin", depth=5, width=102_400, seed=0)

    def measure(workers: int):
        engine = ParallelIngestEngine(
            factory, workers=workers, strategy="shared", batch_size=BATCH_SIZE
        )
        return engine.run(trace.keys)

    best_ratio, single, quad = 0.0, None, None
    for _ in range(PARALLEL_ATTEMPTS):
        one = measure(1)
        four = measure(4)
        ratio = four.speedup_vs(one)
        if ratio > best_ratio:
            best_ratio, single, quad = ratio, one, four
        if best_ratio >= floor:
            break
    rates = (single.aggregate_cpu_mpps, quad.aggregate_cpu_mpps)
    check(
        failures,
        "parallel_scaling",
        "1w %6.2f -> 4w %6.2f agg-cpu Mpps, %.2fx (gate %.1fx)"
        % (rates + (best_ratio, floor)),
        best_ratio >= floor,
        "parallel scaling %.2fx below the %.1fx gate (1w %.2f, 4w %.2f "
        "aggregate CPU-clock Mpps)" % ((best_ratio, floor) + rates),
    )

    # 3. Absolute comparisons need >= 4 real CPUs to mean anything.
    host_cpus = os.cpu_count() or 1
    if host_cpus < 4:
        print(
            "%-32s absolute/wall gates skipped (host has %d CPU(s) < 4: "
            "workers time-slice)" % ("parallel_vs_kernel", host_cpus)
        )
        return
    try:
        with open(BASELINE) as handle:
            kernels = json.load(handle)
        single_core = kernels["benches"]["countmin_update_batch"]["fused_rate"]
    except (FileNotFoundError, KeyError):
        single_core = None
    if single_core is not None:
        rate_floor = floor * single_core * args.factor
        rate = quad.aggregate_cpu_mpps
        check(
            failures,
            "parallel_vs_kernel",
            "4w %6.2f vs single-core %6.2f Mpps, floor %6.2f"
            % (rate, single_core, rate_floor),
            rate >= rate_floor,
            "4-worker aggregate %.2f Mpps below %.2f (%.1fx the single-core "
            "countmin baseline %.2f x factor %.2f)"
            % (rate, rate_floor, floor, single_core, args.factor),
        )
    wall_ratio = quad.wall_mpps / single.wall_mpps if single.wall_mpps > 0 else 0.0
    check(
        failures,
        "parallel_wall_scaling",
        "wall %.2fx at 4 workers (gate 2.0x, %d CPUs)" % (wall_ratio, host_cpus),
        wall_ratio >= 2.0,
        "wall-clock scaling %.2fx below 2.0x on a %d-CPU host"
        % (wall_ratio, host_cpus),
    )


def main(argv=None) -> int:
    from repro.experiments import kernelbench

    gate_names = [gate.name for gate in kernelbench.GATES] + ["parallel"]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true", help="rewrite BENCH_kernels.json from this run"
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=0.7,
        help="minimum fused_rate as a fraction of baseline (default 0.7)",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--skip",
        action="append",
        default=[],
        choices=gate_names,
        metavar="NAME",
        help="skip one gate (repeatable): %s" % ", ".join(gate_names),
    )
    args = parser.parse_args(argv)

    try:
        with open(BASELINE) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        baseline = None
    print(
        "host: %s (baseline: %s)"
        % (
            describe_host(kernelbench.host_info()),
            describe_host(baseline and baseline.get("host")),
        )
    )

    result = kernelbench.run(scale=args.scale, repeats=args.repeats)
    if args.update:
        kernelbench.write_baseline(os.path.abspath(BASELINE), result=result)
        print("updated %s" % os.path.abspath(BASELINE))
        return 0
    if baseline is None:
        print("no baseline at %s -- run with --update first" % BASELINE)
        return 1

    failures = []
    current = kernelbench.payload(result)["benches"]
    for name, base in sorted(baseline["benches"].items()):
        now = current.get(name)
        if now is None:
            failures.append("%s: bench disappeared from kernelbench" % name)
            continue
        floor = base["fused_rate"] * args.factor
        check(
            failures,
            name,
            "baseline %8.2f  now %8.2f  floor %8.2f"
            % (base["fused_rate"], now["fused_rate"], floor),
            now["fused_rate"] >= floor,
            "%s: %.2f < %.2f (%.0f%% of baseline %.2f)"
            % (name, now["fused_rate"], floor, 100 * args.factor, base["fused_rate"]),
            miss="REGRESSION",
            suffix=" (%s)" % base["unit"],
        )

    for gate in kernelbench.GATES:
        if gate.name in args.skip:
            continue
        ratio = gate.measure(scale=args.scale, repeats=args.repeats)["ratio"]
        if gate.retry and ratio > gate.ceiling:
            retry = gate.measure(scale=args.scale, repeats=args.repeats)
            ratio = min(ratio, retry["ratio"])
        check(
            failures,
            gate.label,
            "%s %.3fx (ceiling %.2fx)" % (gate.ratio_label, ratio, gate.ceiling),
            ratio <= gate.ceiling,
            "%s overhead %.3fx exceeds ceiling %.2fx"
            % (gate.subject, ratio, gate.ceiling),
            miss="TOO EXPENSIVE",
        )

    if "parallel" not in args.skip:
        parallel_scaling_gate(args, failures)

    if args.skip:
        skipped = [name for name in gate_names if name in args.skip]
        print("\nskipped gates: %s" % ", ".join(skipped))
    if failures:
        print("\nperformance check FAILED:")
        for failure in failures:
            print("  - %s" % failure)
        return 1
    print("\nperformance check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
