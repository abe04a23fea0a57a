"""Continuous per-stage profiling of the ingest hot path.

"An Evaluation of Software Sketches" shows that software-sketch cost is
dominated by a handful of micro-stages -- hashing, sampling, scatter --
whose relative weight shifts with workload.  This module measures that
decomposition *live*: a :class:`StageProfiler` rides the batch ingest
path and times each stage of the :data:`STAGES` taxonomy into the
``stage_seconds{stage=...}`` histogram family of the attached
:class:`~repro.telemetry.Telemetry` sink.

Cost control is the whole design: ``sample_every=N`` profiles only
every Nth batch (the other N-1 batches pay exactly one integer
increment and one comparison), and within a sampled batch each stage
costs two ``perf_counter`` reads.  ``scripts/check_perf.py`` gates the
whole thing -- spans + profiling on vs off -- at <= 1.10x.

Reading the data back:

* :func:`histogram_quantile` -- a p50/p95/p99 estimator over the
  registry's log-bucketed :class:`~repro.telemetry.registry.HistogramChild`
  counts (log-linear interpolation inside the winning bucket, which is
  the right interpolant for geometric buckets);
* :func:`stage_summary` -- per-stage count/mean/p50/p95/p99 rows;
* :func:`collapsed_stacks` -- the ``frame;frame;frame value`` text
  format every flamegraph renderer (flamegraph.pl, speedscope, pyroscope)
  ingests, weighted by total microseconds per stage.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.telemetry.registry import HistogramChild, MetricsRegistry, log_buckets
from repro.telemetry.spans import NULL_ACTIVE_SPAN

__all__ = [
    "STAGES",
    "STAGE_METRIC",
    "STAGE_BUCKETS",
    "StageProfiler",
    "NULL_PROFILER",
    "histogram_quantile",
    "stage_summary",
    "collapsed_stacks",
    "render_stage_table",
]

#: The stage taxonomy of the ingest pipeline (docs/OBSERVABILITY.md).
#: ``geometric_skip``  -- drawing geometric gaps / selecting sampled slots
#: ``row_hash``        -- bucket+sign hashing of the sampled slots
#: ``scatter``         -- counter scatter-adds
#: ``exact_update``    -- the exact (p=1 / warm-up) full-batch update
#: ``query``           -- sketch queries on the ingest path (top-k offers)
#: ``checkpoint``      -- serializing + persisting monitor state
#: ``mailbox_publish`` -- worker-side frame publish incl. flow-control wait
#: ``mailbox_ack``     -- parent-side frame decode/CRC-check/ack
#: ``merge``           -- parent-side shard merge at an epoch boundary
STAGES: Tuple[str, ...] = (
    "geometric_skip",
    "row_hash",
    "scatter",
    "exact_update",
    "query",
    "checkpoint",
    "mailbox_publish",
    "mailbox_ack",
    "merge",
)

#: The histogram family stage timings land in.
STAGE_METRIC = "stage_seconds"

#: ~60ns .. ~0.26s in powers of two: stage timings are microseconds-ish,
#: so the default powers-of-four time buckets would be too coarse for a
#: p99 read.
STAGE_BUCKETS: List[float] = log_buckets(2.0**-24, 0.25, factor=2.0)


class StageProfiler:
    """Samples per-stage wall time into a telemetry sink.

    Parameters
    ----------
    telemetry:
        The :class:`~repro.telemetry.Telemetry` sink whose registry
        receives the ``stage_seconds{stage=...}`` histograms.
    sample_every:
        Profile every Nth batch (default 16).  ``1`` profiles every
        batch; the check_perf tracing-overhead gate runs with the
        default.
    component:
        Extra label distinguishing co-resident profiled components
        (e.g. ``nitro`` vs ``daemon``); empty string omits the label.

    The hot-path surface is two calls: :meth:`tick` once per batch
    (returns whether this batch is profiled) and :meth:`stage` around
    each stage (a no-op timer when the batch is not sampled).
    Components hold ``profiler = None`` by default and guard with one
    ``is not None`` test, mirroring the ``NULL_TELEMETRY`` idiom.
    """

    enabled = True

    def __init__(self, telemetry, sample_every: int = 16, component: str = "") -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1, got %d" % sample_every)
        self.telemetry = telemetry
        self.sample_every = sample_every
        self.component = component
        self._labels = {"component": component} if component else {}
        self.active = False
        self.batches_seen = 0
        self.batches_profiled = 0

    def tick(self) -> bool:
        """Advance the batch counter; True when this batch is profiled."""
        self.active = self.batches_seen % self.sample_every == 0
        self.batches_seen += 1
        if self.active:
            self.batches_profiled += 1
        return self.active

    def stage(self, name: str):
        """The sink's histogram timer for one stage; free when the batch
        is not sampled."""
        if not self.active:
            return NULL_ACTIVE_SPAN
        return self.telemetry.timer(
            STAGE_METRIC, buckets=STAGE_BUCKETS, stage=name, **self._labels
        )

    def observe(self, stage: str, seconds: float) -> None:
        """Record one stage duration unconditionally (epoch-grade stages
        -- checkpoint, merge, mailbox -- bypass batch sampling)."""
        self.telemetry.observe(
            STAGE_METRIC, seconds, buckets=STAGE_BUCKETS, stage=stage, **self._labels
        )


class _NullProfiler:
    """Shared no-op profiler (for call sites that prefer attribute style)."""

    __slots__ = ()
    enabled = False
    active = False
    sample_every = 0

    def tick(self) -> bool:
        return False

    def stage(self, name: str):
        return NULL_ACTIVE_SPAN

    def observe(self, stage: str, seconds: float) -> None:
        pass


NULL_PROFILER = _NullProfiler()


# ---------------------------------------------------------------------------
# Reading the histograms back: quantiles, summaries, flamegraph text.
# ---------------------------------------------------------------------------


def histogram_quantile(child: HistogramChild, q: float) -> float:
    """Estimate the ``q``-quantile of a log-bucketed histogram.

    Standard cumulative-bucket walk with log-linear interpolation inside
    the winning bucket (linear interpolation in log space matches the
    geometric bucket layout).  Returns ``nan`` on an empty histogram;
    a quantile landing in the ``+Inf`` bucket returns the last finite
    bound (the histogram cannot resolve beyond it).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1], got %r" % (q,))
    total = child.count
    if total == 0:
        return float("nan")
    rank = q * total
    cumulative = 0
    for index, count in enumerate(child.counts):
        cumulative += count
        if cumulative >= rank and count > 0:
            if index >= len(child.buckets):
                return float(child.buckets[-1])
            upper = child.buckets[index]
            lower = child.buckets[index - 1] if index > 0 else upper / 2.0
            fraction = (rank - (cumulative - count)) / count
            return float(
                math.exp(
                    math.log(lower) + fraction * (math.log(upper) - math.log(lower))
                )
            )
    return float(child.buckets[-1]) if child.buckets else float("nan")


def stage_summary(
    registry: MetricsRegistry,
    metric: str = STAGE_METRIC,
    quantiles: Sequence[float] = (0.5, 0.95, 0.99),
) -> Dict[str, Dict[str, float]]:
    """Per-stage timing rows from the registry's stage histograms.

    Returns ``{stage: {"count", "total", "mean", "p50", "p95", "p99"}}``
    (one row per distinct (stage [, component]) label set; the key is
    ``component/stage`` when a component label is present).
    """
    family = registry.get(metric)
    if family is None or family.kind != "histogram":
        return {}
    out: Dict[str, Dict[str, float]] = {}
    for values, child in family.children():
        labels = family.label_dict(values)
        stage = labels.get("stage", "?")
        component = labels.get("component", "")
        key = "%s/%s" % (component, stage) if component else stage
        row: Dict[str, float] = {
            "count": float(child.count),
            "total": float(child.sum),
            "mean": child.sum / child.count if child.count else float("nan"),
        }
        for q in quantiles:
            row["p%g" % (100 * q)] = histogram_quantile(child, q)
        out[key] = row
    return out


def collapsed_stacks(
    registry: MetricsRegistry,
    metric: str = STAGE_METRIC,
    root: str = "nitrosketch",
) -> str:
    """Flamegraph-compatible collapsed-stack lines from stage histograms.

    One line per stage: ``root;component;stage <microseconds>`` --
    the integer-weighted semicolon format ``flamegraph.pl`` and
    speedscope consume.  Stages with zero accumulated time are omitted
    (a zero-weight frame renders as nothing anyway).
    """
    summary = stage_summary(registry, metric=metric, quantiles=())
    lines = []
    for key in sorted(summary):
        micros = int(round(summary[key]["total"] * 1e6))
        if micros <= 0:
            continue
        frames = [root] + key.split("/")
        lines.append("%s %d" % (";".join(frames), micros))
    return "\n".join(lines) + ("\n" if lines else "")


def render_stage_table(
    registry: MetricsRegistry, metric: str = STAGE_METRIC
) -> str:
    """Human-readable per-stage latency table for ``nitrosketch profile``."""
    summary = stage_summary(registry, metric=metric)
    if not summary:
        return "(no stage samples recorded)\n"
    header = "%-28s %8s %10s %10s %10s %10s %10s" % (
        "stage", "count", "total", "mean", "p50", "p95", "p99",
    )
    lines = [header, "-" * len(header)]

    def fmt(seconds: float) -> str:
        if seconds != seconds:
            return "-"
        if seconds >= 1.0:
            return "%.2fs" % seconds
        if seconds >= 1e-3:
            return "%.2fms" % (seconds * 1e3)
        if seconds >= 1e-6:
            return "%.1fµs" % (seconds * 1e6)
        return "%.0fns" % (seconds * 1e9)

    for key, row in sorted(summary.items(), key=lambda item: -item[1]["total"]):
        lines.append(
            "%-28s %8d %10s %10s %10s %10s %10s"
            % (
                key,
                int(row["count"]),
                fmt(row["total"]),
                fmt(row["mean"]),
                fmt(row["p50"]),
                fmt(row["p95"]),
                fmt(row["p99"]),
            )
        )
    return "\n".join(lines) + "\n"
