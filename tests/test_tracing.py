"""Tests for pipeline-wide tracing, stage profiling, and history.

Covers the span data model (deterministic ids, tree assembly, JSONL
round trip, ring bounds), the :class:`StageProfiler` sampling contract
and its quantile/flamegraph readers, the :class:`HistoryStore`
downsampling ring, Prometheus text-format conformance (cumulative
buckets, ``+Inf``, HELP escaping), the ``/trace`` and ``/history`` HTTP
routes, events as zero-duration spans inside the innermost open span,
cross-process span propagation through the parallel engine (skipped
without shared memory), and the ``nitrosketch trace`` /
``nitrosketch profile`` CLIs.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.faults import WorkerCrashPlan
from repro.parallel import (
    ParallelIngestEngine,
    VanillaFactory,
    parallel_unavailable_reason,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry, TelemetryServer
from repro.telemetry.exposition import render_prometheus
from repro.telemetry.history import HistoryStore, sample_key
from repro.telemetry.profile import (
    NULL_PROFILER,
    STAGE_BUCKETS,
    STAGE_METRIC,
    StageProfiler,
    collapsed_stacks,
    histogram_quantile,
    render_stage_table,
    stage_summary,
)
from repro.telemetry.spans import (
    EVENTS_TRACE_ID,
    SpanTracer,
    build_trace_tree,
    make_span_id,
    make_trace_id,
    parse_spans_jsonl,
    render_span_tree,
)
from repro.traffic.traces import caida_like

needs_shm = pytest.mark.skipif(
    parallel_unavailable_reason() is not None,
    reason=parallel_unavailable_reason() or "",
)


# -- span ids --------------------------------------------------------------


class TestSpanIds:
    def test_trace_ids_deterministic(self):
        assert make_trace_id("merge", 2, 0, 40_000, 1) == make_trace_id(
            "merge", 2, 0, 40_000, 1
        )

    def test_trace_ids_distinct_per_epoch(self):
        ids = {make_trace_id("merge", 2, 0, 40_000, epoch) for epoch in range(8)}
        assert len(ids) == 8

    def test_span_ids_scoped_to_trace(self):
        trace = make_trace_id("x")
        other = make_trace_id("y")
        assert make_span_id(trace, "epoch") == make_span_id(trace, "epoch")
        assert make_span_id(trace, "epoch") != make_span_id(other, "epoch")
        assert make_span_id(trace, "worker.ingest", 0) != make_span_id(
            trace, "worker.ingest", 1
        )

    def test_id_shape(self):
        token = make_trace_id("anything", 3)
        assert len(token) == 16
        int(token, 16)  # must be hex


# -- SpanTracer ------------------------------------------------------------


class TestSpanTracer:
    def test_start_span_records_on_exit(self):
        tracer = SpanTracer()
        with tracer.start_span("epoch", epoch=3) as active:
            assert active.span_id
            assert len(tracer) == 0  # not recorded until exit
        assert len(tracer) == 1
        span = tracer.spans()[0]
        assert span.name == "epoch"
        assert span.fields == {"epoch": 3}
        assert span.duration >= 0.0
        assert span.start > 0.0

    def test_child_nesting_and_annotate(self):
        tracer = SpanTracer()
        with tracer.start_span("epoch") as epoch:
            with epoch.child("merge") as merge:
                merge.annotate(bytes=128)
        merge_span = tracer.spans(name="merge")[0]
        epoch_span = tracer.spans(name="epoch")[0]
        assert merge_span.parent_id == epoch_span.span_id
        assert merge_span.trace_id == epoch_span.trace_id
        assert merge_span.fields["bytes"] == 128

    def test_exception_recorded_with_error_field(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.start_span("merge"):
                raise RuntimeError("boom")
        span = tracer.spans()[0]
        assert span.fields["error"] == "RuntimeError"

    def test_ring_bound_and_dropped(self):
        tracer = SpanTracer(capacity=4)
        for index in range(10):
            with tracer.start_span("s%d" % index):
                pass
        assert len(tracer) == 4
        assert tracer.recorded == 10
        assert tracer.dropped == 6
        assert [span.name for span in tracer.spans()] == ["s6", "s7", "s8", "s9"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SpanTracer(capacity=0)

    def test_jsonl_round_trip(self):
        tracer = SpanTracer()
        with tracer.start_span("epoch", epoch=0) as epoch:
            with epoch.child("merge"):
                pass
        parsed = parse_spans_jsonl(tracer.to_jsonl())
        assert [span.as_dict() for span in parsed] == [
            span.as_dict() for span in tracer.spans()
        ]

    def test_record_dicts_imports_foreign_spans(self):
        source = SpanTracer()
        with source.start_span("worker.ingest", worker=1):
            pass
        sink = SpanTracer()
        count = sink.record_dicts(span.as_dict() for span in source.spans())
        assert count == 1
        assert sink.spans()[0].as_dict() == source.spans()[0].as_dict()

    def test_trace_ids_first_seen_order(self):
        tracer = SpanTracer()
        with tracer.start_span("a", trace_id="t1"):
            pass
        with tracer.start_span("b", trace_id="t2"):
            pass
        with tracer.start_span("c", trace_id="t1"):
            pass
        assert tracer.trace_ids() == ["t1", "t2"]


def _reject_constant(token):
    raise ValueError("non-standard JSON token %s" % token)


class TestEvents:
    """Events are zero-duration spans in the one ring."""

    def test_event_outside_any_span_is_a_root_of_the_events_trace(self):
        tracer = SpanTracer(wall_clock=lambda: 123.5)
        span = tracer.record_event("nitro.convergence", {"packets": 10})
        assert tracer.spans() == [span]
        assert span.trace_id == EVENTS_TRACE_ID == make_trace_id("events")
        assert span.parent_id is None
        assert span.span_id == make_span_id(EVENTS_TRACE_ID, "nitro.convergence", 0)
        assert (span.start, span.duration) == (123.5, 0.0)
        assert span.fields == {"packets": 10}

    def test_parent_is_the_innermost_open_span(self):
        tracer = SpanTracer()
        with tracer.start_span("epoch", trace_id="t") as epoch:
            with epoch.child("merge") as merge:
                inner = tracer.record_event("inner", {})
            middle = tracer.record_event("middle", {})
        outer = tracer.record_event("outer", {})
        assert (inner.trace_id, inner.parent_id) == ("t", merge.span_id)
        assert (middle.trace_id, middle.parent_id) == ("t", epoch.span_id)
        assert (outer.trace_id, outer.parent_id) == (EVENTS_TRACE_ID, None)
        roots = build_trace_tree(tracer.spans(trace_id="t"))
        assert [node.span.name for node in roots] == ["epoch"]
        assert sorted(node.span.name for node in roots[0].children) == ["merge", "middle"]

    def test_exception_exit_closes_the_span_for_later_events(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.start_span("merge", trace_id="t"):
                raise RuntimeError("boom")
        assert tracer.record_event("after", {}).parent_id is None

    def test_open_spans_are_per_thread(self):
        import threading

        tracer = SpanTracer()
        found = []
        with tracer.start_span("epoch", trace_id="t"):
            thread = threading.Thread(target=lambda: found.append(tracer.record_event("x", {})))
            thread.start()
            thread.join()
        assert found[0].parent_id is None
        assert found[0].trace_id == EVENTS_TRACE_ID

    def test_ids_repeat_on_a_rerun(self):
        def run():
            tracer = SpanTracer()
            tracer.record_event("a", {})
            with tracer.start_span("epoch", trace_id="t", span_id="e"):
                tracer.record_event("a", {})
            tracer.record_event("b", {})
            return [(span.trace_id, span.span_id) for span in tracer.spans()]

        first = run()
        assert first == run()
        assert len(set(first)) == len(first)

    def test_concurrent_events_get_distinct_ids_and_exact_eviction_counts(self):
        import sys
        import threading

        threads_n, per_thread = 4, 20_000
        telemetry = Telemetry(spans=SpanTracer(capacity=threads_n * per_thread * 3 // 4))

        def work():
            for _ in range(per_thread):
                telemetry.event("alert.transition")

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ring = telemetry.spans
        assert ring.recorded == threads_n * per_thread
        assert len({span.span_id for span in ring.spans()}) == len(ring) == ring.capacity
        dropped = telemetry.registry.get("tracer_dropped_events_total").labels().value
        assert dropped == ring.dropped == threads_n * per_thread // 4

    def test_non_finite_fields_leave_as_strict_json(self):
        tracer = SpanTracer()
        with tracer.start_span("x", observed=float("inf")):
            pass
        tracer.record_event("y", {"low": float("-inf"), "odd": float("nan")})
        lines = tracer.to_jsonl().splitlines()
        records = [json.loads(line, parse_constant=_reject_constant) for line in lines]
        assert records[0]["fields"] == {"observed": "+Inf"}
        assert records[1]["fields"] == {"low": "-Inf", "odd": "NaN"}


# -- trace assembly and rendering ------------------------------------------


def _span_dict(trace_id, span_id, parent_id, name, start, **fields):
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "duration": 0.001,
        "fields": fields,
    }


class TestTraceTree:
    def _spans(self, dicts):
        tracer = SpanTracer()
        tracer.record_dicts(dicts)
        return tracer.spans()

    def test_nesting_and_start_order(self):
        spans = self._spans(
            [
                _span_dict("t", "child-b", "root", "b", 2.0),
                _span_dict("t", "root", None, "epoch", 0.0),
                _span_dict("t", "child-a", "root", "a", 1.0),
            ]
        )
        roots = build_trace_tree(spans)
        assert len(roots) == 1
        assert roots[0].span.name == "epoch"
        assert [node.span.name for node in roots[0].children] == ["a", "b"]

    def test_orphan_becomes_root(self):
        spans = self._spans(
            [_span_dict("t", "lonely", "evicted-parent", "merge", 1.0)]
        )
        roots = build_trace_tree(spans)
        assert len(roots) == 1 and roots[0].span.name == "merge"

    def test_duplicate_span_id_keeps_last(self):
        spans = self._spans(
            [
                _span_dict("t", "root", None, "epoch", 0.0),
                _span_dict("t", "w", "root", "worker.ingest", 1.0, packets=10),
                _span_dict("t", "w", "root", "worker.ingest", 2.0, packets=99),
            ]
        )
        roots = build_trace_tree(spans)
        (child,) = roots[0].children
        assert child.span.fields["packets"] == 99

    def test_render_span_tree(self):
        spans = self._spans(
            [
                _span_dict("deadbeef", "root", None, "epoch", 0.0, epoch=0),
                _span_dict(
                    "deadbeef", "w0", "root", "worker.ingest", 1.0,
                    worker=0, packets=123,
                ),
            ]
        )
        text = render_span_tree(spans)
        assert text.startswith("trace deadbeef\n")
        assert "epoch" in text and "worker.ingest" in text
        assert "packets=123" in text and "worker=0" in text

    def test_render_empty(self):
        assert render_span_tree([]) == ""


# -- Telemetry integration --------------------------------------------------


class TestTelemetrySpans:
    def test_start_span_lands_in_spans_ring(self):
        telemetry = Telemetry()
        with telemetry.start_span("epoch", trace_id="t", epoch=1):
            pass
        assert len(telemetry.spans) == 1
        assert telemetry.spans.spans()[0].trace_id == "t"

    def test_null_telemetry_spans_are_noops(self):
        with NULL_TELEMETRY.start_span("epoch") as span:
            span.annotate(anything=1)
            with span.child("merge"):
                pass
        assert span.span_id == ""

    def test_tracer_dropped_events_metric(self):
        telemetry = Telemetry(spans=SpanTracer(capacity=2))
        for index in range(5):
            telemetry.event("tick", index=index)
        family = telemetry.registry.get("tracer_dropped_events_total")
        assert family is not None
        assert family.labels().value == 3

    def test_every_eviction_path_is_counted(self):
        telemetry = Telemetry(spans=SpanTracer(capacity=2))
        ring = telemetry.spans

        def dropped_metric():
            family = telemetry.registry.get("tracer_dropped_events_total")
            return 0 if family is None else family.labels().value

        for index in range(3):
            telemetry.event("tick", index=index)
        assert ring.dropped == dropped_metric() == 1
        for index in range(5):
            with telemetry.start_span("s%d" % index):
                pass
        assert ring.dropped == dropped_metric() == 6
        imported = [span.as_dict() for span in ring.spans()] + [ring.spans()[0].as_dict()]
        assert ring.record_dicts(imported) == 3
        assert ring.dropped == dropped_metric() == 9
        assert ring.recorded == 11

    def test_no_dropped_metric_without_evictions(self):
        telemetry = Telemetry()
        telemetry.event("tick")
        assert telemetry.registry.get("tracer_dropped_events_total") is None

    def test_event_wall_clock_in_jsonl(self):
        telemetry = Telemetry()
        telemetry.event("tick")
        record = json.loads(telemetry.spans.to_jsonl().splitlines()[0])
        assert record["start"] > 0 and record["duration"] == 0.0


# -- StageProfiler ----------------------------------------------------------


class TestStageProfiler:
    def test_sampling_cadence(self):
        profiler = StageProfiler(Telemetry(), sample_every=4)
        pattern = [profiler.tick() for _ in range(9)]
        assert pattern == [True, False, False, False, True, False, False, False, True]
        assert profiler.batches_seen == 9
        assert profiler.batches_profiled == 3

    def test_stage_timer_only_when_sampled(self):
        telemetry = Telemetry()
        profiler = StageProfiler(telemetry, sample_every=2)
        profiler.tick()  # batch 0: sampled
        with profiler.stage("row_hash"):
            pass
        profiler.tick()  # batch 1: not sampled
        with profiler.stage("row_hash"):
            pass
        summary = stage_summary(telemetry.registry)
        assert summary["row_hash"]["count"] == 1

    def test_observe_bypasses_sampling(self):
        telemetry = Telemetry()
        profiler = StageProfiler(telemetry, sample_every=1000)
        profiler.observe("merge", 0.5)
        assert stage_summary(telemetry.registry)["merge"]["count"] == 1

    def test_component_label(self):
        telemetry = Telemetry()
        profiler = StageProfiler(telemetry, sample_every=1, component="daemon")
        profiler.tick()
        with profiler.stage("checkpoint"):
            pass
        assert "daemon/checkpoint" in stage_summary(telemetry.registry)

    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            StageProfiler(Telemetry(), sample_every=0)

    def test_null_profiler_is_inert(self):
        assert NULL_PROFILER.tick() is False
        assert NULL_PROFILER.active is False
        with NULL_PROFILER.stage("row_hash"):
            pass
        NULL_PROFILER.observe("merge", 1.0)  # must not raise


# -- quantiles, tables, flamegraph text -------------------------------------


def _stage_child(telemetry, stage):
    family = telemetry.registry.get(STAGE_METRIC)
    for values, child in family.children():
        if family.label_dict(values).get("stage") == stage:
            return child
    raise AssertionError("stage %r not recorded" % stage)


class TestQuantiles:
    def test_quantile_within_winning_bucket(self):
        telemetry = Telemetry()
        profiler = StageProfiler(telemetry, sample_every=1)
        for _ in range(100):
            profiler.observe("row_hash", 0.001)
        child = _stage_child(telemetry, "row_hash")
        for q in (0.5, 0.95, 0.99):
            estimate = histogram_quantile(child, q)
            assert 2.0**-11 < estimate <= 2.0**-9

    def test_quantile_separates_modes(self):
        telemetry = Telemetry()
        profiler = StageProfiler(telemetry, sample_every=1)
        for _ in range(90):
            profiler.observe("scatter", 1e-5)
        for _ in range(10):
            profiler.observe("scatter", 0.1)
        child = _stage_child(telemetry, "scatter")
        assert histogram_quantile(child, 0.5) < 1e-4
        assert histogram_quantile(child, 0.99) > 0.01

    def test_empty_histogram_is_nan(self):
        telemetry = Telemetry()
        telemetry.observe(STAGE_METRIC, 1.0, buckets=STAGE_BUCKETS, stage="merge")
        child = _stage_child(telemetry, "merge")
        child.counts[:] = [0] * len(child.counts)
        child.count = 0
        assert histogram_quantile(child, 0.5) != histogram_quantile(child, 0.5)

    def test_quantile_range_validated(self):
        telemetry = Telemetry()
        profiler = StageProfiler(telemetry, sample_every=1)
        profiler.observe("merge", 0.1)
        with pytest.raises(ValueError):
            histogram_quantile(_stage_child(telemetry, "merge"), 1.5)


class TestCollapsedStacks:
    def _registry(self):
        telemetry = Telemetry()
        profiler = StageProfiler(telemetry, sample_every=1)
        profiler.observe("row_hash", 0.002)
        profiler.observe("scatter", 0.005)
        return telemetry.registry

    def test_format(self):
        lines = collapsed_stacks(self._registry()).splitlines()
        assert lines == ["nitrosketch;row_hash 2000", "nitrosketch;scatter 5000"]

    def test_zero_weight_stages_omitted(self):
        telemetry = Telemetry()
        profiler = StageProfiler(telemetry, sample_every=1)
        profiler.observe("query", 0.0)
        assert collapsed_stacks(telemetry.registry) == ""

    def test_stage_table(self):
        text = render_stage_table(self._registry())
        assert "stage" in text and "p99" in text
        assert "scatter" in text and "row_hash" in text
        # Sorted by total descending: scatter (5ms) before row_hash (2ms).
        assert text.index("scatter") < text.index("row_hash")

    def test_stage_table_empty(self):
        assert "no stage samples" in render_stage_table(Telemetry().registry)


# -- HistoryStore -----------------------------------------------------------


def _counter_snapshot(value, metric="ingest_total", labels=None):
    return {
        "metrics": {
            metric: {
                "type": "counter",
                "samples": [{"labels": labels or {}, "value": value}],
            }
        }
    }


class TestHistoryStore:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            HistoryStore(capacity=3)

    def test_downsampling_schedule(self):
        store = HistoryStore(capacity=4)
        for index in range(10):
            store.record(_counter_snapshot(float(index)), timestamp=float(index))
        assert len(store) == 3
        assert store.stride == 8
        assert store.compactions == 3
        assert store.record_calls == 10
        assert [stamp for stamp, _ in store.series("ingest_total")] == [0.0, 4.0, 8.0]

    def test_newest_sample_survives_compaction(self):
        store = HistoryStore(capacity=4)
        for index in range(20):
            store.record(_counter_snapshot(float(index)), timestamp=float(index))
        series = store.series("ingest_total")
        assert series[-1] == (16.0, 16.0)  # last admitted record (stride 8)

    def test_series_with_labels(self):
        store = HistoryStore(capacity=8)
        store.record(
            _counter_snapshot(7.0, labels={"worker": "1"}), timestamp=1.0
        )
        assert store.series("ingest_total", worker=1) == [(1.0, 7.0)]
        assert store.series("ingest_total") == []  # label-less key absent

    def test_histogram_flattening(self):
        telemetry = Telemetry()
        telemetry.observe("latency_seconds", 0.25)
        telemetry.observe("latency_seconds", 0.75)
        store = HistoryStore(capacity=8)
        store.record(telemetry.snapshot(), timestamp=5.0)
        assert store.series("latency_seconds_count") == [(5.0, 2.0)]
        assert store.series("latency_seconds_sum") == [(5.0, 1.0)]

    def test_as_dict_metric_filter(self):
        store = HistoryStore(capacity=8)
        snapshot = _counter_snapshot(1.0)
        snapshot["metrics"]["other_total"] = {
            "type": "gauge",
            "samples": [{"labels": {}, "value": 2.0}],
        }
        store.record(snapshot, timestamp=0.0)
        full = store.as_dict()
        assert set(full["samples"][0]["values"]) == {"ingest_total", "other_total"}
        filtered = store.as_dict(metric="ingest_total")
        assert set(filtered["samples"][0]["values"]) == {"ingest_total"}
        assert filtered["capacity"] == 8 and filtered["stride"] == 1

    def test_keys_and_clear(self):
        store = HistoryStore(capacity=8)
        store.record(_counter_snapshot(1.0), timestamp=0.0)
        assert store.keys() == ["ingest_total"]
        store.clear()
        assert len(store) == 0 and store.stride == 1 and store.record_calls == 0

    def test_sample_key_formatting(self):
        assert sample_key("x_total", {}) == "x_total"
        assert (
            sample_key("x_total", {"worker": "1", "core": "0"})
            == "x_total{core=0,worker=1}"
        )


# -- Prometheus text-format conformance -------------------------------------


class TestPrometheusConformance:
    def test_histogram_cumulative_form(self):
        telemetry = Telemetry()
        profiler = StageProfiler(telemetry, sample_every=1)
        for value in (1e-6, 1e-4, 1e-2):
            profiler.observe("merge", value)
        text = render_prometheus(telemetry.registry)
        assert '# TYPE %s histogram' % STAGE_METRIC in text
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("%s_bucket" % STAGE_METRIC)
        ]
        assert bucket_counts == sorted(bucket_counts)  # cumulative
        inf_lines = [
            line
            for line in text.splitlines()
            if line.startswith("%s_bucket" % STAGE_METRIC) and 'le="+Inf"' in line
        ]
        assert len(inf_lines) == 1 and inf_lines[0].endswith(" 3")
        assert "%s_count" % STAGE_METRIC in text
        assert "%s_sum" % STAGE_METRIC in text

    def test_help_escaping(self):
        telemetry = Telemetry()
        family = telemetry.registry.counter(
            "weird_total", "line one\nline two has a \\ backslash", ()
        )
        family.labels().inc()
        text = render_prometheus(telemetry.registry)
        help_lines = [
            line for line in text.splitlines() if line.startswith("# HELP weird_total")
        ]
        assert help_lines == [
            "# HELP weird_total line one\\nline two has a \\\\ backslash"
        ]


# -- HTTP routes ------------------------------------------------------------


class TestServerRoutes:
    def test_trace_route_serves_spans_and_events(self):
        telemetry = Telemetry()
        with telemetry.start_span("epoch", trace_id="t", epoch=0) as epoch:
            telemetry.event("parallel.worker_restart", worker=1)
        with TelemetryServer(telemetry, port=0).start() as server:
            base = "http://127.0.0.1:%d" % server.port
            reply = urllib.request.urlopen(base + "/trace")
            body = reply.read().decode()
            assert reply.headers["Content-Type"] == "application/x-ndjson"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/spans")
            assert excinfo.value.code == 404
        spans = parse_spans_jsonl(body)
        assert [span.name for span in spans] == ["parallel.worker_restart", "epoch"]
        assert {span.trace_id for span in spans} == {"t"}
        assert spans[0].parent_id == epoch.span_id

    def test_history_route_with_filter(self):
        telemetry = Telemetry()
        history = HistoryStore(capacity=8)
        snapshot = _counter_snapshot(3.0)
        snapshot["metrics"]["noise_total"] = {
            "type": "counter",
            "samples": [{"labels": {}, "value": 9.0}],
        }
        history.record(snapshot, timestamp=1.0)
        with TelemetryServer(telemetry, port=0, history=history).start() as server:
            base = "http://127.0.0.1:%d" % server.port
            full = json.loads(urllib.request.urlopen(base + "/history").read())
            filtered = json.loads(
                urllib.request.urlopen(base + "/history?metric=ingest_total").read()
            )
        assert set(full["samples"][0]["values"]) == {"ingest_total", "noise_total"}
        assert set(filtered["samples"][0]["values"]) == {"ingest_total"}

    def test_history_route_404_without_store(self):
        with TelemetryServer(Telemetry(), port=0).start() as server:
            base = "http://127.0.0.1:%d" % server.port
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/history")
            assert excinfo.value.code == 404


# -- cross-process span propagation -----------------------------------------


def _engine(telemetry, crash_plan=None):
    return ParallelIngestEngine(
        VanillaFactory(sketch="countmin", depth=4, width=512, seed=3),
        workers=2,
        strategy="merge",
        epoch_packets=5_000,
        batch_size=1024,
        telemetry=telemetry,
        crash_plan=crash_plan,
    )


def _epoch_traces(telemetry):
    """Trace ids holding an ``epoch`` span; ``run()`` also records its
    ``parallel.run`` event into the ring, outside any epoch."""
    return [
        trace_id
        for trace_id in telemetry.spans.trace_ids()
        if telemetry.spans.spans(trace_id=trace_id, name="epoch")
    ]


@pytest.fixture(scope="module")
def trace():
    return caida_like(10_000, n_flows=500, seed=21)


@needs_shm
class TestCrossProcessPropagation:
    def test_one_trace_per_epoch_with_worker_spans(self, trace):
        telemetry = Telemetry()
        engine = _engine(telemetry)
        result = engine.run(trace.keys)
        assert result.epochs == 2
        parts = engine._trace_parts(len(trace.keys))
        for epoch in range(result.epochs):
            trace_id = make_trace_id(*parts, epoch)
            spans = telemetry.spans.spans(trace_id=trace_id)
            names = {span.name for span in spans}
            assert {"epoch", "worker.ingest", "frame.crc", "merge"} <= names
            epoch_span_id = make_span_id(trace_id, "epoch")
            ingest = [span for span in spans if span.name == "worker.ingest"]
            assert len(ingest) == 2
            assert {span.parent_id for span in ingest} == {epoch_span_id}
            assert {span.fields["worker"] for span in ingest} == {0, 1}
            for span in ingest:
                assert span.fields["epoch"] == epoch
                assert span.fields["packets"] > 0
                assert "shard" in span.fields
        # Epoch 0's publish spans ride in frame 1, so they land in trace 0.
        publish = telemetry.spans.spans(
            trace_id=make_trace_id(*parts, 0), name="mailbox.publish"
        )
        assert len(publish) == 2
        ingest_ids = {
            make_span_id(make_trace_id(*parts, 0), "worker.ingest", worker)
            for worker in range(2)
        }
        assert {span.parent_id for span in publish} == ingest_ids

    def test_sequential_oracle_same_ids(self, trace):
        live, oracle = Telemetry(), Telemetry()
        _engine(live).run(trace.keys)
        _engine(oracle).run_sequential(trace.keys)
        assert _epoch_traces(live) == _epoch_traces(oracle)
        assert len(_epoch_traces(live)) == 2

        def ingest_ids(telemetry):
            return {
                (span.trace_id, span.span_id)
                for span in telemetry.spans.spans(name="worker.ingest")
            }

        assert ingest_ids(live) == ingest_ids(oracle)

    def test_crash_recovery_keeps_span_ids(self, trace):
        clean, crashed = Telemetry(), Telemetry()
        _engine(clean).run(trace.keys)
        result = _engine(
            crashed, crash_plan=WorkerCrashPlan(worker=1, epoch=1, fraction=0.5)
        ).run(trace.keys)
        assert result.restarts == 1
        assert set(crashed.spans.trace_ids()) == set(clean.spans.trace_ids())
        for trace_id in _epoch_traces(clean):
            clean_ids = {
                span.span_id
                for span in clean.spans.spans(trace_id=trace_id, name="worker.ingest")
            }
            crashed_ids = {
                span.span_id
                for span in crashed.spans.spans(trace_id=trace_id, name="worker.ingest")
            }
            assert crashed_ids == clean_ids
            # Duplicate re-published spans collapse in the assembled tree.
            roots = build_trace_tree(crashed.spans.spans(trace_id=trace_id))
            assert len(roots) == 1
            ingest_children = [
                node for node in roots[0].children if node.span.name == "worker.ingest"
            ]
            assert len(ingest_children) == 2

    def test_worker_restart_event_sits_under_its_epoch(self, trace):
        telemetry = Telemetry()
        engine = _engine(
            telemetry, crash_plan=WorkerCrashPlan(worker=1, epoch=1, fraction=0.5)
        )
        result = engine.run(trace.keys)
        assert result.restarts == 1
        [restart] = telemetry.spans.spans(name="parallel.worker_restart")
        trace_id = make_trace_id(*engine._trace_parts(len(trace.keys)), 1)
        assert restart.trace_id == trace_id
        assert restart.parent_id == make_span_id(trace_id, "epoch")
        assert restart.duration == 0.0
        assert (restart.fields["worker"], restart.fields["epoch"]) == (1, 1)
        [root] = build_trace_tree(telemetry.spans.spans(trace_id=trace_id))
        assert root.span.name == "epoch"
        assert "parallel.worker_restart" in [node.span.name for node in root.children]
        lines = render_span_tree(telemetry.spans.spans(trace_id=trace_id)).splitlines()
        assert lines[1].split()[0] == "epoch"
        [line] = [text for text in lines if "parallel.worker_restart" in text]
        assert line.startswith("    parallel.worker_restart")  # one level below epoch


# -- CLI -------------------------------------------------------------------


class TestTraceCLI:
    def test_sequential_trace_tree(self, capsys, tmp_path):
        out = str(tmp_path / "spans.jsonl")
        rc = cli_main(
            [
                "trace", "--sequential", "--packets", "8000", "--epochs", "2",
                "--width", "512", "--out", out,
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "trace " in captured.out
        assert "worker.ingest" in captured.out and "merge" in captured.out
        with open(out) as handle:
            spans = parse_spans_jsonl(handle.read())
        assert {span.name for span in spans} >= {"epoch", "worker.ingest", "merge"}

    @needs_shm
    def test_parallel_trace(self, capsys):
        rc = cli_main(["trace", "--packets", "8000", "--width", "512"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "frame.crc" in captured.out


class TestProfileCLI:
    def test_profile_table_and_stacks(self, capsys):
        rc = cli_main(["profile", "--packets", "40000", "--sample-every", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "p99" in captured.out
        assert "nitrosketch;" in captured.out

    def test_collapsed_out_file(self, capsys, tmp_path):
        out = str(tmp_path / "stacks.txt")
        rc = cli_main(
            [
                "profile", "--packets", "40000", "--sample-every", "1",
                "--collapsed-out", out,
            ]
        )
        assert rc == 0
        with open(out) as handle:
            lines = handle.read().splitlines()
        assert lines and all(";" in line and line.split(" ")[1].isdigit() for line in lines)

    def test_rejects_bad_sample_every(self, capsys):
        assert cli_main(["profile", "--sample-every", "0"]) == 2
