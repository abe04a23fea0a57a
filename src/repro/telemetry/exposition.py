"""Exposition: Prometheus text format, JSON snapshots, HTTP endpoint.

Three ways out of the registry and the trace ring:

* :func:`render_prometheus` -- the Prometheus text exposition format
  (version 0.0.4): ``# HELP`` / ``# TYPE`` headers, one sample per line,
  histograms as cumulative ``_bucket{le=...}`` series plus ``_sum`` and
  ``_count``.
* :func:`snapshot` -- a JSON-able dict of every family, sample and the
  trace ring's state; :func:`render_json` serialises it.
* :class:`TelemetryServer` -- a stdlib ``http.server`` endpoint run in
  a daemon thread, serving ``/metrics`` (Prometheus), ``/snapshot``
  (JSON), ``/trace`` (the span ring, events included, as JSONL),
  ``/history`` (the attached
  :class:`~repro.telemetry.history.HistoryStore` as JSON, filterable
  with ``?metric=name``), ``/alerts`` + ``/rules`` (when an
  :class:`~repro.telemetry.alerts.AlertManager` is attached) and
  ``/health`` (when a manager over the stock health rules is attached:
  its verdict and active alerts as JSON, 503 on failure).  No
  third-party dependency: the point is that any Prometheus scraper or
  ``curl`` can watch a live run.

Non-finite samples are legal (``relative_error`` returns ``inf`` when
truth is zero): the text format renders them as ``+Inf`` / ``-Inf`` /
``NaN`` per the exposition spec, and JSON snapshots encode them as
those strings since bare ``Infinity`` tokens are not valid JSON.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from repro.telemetry.registry import MetricsRegistry, _json_value
from repro.telemetry.spans import SpanTracer

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _format_value(value: float) -> str:
    """Prometheus sample-value formatting (integers without the .0)."""
    if not math.isfinite(value):
        return _json_value(value)  # "+Inf", "-Inf" or "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return "%d" % int(value)
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _escape_help(text: str) -> str:
    """HELP-line escaping per the text-format spec: ``\\`` and newline."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        '%s="%s"' % (name, _escape_label_value(str(value)))
        for name, value in merged.items()
    )
    return "{%s}" % body


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every family in the registry as Prometheus exposition text.

    The whole render happens under the registry lock so a scrape during
    live ingest sees a consistent point-in-time view -- sibling metrics
    updated inside one :meth:`~repro.telemetry.Telemetry.atomic` block
    are observed all-or-nothing, and family/child dicts cannot change
    size mid-iteration.
    """
    with registry.lock:
        return _render_prometheus_locked(registry)


def _render_prometheus_locked(registry: MetricsRegistry) -> str:
    lines = []
    for family in registry:
        lines.append("# HELP %s %s" % (family.name, _escape_help(family.help or family.name)))
        lines.append("# TYPE %s %s" % (family.name, family.kind))
        for values, child in family.children():
            labels = family.label_dict(values)
            if family.kind == "histogram":
                cumulative = child.cumulative_counts()
                for bound, count in zip(family.buckets, cumulative):
                    lines.append(
                        "%s_bucket%s %s"
                        % (
                            family.name,
                            _format_labels(labels, {"le": _format_value(bound)}),
                            _format_value(count),
                        )
                    )
                lines.append(
                    "%s_bucket%s %s"
                    % (family.name, _format_labels(labels, {"le": "+Inf"}), _format_value(cumulative[-1]))
                )
                lines.append(
                    "%s_sum%s %s"
                    % (family.name, _format_labels(labels), _format_value(child.sum))
                )
                lines.append(
                    "%s_count%s %s"
                    % (family.name, _format_labels(labels), _format_value(child.count))
                )
            else:
                lines.append(
                    "%s%s %s"
                    % (family.name, _format_labels(labels), _format_value(child.value))
                )
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot(registry: MetricsRegistry, spans: Optional[SpanTracer] = None) -> Dict:
    """A JSON-able snapshot of every metric (and the trace ring's state).

    Taken under the registry lock: concurrent writers either land wholly
    before or wholly after the snapshot, never halfway through a
    multi-metric update.
    """
    with registry.lock:
        return _snapshot_locked(registry, spans)


def _snapshot_locked(registry: MetricsRegistry, spans: Optional[SpanTracer]) -> Dict:
    metrics = {}
    for family in registry:
        samples = []
        for values, child in family.children():
            labels = family.label_dict(values)
            if family.kind == "histogram":
                samples.append(
                    {
                        "labels": labels,
                        "buckets": list(family.buckets),
                        "counts": list(child.counts),
                        "sum": _json_value(child.sum),
                        "count": child.count,
                    }
                )
            else:
                samples.append({"labels": labels, "value": _json_value(child.value)})
        metrics[family.name] = {
            "type": family.kind,
            "help": family.help,
            "samples": samples,
        }
    payload = {"metrics": metrics}
    if spans is not None:
        records = spans.spans()
        payload["trace"] = {
            "capacity": spans.capacity,
            "buffered": len(records),
            "recorded": spans.recorded,
            "dropped": spans.dropped,
            "spans": [span.as_dict() for span in records],
        }
    return payload


def render_json(registry: MetricsRegistry, spans: Optional[SpanTracer] = None, indent: int = 2) -> str:
    return json.dumps(snapshot(registry, spans), indent=indent, sort_keys=True) + "\n"


class TelemetryServer:
    """Serves a live telemetry object over HTTP from a daemon thread.

    Pass an :class:`~repro.telemetry.alerts.AlertManager` as ``health``
    (canonically over :func:`repro.telemetry.health.health_rules`) to
    additionally serve ``/health``: each request runs one evaluation and
    answers the manager's verdict with its active alerts as JSON, HTTP
    200 while the verdict is ``ok``/``warn`` and 503 on ``fail`` so
    probes and load balancers get the conventional signal.
    Pass a :class:`~repro.telemetry.history.HistoryStore` as ``history``
    to serve ``/history`` (optionally filtered with ``?metric=name``).
    Pass an :class:`~repro.telemetry.alerts.AlertManager` as ``alerts``
    to serve ``/alerts`` (current states, recent transitions, sink
    accounting) and ``/rules`` (the declarative rule catalogue).

    ``routes`` extends the server with application endpoints: a callable
    ``routes(path, query) -> Optional[(status, content_type, body)]``
    consulted after the built-in paths and before the 404 -- the
    monitoring service mounts its ``/tenants/...`` query API this way
    without subclassing the handler.
    """

    def __init__(
        self,
        telemetry,
        host: str = "127.0.0.1",
        port: int = 9109,
        health=None,
        history=None,
        alerts=None,
        routes=None,
    ) -> None:
        self.telemetry = telemetry
        self.health = health
        self.history = history
        self.alerts = alerts
        self.routes = routes
        # Request threads share the health manager's state machine.
        self._health_lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path, _, query = self.path.partition("?")
                if path in ("/", "/metrics"):
                    body = render_prometheus(outer.telemetry.registry)
                    self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
                elif path == "/snapshot":
                    body = render_json(outer.telemetry.registry, outer.telemetry.spans)
                    self._reply(200, "application/json", body)
                elif path == "/trace":
                    body = outer.telemetry.spans.to_jsonl()
                    self._reply(200, "application/x-ndjson", body)
                elif path == "/history" and outer.history is not None:
                    metric = None
                    for pair in query.split("&"):
                        key, _, value = pair.partition("=")
                        if key == "metric" and value:
                            metric = value
                    body = json.dumps(
                        outer.history.as_dict(metric=metric), indent=2, sort_keys=True
                    ) + "\n"
                    self._reply(200, "application/json", body)
                elif path == "/alerts" and outer.alerts is not None:
                    body = json.dumps(
                        outer.alerts.as_dict(), indent=2, sort_keys=True
                    ) + "\n"
                    self._reply(200, "application/json", body)
                elif path == "/rules" and outer.alerts is not None:
                    body = json.dumps(
                        outer.alerts.describe_rules(), indent=2, sort_keys=True
                    ) + "\n"
                    self._reply(200, "application/json", body)
                elif path == "/health" and outer.health is not None:
                    with outer._health_lock:
                        outer.health.evaluate()
                        verdict = outer.health.verdict()
                        report = {
                            "status": verdict,
                            "evaluations": outer.health.evaluations,
                            "alerts": [s.as_dict() for s in outer.health.active()],
                        }
                    body = json.dumps(report, indent=2, sort_keys=True) + "\n"
                    self._reply(
                        503 if verdict == "fail" else 200, "application/json", body
                    )
                else:
                    handled = None
                    if outer.routes is not None:
                        try:
                            handled = outer.routes(path, query)
                        except Exception as exc:  # surface, don't kill the thread
                            handled = (
                                500,
                                "application/json",
                                json.dumps({"error": str(exc)}) + "\n",
                            )
                    if handled is not None:
                        status, content_type, body = handled
                        self._reply(status, content_type, body)
                    else:
                        self._reply(404, "text/plain", "not found: %s\n" % path)

            def _reply(self, status: int, content_type: str, body: str) -> None:
                data = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args) -> None:  # silence per-request noise
                pass

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral one)."""
        return self._server.server_address[1]

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> "TelemetryServer":
        """Serve from a daemon thread; returns self for chaining."""
        if self._closed:
            raise RuntimeError("server already closed")
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="telemetry-http", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Shut down and release the port; safe to call any number of times."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            # shutdown() waits on the serve loop's acknowledgement event,
            # which only exists once a loop has run -- guard so closing a
            # never-started server cannot block.
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

