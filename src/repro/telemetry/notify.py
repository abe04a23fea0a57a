"""Notification sinks for the alert plane.

An :class:`~repro.telemetry.alerts.AlertManager` turns metric snapshots
into alert-state transitions; this module is where those transitions
leave the process.  Every sink implements one method --
:meth:`NotificationSink.notify` -- and the base class wraps delivery
with **failure accounting**: ``sent`` / ``failed`` counts and the last
error string, mirrored into ``notifications_sent_total`` /
``notifications_failed_total`` counters (labeled by sink) when a
telemetry object is attached.  A dead webhook must be visible in the
same ``/metrics`` page as the alert it failed to deliver.

Sinks (all stdlib-only, per the repo's no-new-dependencies rule):

* :class:`LogSink` -- one human-readable line per notification to a
  stream (stderr by default);
* :class:`JsonlSink` -- append-only JSONL file, one notification per
  line (the durable audit trail);
* :class:`WebhookSink` -- ``http.client`` POST of the notification JSON
  to a URL, success iff a 2xx response arrives within the timeout;
* :class:`MemorySink` -- in-process list, for tests and the demo.

:class:`WebhookReceiver` is the matching test double: a stdlib HTTP
server collecting POSTed bodies, used by ``nitrosketch alerts --demo``
to prove end-to-end delivery.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass, field
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, TextIO
from urllib.parse import urlsplit

from repro.telemetry.registry import _json_value

__all__ = [
    "Notification",
    "NotificationSink",
    "LogSink",
    "JsonlSink",
    "WebhookSink",
    "MemorySink",
    "WebhookReceiver",
]


@dataclass
class Notification:
    """One alert-plane message: an alert fired, re-fired, or resolved."""

    alert: str
    state: str  # "firing" or "resolved"
    severity: str
    labels: Dict[str, str] = field(default_factory=dict)
    value: Optional[float] = None
    detail: str = ""
    timestamp: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "alert": self.alert,
            "state": self.state,
            "severity": self.severity,
            "labels": dict(self.labels),
            "value": None if self.value is None else _json_value(self.value),
            "detail": self.detail,
            "timestamp": self.timestamp,
        }

    def render(self) -> str:
        """One-line human form, e.g. ``[FIRING] entropy_collapse ...``."""
        labels = (
            " " + ",".join("%s=%s" % (k, v) for k, v in sorted(self.labels.items()))
            if self.labels
            else ""
        )
        value = "" if self.value is None else " value=%.6g" % self.value
        return "[%s] %s (%s)%s%s -- %s" % (
            self.state.upper(),
            self.alert,
            self.severity,
            labels,
            value,
            self.detail,
        )


class NotificationSink:
    """Base class: delivery with sent/failed accounting.

    Subclasses implement :meth:`_deliver`; :meth:`notify` catches any
    exception so one dead sink can never take down the evaluation loop,
    and mirrors the tallies into telemetry when ``telemetry`` is set
    (the :class:`~repro.telemetry.alerts.AlertManager` sets it on
    attach).
    """

    #: Label value for the per-sink counters; subclasses override.
    kind = "sink"

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or self.kind
        self.sent = 0
        self.failed = 0
        self.last_error: Optional[str] = None
        #: Set by the owning AlertManager; NULL-safe to leave as None.
        self.telemetry = None

    def notify(self, notification: Notification) -> bool:
        """Deliver one notification; returns True on success."""
        try:
            self._deliver(notification)
        except Exception as exc:  # accounting, not crashing, is the contract
            self.failed += 1
            self.last_error = "%s: %s" % (type(exc).__name__, exc)
            if self.telemetry is not None:
                self.telemetry.count("notifications_failed_total", sink=self.name)
            return False
        self.sent += 1
        if self.telemetry is not None:
            self.telemetry.count("notifications_sent_total", sink=self.name)
        return True

    def _deliver(self, notification: Notification) -> None:  # pragma: no cover
        raise NotImplementedError

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "sent": self.sent,
            "failed": self.failed,
            "last_error": self.last_error,
        }


class LogSink(NotificationSink):
    """Writes one rendered line per notification to a text stream."""

    kind = "log"

    def __init__(self, stream: Optional[TextIO] = None, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.stream = stream if stream is not None else sys.stderr

    def _deliver(self, notification: Notification) -> None:
        self.stream.write(notification.render() + "\n")
        self.stream.flush()


class JsonlSink(NotificationSink):
    """Appends one JSON object per notification to a file."""

    kind = "jsonl"

    def __init__(self, path: str, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.path = path
        self._lock = threading.Lock()

    def _deliver(self, notification: Notification) -> None:
        line = json.dumps(notification.as_dict(), sort_keys=True)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")


class MemorySink(NotificationSink):
    """Collects notifications in a list (tests, demos)."""

    kind = "memory"

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.notifications: List[Notification] = []

    def _deliver(self, notification: Notification) -> None:
        self.notifications.append(notification)


class WebhookSink(NotificationSink):
    """POSTs the notification JSON to an HTTP URL via ``http.client``.

    Success requires a 2xx status within ``timeout`` seconds; anything
    else (connection refused, timeout, 500, non-http scheme) counts as a
    delivery failure.  Deliberately minimal -- no retries, no TLS -- the
    repo-side contract is accounting, the operator-side contract is any
    alertmanager-compatible receiver.
    """

    kind = "webhook"

    def __init__(self, url: str, timeout: float = 2.0, name: Optional[str] = None) -> None:
        super().__init__(name)
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError("WebhookSink needs an http:// URL, got %r" % (url,))
        self.url = url
        self.timeout = timeout
        self._host = parts.hostname
        self._port = parts.port or 80
        self._path = parts.path or "/"
        if parts.query:
            self._path += "?" + parts.query

    def _deliver(self, notification: Notification) -> None:
        body = json.dumps(notification.as_dict(), sort_keys=True).encode("utf-8")
        conn = HTTPConnection(self._host, self._port, timeout=self.timeout)
        try:
            conn.request(
                "POST",
                self._path,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            if not 200 <= response.status < 300:
                raise RuntimeError("webhook returned HTTP %d" % response.status)
        finally:
            conn.close()


class WebhookReceiver:
    """A stdlib HTTP server that collects POSTed JSON bodies.

    The demo's (and tests') far end of :class:`WebhookSink`: start it on
    an ephemeral port, point a sink at :attr:`url`, and assert on
    :attr:`received` afterwards.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.received: List[Dict] = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except ValueError:
                    payload = {"raw": raw.decode("utf-8", "replace")}
                with outer._lock:
                    outer.received.append(payload)
                data = b'{"ok": true}\n'
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args) -> None:
                pass

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return "http://%s:%d/" % (host, port)

    def start(self) -> "WebhookReceiver":
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="webhook-receiver", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "WebhookReceiver":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
