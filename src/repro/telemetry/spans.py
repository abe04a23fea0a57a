"""The trace model: one bounded ring of spans, events included.

Spans answer "what happened, where did the time go, and inside what".
A :class:`Span` is a named, timed interval with a trace id (one per
logical operation -- here, one per parallel-run epoch), a span id, and
an optional parent span id, which is exactly the OpenTelemetry-style
data model every tracing backend speaks.  An event is a zero-duration
span: :meth:`SpanTracer.record_event` records one under the innermost span
open on the calling thread (or, outside any span, under the constant
:data:`EVENTS_TRACE_ID`), so a worker restart lands inside its epoch's
tree.  The events this repository emits are the ones the paper's
operational story turns on:

* ``nitro.p_change`` -- the sampling probability moved (either adaptive
  mode, or a reset);
* ``nitro.convergence`` -- AlwaysCorrect's ``median_i sum_y C[i,y]^2 > T``
  test crossed, with the packet index where it happened;
* ``nitro.epoch`` -- an AlwaysLineRate 100 ms rate-measurement epoch
  rolled over;
* ``control.epoch`` / ``control.task`` -- the control plane evaluated an
  epoch / one measurement task;
* ``simulate.run`` / ``parallel.run`` -- a simulator or parallel run
  completed.

The multi-core data plane makes spans interesting: a single epoch's work
is spread over the parent (spawn, frame await, CRC check, merge, task
evaluation) and ``N`` worker processes (shard ingest, frame publish).
Workers cannot share the parent's ring, so propagation works the way
the NSKW epoch frames already do -- by value:

* the parent derives one **deterministic** trace id per (run, epoch)
  with :func:`make_trace_id` and hands the run context to each worker
  inside its ``WorkerSpec``;
* a worker times its per-epoch stages locally (plain dicts, no shared
  state) and ships them in the ``spans`` list of its ``EpochFrame``
  metadata -- the NSKW v2 header grew a ``trace`` block for this;
* the parent rebuilds :class:`Span` objects from the frame metadata and
  records them into its own :class:`SpanTracer`, so ``/trace`` serves
  one coherent per-epoch tree spanning ingest -> mailbox publish -> CRC
  check -> merge -> task evaluation.

Determinism matters for crash recovery: span ids are pure functions of
(trace id, name, worker, epoch), so a respawned worker re-publishing an
epoch produces the *same* ids as its dead predecessor -- the re-ingested
epoch lands in the same tree instead of forking a new trace.  An
event's id is a pure function of (trace id, name, the ring's recorded
count), so a rerun of the same work records the same ids.

Timestamps are wall-clock (``time.time``, injectable for golden files)
so spans from different processes order correctly; durations are
measured with ``time.perf_counter`` within each process, so they do not
suffer wall-clock steps.  Export is JSON Lines (one span per line,
sorted keys); every line is strict JSON: a non-finite float field is
written, and read back, as the string ``"+Inf"``, ``"-Inf"`` or
``"NaN"``.
"""

from __future__ import annotations

import hashlib
import io
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.telemetry.registry import _json_value

__all__ = [
    "EVENTS_TRACE_ID",
    "Span",
    "SpanTracer",
    "ActiveSpan",
    "make_trace_id",
    "make_span_id",
    "build_trace_tree",
    "render_span_tree",
    "parse_spans_jsonl",
]


def _digest(prefix: bytes, parts) -> str:
    """16-hex-char stable id from ``parts`` (blake2b, 8 bytes)."""
    payload = prefix + "\x00".join(map(str, parts)).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def make_trace_id(*parts) -> str:
    """A deterministic 16-hex trace id from identifying parts.

    The parallel engine calls this with (strategy, workers, rss_seed,
    packet count, epoch), so a crash-recovery rerun of the same epoch
    reproduces the same id -- the property the recovery tests pin.
    """
    return _digest(b"trace:", parts)


def make_span_id(trace_id: str, name: str, *parts) -> str:
    """A deterministic 16-hex span id scoped to one trace."""
    return _digest(b"span:", (trace_id, name) + parts)


#: Trace id of the events recorded outside any open span.
EVENTS_TRACE_ID = make_trace_id("events")


@dataclass
class Span:
    """One named, timed interval inside a trace."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    #: Wall-clock start (``time.time``), comparable across processes.
    start: float
    #: Seconds, measured with a monotonic clock inside one process.
    duration: float
    fields: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form; non-finite float fields become strings."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "fields": {
                key: _json_value(value) if isinstance(value, float) else value
                for key, value in self.fields.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=(None if data.get("parent_id") is None else str(data["parent_id"])),
            name=str(data["name"]),
            start=float(data["start"]),
            duration=float(data["duration"]),
            fields=dict(data.get("fields", {})),
        )


class ActiveSpan:
    """Context manager timing one span into a :class:`SpanTracer`.

    Usable nested: ``child(name)`` starts a sub-span with this span as
    parent, and ``span_id`` is available immediately (before exit) so
    it can be handed to workers as their parent id.  While entered, it
    is the parent of the events its thread records into the ring.
    """

    __slots__ = ("_tracer", "span", "_t0")

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._t0 = 0.0

    @property
    def span_id(self) -> str:
        return self.span.span_id

    @property
    def trace_id(self) -> str:
        return self.span.trace_id

    def child(self, name: str, span_id: Optional[str] = None, **fields) -> "ActiveSpan":
        return self._tracer.start_span(
            name,
            trace_id=self.span.trace_id,
            parent_id=self.span.span_id,
            span_id=span_id,
            **fields,
        )

    def annotate(self, **fields) -> None:
        self.span.fields.update(fields)

    def __enter__(self) -> "ActiveSpan":
        self._tracer._open_spans().append(self)
        self._t0 = time.perf_counter()
        self.span.start = self._tracer._wall_clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.duration = time.perf_counter() - self._t0
        self._tracer._open_spans().remove(self)
        if exc_type is not None:
            self.span.fields.setdefault("error", exc_type.__name__)
        self._tracer.record(self.span)


class _NullActiveSpan:
    """Do-nothing stand-in with the :class:`ActiveSpan` surface.

    Also the shared null context manager of the package's other no-op
    sinks (``NullTelemetry.timer`` / ``atomic``, ``NULL_PROFILER.stage``).
    """

    __slots__ = ()
    span_id = ""
    trace_id = ""

    def child(self, name: str, span_id: Optional[str] = None, **fields) -> "_NullActiveSpan":
        return self

    def annotate(self, **fields) -> None:
        pass

    def __enter__(self) -> "_NullActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_ACTIVE_SPAN = _NullActiveSpan()


class SpanTracer:
    """Bounded in-memory span recorder: the one trace ring.

    Spans land here three ways: locally via :meth:`start_span` (a timing
    context manager), as zero-duration events via :meth:`record_event`, or
    imported from another process's serialized form via :meth:`record` /
    :meth:`record_dicts` -- the parallel engine's frame-metadata
    hand-off.  Once ``capacity`` spans are buffered, each new one evicts
    the oldest and calls ``on_evict`` (the owning
    :class:`~repro.telemetry.Telemetry` counts it as
    ``tracer_dropped_events_total``).
    """

    def __init__(self, capacity: int = 4096, wall_clock=time.time) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %d" % capacity)
        self.capacity = capacity
        self._wall_clock = wall_clock
        self._ring: "deque[Span]" = deque(maxlen=capacity)
        self._recorded = 0
        # Guards the recorded count with the append, so events recorded
        # from several threads at once never derive the same span id.
        self._lock = threading.Lock()
        self._local = threading.local()
        self.on_evict: Optional[Callable[[], None]] = None

    def _open_spans(self) -> List[ActiveSpan]:
        """The calling thread's entered, not yet exited spans."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # -- recording ----------------------------------------------------------

    def start_span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        **fields,
    ) -> ActiveSpan:
        """Open a timing context; the span is recorded on exit.

        Without an explicit ``trace_id`` a fresh root trace is derived
        from the tracer's running count (unique within this process).
        """
        if trace_id is None:
            trace_id = make_trace_id("local", id(self), self._recorded, name)
        if span_id is None:
            span_id = make_span_id(trace_id, name, self._recorded)
        span = Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start=0.0,
            duration=0.0,
            fields=dict(fields),
        )
        return ActiveSpan(self, span)

    def record_event(self, name: str, fields: Dict[str, object]) -> Span:
        """Record event ``name`` as a zero-duration span (``fields`` is
        kept, not copied) under the innermost open span.

        Outside any span the event joins :data:`EVENTS_TRACE_ID` as a
        root; its id is derived from the trace id, the name and the
        ring's recorded count.
        """
        stack = self._open_spans()
        if stack:
            parent = stack[-1].span
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = EVENTS_TRACE_ID, None
        with self._lock:
            span = Span(
                trace_id=trace_id,
                span_id=make_span_id(trace_id, name, self._recorded),
                parent_id=parent_id,
                name=name,
                start=self._wall_clock(),
                duration=0.0,
                fields=fields,
            )
            evicted = self._append(span)
        if evicted:
            self.on_evict()
        return span

    def record(self, span: Span) -> None:
        """Append one finished span (local or imported)."""
        with self._lock:
            evicted = self._append(span)
        if evicted:
            self.on_evict()

    def _append(self, span: Span) -> bool:
        """Append under the lock; True when it evicted the oldest span
        and ``on_evict`` must be called (after the lock is released, as
        the hook takes the registry lock)."""
        evicted = len(self._ring) == self.capacity
        self._recorded += 1
        self._ring.append(span)
        return evicted and self.on_evict is not None

    def record_dicts(self, dicts: Iterable[Dict[str, object]]) -> int:
        """Import spans serialized by another process; returns how many."""
        count = 0
        for data in dicts:
            self.record(Span.from_dict(data))
            count += 1
        return count

    # -- introspection ------------------------------------------------------

    @property
    def recorded(self) -> int:
        return self._recorded

    @property
    def dropped(self) -> int:
        """Spans evicted by the ring bound."""
        return self._recorded - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def spans(self, trace_id: Optional[str] = None, name: Optional[str] = None) -> List[Span]:
        out = list(self._ring)
        if trace_id is not None:
            out = [span for span in out if span.trace_id == trace_id]
        if name is not None:
            out = [span for span in out if span.name == name]
        return out

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in the ring, in first-seen order."""
        seen: Dict[str, None] = {}
        for span in self._ring:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._recorded = 0

    # -- JSONL round trip ---------------------------------------------------

    def to_jsonl(self) -> str:
        """Serialise the buffered spans, one sorted-key JSON object per line."""
        out = io.StringIO()
        for span in self.spans():
            out.write(json.dumps(span.as_dict(), sort_keys=True))
            out.write("\n")
        return out.getvalue()

    def write_jsonl(self, path: str) -> int:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())
        return len(self._ring)


def parse_spans_jsonl(text: str) -> List[Span]:
    """Parse spans from JSONL text (inverse of :meth:`SpanTracer.to_jsonl`)."""
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


# ---------------------------------------------------------------------------
# Trace assembly and rendering.
# ---------------------------------------------------------------------------


@dataclass
class SpanNode:
    """One span plus its children, ordered by wall-clock start."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)


def build_trace_tree(spans: Iterable[Span]) -> List[SpanNode]:
    """Nest spans by parent id; returns the roots, start-ordered.

    A span naming a parent that is absent from ``spans`` (e.g. evicted
    from the ring) becomes a root rather than being dropped, so partial
    traces still render.  Duplicate span ids (a crash-recovery worker
    re-publishing an epoch) keep the *last* occurrence -- the one whose
    ingest actually fed the merge.
    """
    by_id: Dict[str, SpanNode] = {}
    ordered: List[Span] = []
    for span in spans:
        node = SpanNode(span)
        if span.span_id not in by_id:
            ordered.append(span)
        by_id[span.span_id] = node
    roots: List[SpanNode] = []
    for span in ordered:
        node = by_id[span.span_id]
        parent = by_id.get(span.parent_id) if span.parent_id else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    def sort(nodes: List[SpanNode]) -> None:
        nodes.sort(key=lambda n: (n.span.start, n.span.name))
        for node in nodes:
            sort(node.children)
    sort(roots)
    return roots


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return "%.2fs" % seconds
    if seconds >= 1e-3:
        return "%.2fms" % (seconds * 1e3)
    return "%.0fµs" % (seconds * 1e6)


def render_span_tree(spans: Iterable[Span], indent: str = "  ") -> str:
    """ASCII tree of one or more traces, for ``nitrosketch trace``."""
    lines: List[str] = []
    roots = build_trace_tree(spans)
    trace_seen: Dict[str, None] = {}

    def walk(node: SpanNode, depth: int) -> None:
        span = node.span
        extras = ""
        interesting = {
            key: value
            for key, value in span.fields.items()
            if key in ("worker", "epoch", "packets", "task", "shard")
        }
        if interesting:
            extras = "  " + " ".join(
                "%s=%s" % (key, value) for key, value in sorted(interesting.items())
            )
        lines.append(
            "%s%-*s %10s%s"
            % (indent * depth, max(36 - depth * len(indent), 8), span.name,
               _format_duration(span.duration), extras)
        )
        for child in node.children:
            walk(child, depth + 1)

    for node in roots:
        if node.span.trace_id not in trace_seen:
            trace_seen[node.span.trace_id] = None
            lines.append("trace %s" % node.span.trace_id)
        walk(node, 1)
    return "\n".join(lines) + ("\n" if lines else "")
