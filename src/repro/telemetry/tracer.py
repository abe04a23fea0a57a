"""Structured event tracing with a bounded ring buffer.

Metrics answer "how much"; the tracer answers "what happened, and in
what order".  It records :class:`TraceEvent` objects -- a sequence
number, a timestamp, a dotted event name and a flat field dict -- into a
``collections.deque`` ring so a long-running daemon can never grow its
trace without bound.  The events this repository emits are the ones the
paper's operational story turns on:

* ``nitro.p_change`` -- the sampling probability moved (either adaptive
  mode, or a reset);
* ``nitro.convergence`` -- AlwaysCorrect's ``median_i sum_y C[i,y]^2 > T``
  test crossed, with the packet index where it happened;
* ``nitro.epoch`` -- an AlwaysLineRate 100 ms rate-measurement epoch
  rolled over;
* ``control.epoch`` / ``control.task`` -- the control plane evaluated an
  epoch / one measurement task;
* ``simulate.run`` -- a switch-simulator run completed.

Export is JSON Lines (one event per line, sorted keys) so traces diff
cleanly and round-trip exactly -- :func:`read_jsonl` restores what
:meth:`Tracer.to_jsonl` wrote.  Every line is strict JSON: a non-finite
float field is written, and read back, as the string ``"+Inf"``,
``"-Inf"`` or ``"NaN"``.
"""

from __future__ import annotations

import io
import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional


def _json_value(value: float):
    """A strictly-JSON-safe float.

    ``json.dumps`` would otherwise emit bare ``Infinity`` / ``NaN``
    tokens, which are not valid JSON; non-finite values are encoded as
    their Prometheus text strings (``+Inf``, ``-Inf``, ``NaN``) instead.
    """
    if math.isfinite(value):
        return value
    if value != value:
        return "NaN"
    return "+Inf" if value > 0 else "-Inf"


@dataclass
class TraceEvent:
    """One structured event.

    ``time`` is the ordering timestamp (monotonic by default, immune to
    wall-clock steps); ``wall`` is the wall-clock instant, so exported
    JSONL lines can be correlated with logs and other hosts.
    """

    seq: int
    time: float
    name: str
    fields: Dict[str, object] = field(default_factory=dict)
    wall: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form; non-finite float fields become strings."""
        return {
            "seq": self.seq,
            "time": self.time,
            "wall": self.wall,
            "name": self.name,
            "fields": {
                key: _json_value(value) if isinstance(value, float) else value
                for key, value in self.fields.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceEvent":
        return cls(
            seq=int(data["seq"]),
            time=float(data["time"]),
            name=str(data["name"]),
            fields=dict(data.get("fields", {})),
            # Traces written before the wall field existed fall back to
            # the primary timestamp, keeping old JSONL files loadable.
            wall=float(data.get("wall", data["time"])),
        )


class Tracer:
    """Bounded in-memory event recorder.

    Parameters
    ----------
    capacity:
        Ring size; once full, the oldest events are evicted (the
        ``dropped`` property tells how many were lost).
    clock:
        Primary timestamp source, injectable for deterministic
        golden-file tests.  Defaults to monotonic ``time.monotonic``.
    wall_clock:
        Wall-clock source for the ``wall`` field.  Defaults to
        ``time.time``; when a custom ``clock`` is injected without a
        ``wall_clock``, events mirror the primary timestamp so golden
        traces stay deterministic.
    """

    def __init__(
        self,
        capacity: int = 4096,
        clock: Optional[Callable[[], float]] = None,
        wall_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %d" % capacity)
        self.capacity = capacity
        self._clock = time.monotonic if clock is None else clock
        if wall_clock is not None:
            self._wall_clock: Optional[Callable[[], float]] = wall_clock
        elif clock is None:
            self._wall_clock = time.time
        else:
            self._wall_clock = None  # mirror the injected clock
        self._ring: "deque[TraceEvent]" = deque(maxlen=capacity)
        self._recorded = 0

    def record(self, name: str, **fields) -> TraceEvent:
        """Append one event to the ring and return it."""
        now = self._clock()
        wall = self._wall_clock() if self._wall_clock is not None else now
        event = TraceEvent(
            seq=self._recorded, time=now, name=name, fields=fields, wall=wall
        )
        self._recorded += 1
        self._ring.append(event)
        return event

    @property
    def recorded(self) -> int:
        """Events recorded since creation (including evicted ones)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound."""
        return self._recorded - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def events(self, name: Optional[str] = None) -> List[TraceEvent]:
        """Buffered events in order, optionally filtered by exact name."""
        if name is None:
            return list(self._ring)
        return [event for event in self._ring if event.name == name]

    def clear(self) -> None:
        self._ring.clear()
        self._recorded = 0

    # -- JSONL round trip ---------------------------------------------------

    def to_jsonl(self) -> str:
        """Serialise the buffered events, one JSON object per line."""
        out = io.StringIO()
        for event in self._ring:
            out.write(json.dumps(event.as_dict(), sort_keys=True))
            out.write("\n")
        return out.getvalue()

    def write_jsonl(self, path: str) -> int:
        """Write the buffer to ``path``; returns the number of events."""
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())
        return len(self._ring)


def parse_jsonl(text: str) -> List[TraceEvent]:
    """Parse events from JSONL text (inverse of :meth:`Tracer.to_jsonl`)."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(TraceEvent.from_dict(json.loads(line)))
    return events


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a JSONL trace file written by :meth:`Tracer.write_jsonl`."""
    with open(path) as handle:
        return parse_jsonl(handle.read())
