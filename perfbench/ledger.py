"""In-memory span ledger recorded from the benchmark's own code.

The benchmark does not change the program: it wraps the public
functions at each layer boundary (a class method, an instance method or
a module function) so every call records one span -- name, start, end,
parent span and thread.  Spans stay in memory and are written out as
JSONL when the run ends.  A layer's *busy* time is the union of its
spans' intervals; its *self* time is its busy time minus the part of
each span that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One recorded call: ``[start, end)`` in ``perf_counter`` seconds."""

    __slots__ = ("span_id", "parent_id", "name", "thread", "start", "end", "attrs")

    def __init__(self, span_id, parent_id, name, thread, start, end=0.0, attrs=None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.attrs = attrs

    def as_dict(self) -> Dict:
        record = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class Ledger:
    """Records spans around wrapped calls; undoes every wrap on :meth:`close`."""

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs=None) -> Span:
        with self._id_lock:
            self._next_id += 1
            span_id = "%s%d" % (self.prefix, self._next_id)
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(span_id, parent, name, threading.get_ident(), 0.0, attrs=attrs)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        attrs: Optional[Callable] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``attrs(args, kwargs)`` returns span attributes; ``before(args,
        kwargs)`` returns a token handed to ``after(args, kwargs, token,
        result)``, which returns counts to add to :attr:`counts` (a ``max:`` key
        keeps the largest value instead of the sum).
        """
        own = vars(owner).get(attr)
        if isinstance(own, (staticmethod, classmethod, property)):
            raise TypeError("cannot wrap %s.%s: not a plain function" % (owner, attr))
        original = getattr(owner, attr)
        ledger = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            span = ledger._open(name, attrs(args, kwargs) if attrs is not None else None)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                ledger._close(span)
                if after is not None:
                    for key, value in after(args, kwargs, token, result).items():
                        if key.startswith("max:"):
                            ledger.counts[key] = max(ledger.counts[key], value)
                        else:
                            ledger.counts[key] += value

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, own))

    def close(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(), separators=(",", ":")) + "\n")


# -- interval arithmetic ---------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_seconds(span: Span, children: Sequence[Span]) -> float:
    """``span``'s duration minus the part of it its children cover."""
    clipped = [
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
        if child.end > span.start and child.start < span.end
    ]
    return (span.end - span.start) - union_length(clipped)


def layer_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``busy`` (interval union), ``self`` and ``calls``.

    Busy time is the union per thread, so a name nested inside itself
    or called on two threads at once is not counted twice.
    """
    children: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    intervals: Dict[Tuple[str, int], List[Tuple[float, float]]] = defaultdict(list)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"busy": 0.0, "self": 0.0, "calls": 0.0}
    )
    for span in spans:
        intervals[(span.name, span.thread)].append((span.start, span.end))
        row = out[span.name]
        row["calls"] += 1
        row["self"] += self_seconds(span, children.get(span.span_id, ()))
    for (name, _thread), pieces in intervals.items():
        out[name]["busy"] += union_length(pieces)
    return dict(out)
