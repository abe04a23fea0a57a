"""Labeled metric families: counters, gauges, log-bucketed histograms.

The registry follows the Prometheus data model (the de-facto exposition
standard for the software switches the paper targets -- OVS, VPP and
BESS all ship Prometheus-style counters):

* a **metric family** has a name, a help string and a fixed set of label
  names;
* a **child** is one (label values) instantiation of a family, holding
  the actual value(s);
* counters only go up, gauges go anywhere, histograms accumulate
  observations into cumulative ``le`` buckets plus a sum and a count.

Histograms default to *log-spaced* buckets because every distribution we
time (per-stage pipeline latencies, task evaluation times, geometric gap
lengths) spans orders of magnitude; linear buckets would waste most of
their resolution.

Everything is plain Python with dict lookups on the hot path -- fast
enough for per-batch instrumentation, and the accuracy-only code paths
never reach it at all (they run against
:data:`repro.telemetry.NULL_TELEMETRY`).
"""

from __future__ import annotations

import math
import re
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


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


def log_buckets(start: float, stop: float, factor: float = 4.0) -> List[float]:
    """Geometric bucket boundaries ``[start, start*factor, ...]`` up to ``stop``.

    The returned list always ends at or beyond ``stop`` so the last
    finite bucket covers it (the implicit ``+Inf`` bucket is added by the
    histogram itself).
    """
    if start <= 0:
        raise ValueError("start must be positive, got %r" % (start,))
    if factor <= 1.0:
        raise ValueError("factor must be > 1, got %r" % (factor,))
    buckets = [start]
    while buckets[-1] < stop:
        buckets.append(buckets[-1] * factor)
    return buckets


#: Default histogram buckets for wall-clock durations in seconds:
#: ~60 ns up to ~4 s in powers of four.
DEFAULT_TIME_BUCKETS: List[float] = log_buckets(2.0**-24, 4.0)

#: Default buckets for dimensionless size-ish quantities (gap lengths,
#: batch sizes, detected-flow counts): 1 up to ~1M in powers of four.
DEFAULT_SIZE_BUCKETS: List[float] = log_buckets(1.0, 2.0**20)


class CounterChild:
    """One labeled counter instance (monotonically non-decreasing)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase, got %r" % (amount,))
        self.value += amount


class GaugeChild:
    """One labeled gauge instance (free-moving value)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramChild:
    """One labeled histogram instance: cumulative buckets + sum + count."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets = buckets  # shared, ascending, no +Inf
        self.counts = [0] * (len(buckets) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative per-``le`` counts (ends with +Inf)."""
        total = 0
        out = []
        for count in self.counts:
            total += count
            out.append(total)
        return out


_CHILD_TYPES = {"counter": CounterChild, "gauge": GaugeChild, "histogram": HistogramChild}


class MetricFamily:
    """A named metric with a fixed label schema and lazily-created children."""

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _CHILD_TYPES:
            raise ValueError("unknown metric kind %r" % (kind,))
        if not _NAME_RE.match(name):
            raise ValueError("invalid metric name %r" % (name,))
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError("invalid label name %r" % (label,))
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        if kind == "histogram":
            bounds = list(buckets) if buckets is not None else list(DEFAULT_TIME_BUCKETS)
            if bounds != sorted(bounds):
                raise ValueError("histogram buckets must be ascending")
            self.buckets: Optional[Tuple[float, ...]] = tuple(bounds)
        else:
            if buckets is not None:
                raise ValueError("buckets only apply to histograms")
            self.buckets = None
        self._children: "OrderedDict[Tuple[str, ...], object]" = OrderedDict()

    def labels(self, *values, **kwvalues):
        """Return (creating if needed) the child for one label-value tuple.

        Accepts positional values in ``labelnames`` order or keyword
        values; mixing is an error.
        """
        if values and kwvalues:
            raise ValueError("pass label values positionally or by keyword, not both")
        if kwvalues:
            if set(kwvalues) != set(self.labelnames):
                raise ValueError(
                    "metric %s expects labels %r, got %r"
                    % (self.name, self.labelnames, tuple(sorted(kwvalues)))
                )
            values = tuple(str(kwvalues[name]) for name in self.labelnames)
        else:
            if len(values) != len(self.labelnames):
                raise ValueError(
                    "metric %s expects %d label values, got %d"
                    % (self.name, len(self.labelnames), len(values))
                )
            values = tuple(str(value) for value in values)
        child = self._children.get(values)
        if child is None:
            if self.kind == "histogram":
                child = HistogramChild(self.buckets)
            else:
                child = _CHILD_TYPES[self.kind]()
            self._children[values] = child
        return child

    # Convenience for label-less families: operate on the () child.

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def children(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        """Yield ``(label_values, child)`` in creation order."""
        return self._children.items()

    def label_dict(self, values: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.labelnames, values))


class MetricsRegistry:
    """Holds every metric family; the unit of exposition.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: repeated
    calls with the same name return the same family (and raise if the
    kind or label schema disagrees, which catches instrumentation typos
    early).
    """

    def __init__(self) -> None:
        self._families: "OrderedDict[str, MetricFamily]" = OrderedDict()
        #: Children resolved by :meth:`child`, keyed by (kind, name,
        #: label items), so a repeated write skips both lookups.
        self._resolved: Dict[Tuple, object] = {}
        # Re-entrant: a writer holding the lock for a multi-metric
        # atomic block still creates families (which re-acquires), and
        # exposition takes it to render a consistent view.
        self._lock = threading.RLock()

    @property
    def lock(self) -> "threading.RLock":
        """The registry-wide mutation/exposition lock.

        Writers (``Telemetry.count``/``gauge``/``observe``) mutate
        children under it, multi-metric updates group under it via
        :meth:`Telemetry.atomic`, and :func:`~repro.telemetry.exposition.snapshot`
        / :func:`~repro.telemetry.exposition.render_prometheus` hold it
        for the duration of a render -- a scrape can no longer observe
        one counter of a sibling pair updated and the other not.
        """
        return self._lock

    def _get_or_create(
        self,
        kind: str,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    "metric %s already registered as a %s" % (name, family.kind)
                )
            if family.labelnames != tuple(labelnames):
                raise ValueError(
                    "metric %s already registered with labels %r"
                    % (name, family.labelnames)
                )
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(kind, name, help, labelnames, buckets)
                self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._get_or_create("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._get_or_create("gauge", name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        return self._get_or_create("histogram", name, help, labelnames, buckets)

    def child(
        self,
        kind: str,
        name: str,
        labels: Dict[str, object],
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ):
        """The child of family ``name`` for keyword ``labels``.

        Get-or-create like :meth:`counter` / :meth:`gauge` /
        :meth:`histogram`, with the sorted keys of ``labels`` as label
        names.  The result is cached by (kind, name, label items) when
        every label value is a ``str``; other values (unhashable ones,
        or ``1`` and ``1.0``, which hash alike but name different
        children) resolve afresh on every call.  A call whose kind or
        label names disagree with the family misses the cache and
        raises, as on first use.
        """
        for value in labels.values():
            if type(value) is not str:
                return self._resolve(kind, name, labels, help, buckets)
        key = (kind, name, tuple(labels.items()))
        found = self._resolved.get(key)
        if found is None:
            found = self._resolved[key] = self._resolve(
                kind, name, labels, help, buckets
            )
        return found

    def _resolve(self, kind, name, labels, help, buckets):
        family = self._get_or_create(kind, name, help, tuple(sorted(labels)), buckets)
        return family.labels(**labels)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __iter__(self):
        return iter(self._families.values())

    def __len__(self) -> int:
        return len(self._families)

    def reset(self) -> None:
        """Drop every family (a fresh registry without rebinding refs)."""
        self._families.clear()
        self._resolved.clear()
