"""The alert plane: declarative rules over live telemetry.

PRs 2-7 built recording -- metrics, traces, audits, history.  This
module closes the loop by *deciding*: a set of :class:`AlertRule`
objects is evaluated against snapshots (and, through
:class:`~repro.telemetry.history.HistoryStore` windows, against recent
history), and a per-``(alert, labelset)`` state machine turns raw
conditions into operator-grade alerts:

::

    inactive ──condition──▶ pending ──held for `for_seconds`──▶ firing
        ▲                      │                                  │
        └──────cleared─────────┘                cleared (hysteresis)
        ▲                                                         ▼
        └────────retention expired──────────────────────────── resolved
                                       (re-activation ▶ pending/firing)

Semantics follow Prometheus/Alertmanager where they exist:

* **for-duration** -- a condition must hold continuously for
  ``for_seconds`` before the alert fires (``pending`` in between);
* **hysteresis** -- a firing alert resolves only once the value crosses
  the rule's *clear* threshold, not merely dips under the firing one,
  so a series oscillating around the threshold cannot flap;
* **burn rate** -- :class:`BurnRateRule` compares the windowed mean of
  an error-budget ratio (the PR-3 ``audit_bound_ratio`` from the
  GuaranteeMonitor) against the budget over a long *and* a short
  window, the multi-window SRE pattern: the long window gives
  confidence, the short window gives fast resolution;
* **dedup + repeat-interval** -- :class:`AlertManager` notifies sinks
  once per firing/resolved transition and re-notifies a still-firing
  alert only every ``repeat_interval`` seconds.

Every transition is recorded three ways: an ``alert.transition`` tracer
event, an ``alerts_transitions_total{alertname,to}`` counter, and a
bounded in-memory transition log exportable as JSONL (the golden-file
format under ``tests/golden/``).  Current state is exported as the
Prometheus-conventional ``ALERTS{alertname,alertstate,severity,
labelset}`` gauge family -- one sample per (alert, state) with value 1
for the current state and 0 otherwise, because registry gauge children
are never deleted.

Determinism is a design requirement (the demo and golden tests depend
on it): the manager reads its clock exactly once per :meth:`~
AlertManager.evaluate` call, so injecting :class:`ManualClock` makes
every transition timestamp and for-duration decision reproducible.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.exposition import _json_value, snapshot as snapshot_of
from repro.telemetry.notify import Notification, NotificationSink

__all__ = [
    "ALERT_STATES",
    "AlertManager",
    "AlertRule",
    "AlertStatus",
    "BurnRateRule",
    "Condition",
    "ManualClock",
    "ThresholdRule",
    "labelset_key",
    "metric_samples",
    "metric_value",
]

#: Every state the per-labelset machine can be in, in display order.
ALERT_STATES = ("inactive", "pending", "firing", "resolved")

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
}


class ManualClock:
    """A deterministic clock: advances ``step`` seconds per call.

    Inject as ``AlertManager(clock=ManualClock())`` so evaluation ``i``
    happens at exactly ``start + i * step`` -- the demo and the golden
    transition tests rely on this.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self._now = float(start)
        self.step = float(step)

    def __call__(self) -> float:
        now = self._now
        self._now += self.step
        return now

    def peek(self) -> float:
        """The time the next call will return (no advance)."""
        return self._now


def labelset_key(labels: Dict[str, str]) -> str:
    """Canonical ``k=v,...`` string for a condition's labelset."""
    return ",".join("%s=%s" % (k, labels[k]) for k in sorted(labels))


def metric_samples(
    snap: Dict, metric: str, labels: Optional[Dict[str, str]] = None
) -> List[Tuple[Dict[str, str], float]]:
    """Every scalar sample of one family, as ``(labels, value)`` pairs.

    The one reader of snapshot samples: threshold rules alert per
    labelset (one alert per worker, per daemon, ...), and
    :func:`metric_value` sums the same pairs.  ``labels`` filters by
    subset match; histogram samples carry no ``value`` and are skipped.
    """
    family = snap.get("metrics", {}).get(metric)
    if family is None:
        return []
    wanted = labels or {}
    out: List[Tuple[Dict[str, str], float]] = []
    for sample in family.get("samples", ()):
        sample_labels = sample.get("labels", {})
        if not all(sample_labels.get(k) == v for k, v in wanted.items()):
            continue
        value = sample.get("value")
        if value is None:  # histogram sample; not a scalar
            continue
        # float() also decodes the "+Inf" / "-Inf" / "NaN" strings that
        # JSON snapshots carry for non-finite values.
        out.append((dict(sample_labels), float(value)))
    return out


def metric_value(
    snap: Dict, metric: str, labels: Optional[Dict[str, str]] = None
) -> Optional[float]:
    """The sum of the matching scalar samples, or ``None`` if none match."""
    samples = metric_samples(snap, metric, labels)
    return sum(value for _, value in samples) if samples else None


@dataclass
class Condition:
    """One rule's verdict for one labelset at one instant.

    ``active`` and ``cleared`` are distinct on purpose -- the gap
    between them is the hysteresis band: a firing alert stays firing
    while ``not cleared`` even after ``active`` goes false.
    """

    labels: Dict[str, str]
    value: Optional[float]
    active: bool
    cleared: bool
    detail: str = ""


class AlertRule:
    """Base class: evaluate a snapshot (+history) into conditions."""

    def __init__(
        self,
        name: str,
        for_seconds: float = 0.0,
        severity: str = "warning",
        description: str = "",
    ) -> None:
        if not name:
            raise ValueError("alert rule needs a name")
        if for_seconds < 0:
            raise ValueError("for_seconds must be >= 0, got %r" % (for_seconds,))
        self.name = name
        self.for_seconds = float(for_seconds)
        self.severity = severity
        self.description = description

    def evaluate(
        self, snap: Dict, history, now: float
    ) -> List[Condition]:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": type(self).__name__,
            "for_seconds": self.for_seconds,
            "severity": self.severity,
            "description": self.description,
        }


class ThresholdRule(AlertRule):
    """Alert when a metric sample crosses a threshold.

    One condition per matching labelset (so ``parallel_worker_restarts``
    alerts per worker).  ``clear_threshold`` sets the hysteresis band:
    with ``op=">="`` the alert activates at ``value >= threshold`` and
    clears only at ``value < clear_threshold``; ``None`` means no band
    (cleared whenever not active).  An absent metric/series yields no
    condition, which the manager treats as cleared.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        threshold: float,
        op: str = ">=",
        clear_threshold: Optional[float] = None,
        labels: Optional[Dict[str, str]] = None,
        for_seconds: float = 0.0,
        severity: str = "warning",
        description: str = "",
    ) -> None:
        super().__init__(name, for_seconds, severity, description)
        if op not in _OPS:
            raise ValueError("op must be one of %s, got %r" % (sorted(_OPS), op))
        if clear_threshold is not None:
            rising = op in (">", ">=")
            if rising and clear_threshold > threshold:
                raise ValueError(
                    "clear_threshold must be <= threshold for op %r" % op
                )
            if not rising and clear_threshold < threshold:
                raise ValueError(
                    "clear_threshold must be >= threshold for op %r" % op
                )
        self.metric = metric
        self.threshold = float(threshold)
        self.op = op
        self.clear_threshold = (
            None if clear_threshold is None else float(clear_threshold)
        )
        self.labels = dict(labels) if labels else {}

    def evaluate(self, snap: Dict, history, now: float) -> List[Condition]:
        compare = _OPS[self.op]
        conditions = []
        for labels, value in metric_samples(snap, self.metric, self.labels):
            active = compare(value, self.threshold)
            if self.clear_threshold is None:
                cleared = not active
            else:
                cleared = not compare(value, self.clear_threshold)
            conditions.append(
                Condition(
                    labels=labels,
                    value=value,
                    active=active,
                    cleared=cleared,
                    detail="%s = %.6g (%s %.6g)"
                    % (self.metric, value, self.op, self.threshold),
                )
            )
        return conditions

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        payload.update(
            {
                "metric": self.metric,
                "op": self.op,
                "threshold": self.threshold,
                "clear_threshold": self.clear_threshold,
                "labels": dict(self.labels),
            }
        )
        return payload


class BurnRateRule(AlertRule):
    """Multi-window burn rate over an error budget (SRE pattern).

    ``metric`` is a ratio-like series (canonically the PR-3
    ``audit_bound_ratio``: observed error as a fraction of the
    Theorem 1/2/5 bound); ``budget`` is how much of it the operator is
    willing to spend (1.0 = "anything under the proven bound").  The
    burn rate of a window is ``mean(window) / budget``; the alert
    activates when **both** the long and the short window burn at
    ``factor`` or more, and clears (hysteresis) once the short window
    cools below ``factor`` -- long window for confidence, short window
    for fast onset/offset.  Needs a :class:`HistoryStore`; without one
    (or before any samples exist) the rule reports nothing.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        budget: float = 1.0,
        long_seconds: float = 600.0,
        short_seconds: float = 60.0,
        factor: float = 1.0,
        labels: Optional[Dict[str, str]] = None,
        for_seconds: float = 0.0,
        severity: str = "critical",
        description: str = "",
    ) -> None:
        super().__init__(name, for_seconds, severity, description)
        if budget <= 0:
            raise ValueError("budget must be positive, got %r" % (budget,))
        if not 0 < short_seconds <= long_seconds:
            raise ValueError("need 0 < short_seconds <= long_seconds")
        self.metric = metric
        self.budget = float(budget)
        self.long_seconds = float(long_seconds)
        self.short_seconds = float(short_seconds)
        self.factor = float(factor)
        self.labels = dict(labels) if labels else {}

    def evaluate(self, snap: Dict, history, now: float) -> List[Condition]:
        if history is None:
            return []
        long_window = history.window(
            self.metric, self.long_seconds, now=now, **self.labels
        )
        short_window = history.window(
            self.metric, self.short_seconds, now=now, **self.labels
        )
        if not long_window or not short_window:
            return []
        long_burn = sum(v for _, v in long_window) / len(long_window) / self.budget
        short_burn = (
            sum(v for _, v in short_window) / len(short_window) / self.budget
        )
        active = long_burn >= self.factor and short_burn >= self.factor
        cleared = short_burn < self.factor
        return [
            Condition(
                labels=dict(self.labels),
                value=short_burn,
                active=active,
                cleared=cleared,
                detail="burn rate long=%.3f short=%.3f (budget %.3g, factor %.3g)"
                % (long_burn, short_burn, self.budget, self.factor),
            )
        ]

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        payload.update(
            {
                "metric": self.metric,
                "budget": self.budget,
                "long_seconds": self.long_seconds,
                "short_seconds": self.short_seconds,
                "factor": self.factor,
                "labels": dict(self.labels),
            }
        )
        return payload


@dataclass
class AlertStatus:
    """Runtime state of one (alert, labelset) pair."""

    name: str
    labels: Dict[str, str]
    severity: str
    state: str = "inactive"
    #: When the current state was entered.
    since: float = 0.0
    #: When the underlying condition last went active (for-duration anchor).
    active_since: Optional[float] = None
    value: Optional[float] = None
    detail: str = ""
    last_notified: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "alert": self.name,
            "labels": dict(self.labels),
            "severity": self.severity,
            "state": self.state,
            "since": self.since,
            "active_since": self.active_since,
            # A violated bound reads ratio inf: keep the routes strict JSON.
            "value": None if self.value is None else _json_value(self.value),
            "detail": self.detail,
        }


class AlertManager:
    """Evaluates rules, runs the state machine, exports, notifies.

    Parameters
    ----------
    telemetry:
        The :class:`~repro.telemetry.Telemetry` whose registry is both
        the input (snapshots) and the output (``ALERTS`` gauges,
        transition/notification counters).
    rules:
        The :class:`AlertRule` set; names must be unique.
    history:
        Optional :class:`~repro.telemetry.history.HistoryStore`.  When
        present every :meth:`evaluate` records its snapshot into it
        (set ``record_history=False`` if something else owns the
        recording cadence) and burn-rate rules read windows from it.
    sinks:
        :class:`~repro.telemetry.notify.NotificationSink` objects;
        attached sinks report their delivery accounting into the same
        registry.
    repeat_interval:
        Seconds between re-notifications of a still-firing alert
        (0 disables re-notification; transitions always notify).
    resolved_retention:
        Seconds a resolved alert stays visible before expiring back to
        inactive.
    clock:
        Called exactly once per :meth:`evaluate`; inject
        :class:`ManualClock` for determinism.  Defaults to
        ``time.monotonic``: for-duration anchors, burn-rate history
        windows, repeat-notification pacing and resolved-retention all
        measure *elapsed* time, and a wall clock stepped backwards or
        forwards by NTP would instantly promote pending alerts to
        firing (or mask a real burn).  Wall-clock time is used only for
        display/JSONL timestamps (see ``wall_clock``).
    wall_clock:
        Timestamp source for human-facing output (notification
        timestamps).  Defaults to ``time.time`` when ``clock`` is the
        default monotonic clock; when a custom ``clock`` is injected
        (tests, demos) it defaults to that same clock so golden
        transcripts stay deterministic.  Never consulted for state-
        machine arithmetic.
    on_transition:
        Optional callback receiving each transition dict as it happens
        (the demo uses it to probe HTTP routes at the firing instant).
    """

    def __init__(
        self,
        telemetry,
        rules: Sequence[AlertRule],
        history=None,
        sinks: Sequence[NotificationSink] = (),
        repeat_interval: float = 300.0,
        resolved_retention: float = 900.0,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Optional[Callable[[], float]] = None,
        record_history: bool = True,
        transitions_capacity: int = 1024,
        on_transition: Optional[Callable[[Dict], None]] = None,
    ) -> None:
        self.telemetry = telemetry
        self.rules = list(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError("alert rule names must be unique: %r" % (names,))
        self.history = history
        self.sinks = list(sinks)
        for sink in self.sinks:
            sink.telemetry = telemetry
        self.repeat_interval = float(repeat_interval)
        self.resolved_retention = float(resolved_retention)
        self.clock = clock
        # A custom state-machine clock (ManualClock in tests/demos)
        # doubles as the display clock unless one is given explicitly:
        # calling a second independent clock would break determinism.
        if wall_clock is not None:
            self.wall_clock = wall_clock
        elif clock is time.monotonic:
            self.wall_clock = time.time
        else:
            self.wall_clock = clock
        self.record_history = record_history
        self.on_transition = on_transition
        #: (alert name, labelset key) -> AlertStatus.  Entries are kept
        #: after deactivation so their ALERTS gauges stay zeroed.
        self._states: Dict[Tuple[str, str], AlertStatus] = {}
        self.evaluations = 0
        self.transitions_total = 0
        self.transitions: Deque[Dict] = deque(maxlen=transitions_capacity)

    def add_sink(self, sink: NotificationSink) -> None:
        sink.telemetry = self.telemetry
        self.sinks.append(sink)

    # -- evaluation ---------------------------------------------------------

    def evaluate(
        self, snap: Optional[Dict] = None, now: Optional[float] = None
    ) -> List[Dict]:
        """One evaluation round; returns the transitions it caused."""
        now = self.clock() if now is None else float(now)
        if snap is None:
            snap = snapshot_of(self.telemetry.registry)
        if self.history is not None and self.record_history:
            self.history.record(snap, timestamp=now)
        events: List[Dict] = []
        for rule in self.rules:
            seen: set = set()
            for cond in rule.evaluate(snap, self.history, now):
                key = (rule.name, labelset_key(cond.labels))
                seen.add(key)
                state = self._state_for(rule.name, cond.labels, rule.severity)
                events.extend(self._advance(state, cond, rule.for_seconds, now))
            # A labelset the rule stopped reporting (series vanished,
            # metric family gone) reads as fully cleared.
            for (name, _), state in list(self._states.items()):
                if name != rule.name:
                    continue
                if (name, labelset_key(state.labels)) in seen:
                    continue
                if state.state in ("pending", "firing"):
                    gone = Condition(
                        labels=state.labels,
                        value=None,
                        active=False,
                        cleared=True,
                        detail="series absent",
                    )
                    events.extend(self._advance(state, gone, rule.for_seconds, now))
        events.extend(self._housekeeping(now))
        self.evaluations += 1
        self.telemetry.count("alerts_evaluations_total")
        self._export()
        return events

    def _state_for(
        self, name: str, labels: Dict[str, str], severity: str
    ) -> AlertStatus:
        key = (name, labelset_key(labels))
        state = self._states.get(key)
        if state is None:
            state = AlertStatus(name=name, labels=dict(labels), severity=severity)
            self._states[key] = state
        return state

    def _advance(
        self, state: AlertStatus, cond: Condition, for_seconds: float, now: float
    ) -> List[Dict]:
        """Run one step of the state machine for one condition."""
        if cond.value is not None:
            state.value = cond.value
        if cond.detail:
            state.detail = cond.detail
        current = state.state
        if cond.active:
            if state.active_since is None:
                state.active_since = now
        else:
            state.active_since = None

        if current in ("inactive", "resolved"):
            if cond.active:
                if for_seconds > 0 and now - state.active_since < for_seconds:
                    return self._transition(state, "pending", now, notify=False)
                return self._transition(state, "firing", now, notify=True)
        elif current == "pending":
            if not cond.active:
                return self._transition(state, "inactive", now, notify=False)
            if now - state.active_since >= for_seconds:
                return self._transition(state, "firing", now, notify=True)
        elif current == "firing":
            if cond.cleared:
                return self._transition(state, "resolved", now, notify=True)
        return []

    def _housekeeping(self, now: float) -> List[Dict]:
        """Resolved-retention expiry and repeat-interval re-notification."""
        events: List[Dict] = []
        for state in self._states.values():
            if (
                state.state == "resolved"
                and now - state.since >= self.resolved_retention
            ):
                events.extend(
                    self._transition(state, "inactive", now, notify=False)
                )
            elif (
                state.state == "firing"
                and self.repeat_interval > 0
                and state.last_notified is not None
                and now - state.last_notified >= self.repeat_interval
            ):
                self._notify(state, "firing", now)
        return events

    def _wall(self, now: float) -> float:
        """Display timestamp for an event happening at state-clock ``now``.

        When the display clock is the state-machine clock itself (a
        single injected ManualClock), ``now`` is reused rather than
        advancing the clock a second time.
        """
        if self.wall_clock is self.clock:
            return now
        return self.wall_clock()

    def _transition(
        self, state: AlertStatus, to: str, now: float, notify: bool
    ) -> List[Dict]:
        event = {
            # Wall-clock for humans reading the JSONL; all state-machine
            # arithmetic (since/active_since/last_notified) stays on the
            # monotonic ``now``.
            "time": self._wall(now),
            "alert": state.name,
            "labels": dict(state.labels),
            "from": state.state,
            "to": to,
            "value": None if state.value is None else _json_value(state.value),
            "detail": state.detail,
        }
        state.state = to
        state.since = now
        self.transitions_total += 1
        self.transitions.append(event)
        self.telemetry.count("alerts_transitions_total", alertname=state.name, to=to)
        self.telemetry.event(
            "alert.transition",
            alert=state.name,
            labels=labelset_key(state.labels),
            previous=event["from"],
            state=to,
            value=state.value,
            detail=state.detail,
        )
        # Export this alert's gauges before any callback or sink runs:
        # an on_transition hook probing /metrics at the firing instant
        # must already see ALERTS{...,alertstate="firing"} 1.
        labelset = labelset_key(state.labels)
        for name in ALERT_STATES:
            self.telemetry.gauge(
                "ALERTS",
                1.0 if name == to else 0.0,
                alertname=state.name,
                alertstate=name,
                severity=state.severity,
                labelset=labelset,
            )
        if notify and to in ("firing", "resolved"):
            self._notify(state, to, now)
        if self.on_transition is not None:
            self.on_transition(event)
        return [event]

    def _notify(self, state: AlertStatus, notif_state: str, now: float) -> None:
        notification = Notification(
            alert=state.name,
            state=notif_state,
            severity=state.severity,
            labels=dict(state.labels),
            value=state.value,
            detail=state.detail,
            timestamp=self._wall(now),
        )
        for sink in self.sinks:
            sink.notify(notification)
        state.last_notified = now

    # -- export / introspection ---------------------------------------------

    def _export(self) -> None:
        """Write the ALERTS gauge family: 1 for current state, 0 others.

        Registry gauge children cannot be deleted, so a state an alert
        has left must be zeroed, not removed -- scraping sees exactly
        one ``1`` per (alertname, labelset).
        """
        for state in self._states.values():
            labelset = labelset_key(state.labels)
            for name in ALERT_STATES:
                self.telemetry.gauge(
                    "ALERTS",
                    1.0 if name == state.state else 0.0,
                    alertname=state.name,
                    alertstate=name,
                    severity=state.severity,
                    labelset=labelset,
                )

    def states(self) -> List[AlertStatus]:
        """Every tracked (alert, labelset) status, stable order."""
        return [self._states[key] for key in sorted(self._states)]

    def active(self) -> List[AlertStatus]:
        """Statuses not currently inactive (the dashboard panel's feed)."""
        return [state for state in self.states() if state.state != "inactive"]

    def firing(self) -> List[AlertStatus]:
        return [state for state in self.states() if state.state == "firing"]

    def verdict(self) -> str:
        """The ``/health`` verdict over the current states.

        ``fail`` while a critical alert fires, ``warn`` while any other
        alert is pending or firing, ``ok`` otherwise.
        """
        verdict = "ok"
        for state in self._states.values():
            if state.state == "firing" and state.severity == "critical":
                return "fail"
            if state.state in ("pending", "firing"):
                verdict = "warn"
        return verdict

    def as_dict(self) -> Dict[str, object]:
        """JSON-able dump for the ``/alerts`` route."""
        return {
            "evaluations": self.evaluations,
            "transitions_total": self.transitions_total,
            "firing": [state.as_dict() for state in self.firing()],
            "states": [state.as_dict() for state in self.states()],
            "recent_transitions": list(self.transitions)[-50:],
            "sinks": [sink.as_dict() for sink in self.sinks],
        }

    def describe_rules(self) -> List[Dict[str, object]]:
        """JSON-able rule catalogue for the ``/rules`` route."""
        return [rule.describe() for rule in self.rules]

    def transitions_jsonl(self) -> str:
        """The transition log as JSONL (golden-file format)."""
        return "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in self.transitions
        )
