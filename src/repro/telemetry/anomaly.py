"""Traffic-anomaly detectors computed from the sketches themselves.

The generality argument of NitroSketch/UnivMon is that one sketch
answers many operational questions; this module asks three of them at
every epoch boundary and emits the answers as metrics the alert plane
(:mod:`repro.telemetry.alerts`) consumes:

* **K-ary change detection** -- the sketch family's original purpose
  (Krishnamurthy et al.): linear sketches subtract, so the difference
  between this epoch's sketch and the previous cumulative snapshot *is*
  a sketch of this epoch's traffic, and querying it against the last
  epoch's estimates yields per-flow change.  ``anomaly_change_score``
  is the largest single-flow epoch-over-epoch change as a fraction of
  epoch traffic; ``anomaly_heavy_changers`` counts flows above a share
  threshold.
* **Entropy collapse (DDoS onset/offset)** -- a volumetric attack on
  one victim concentrates the flow-size distribution, collapsing its
  empirical entropy.  We estimate epoch entropy from the heavy-hitter
  estimates plus a singleton-mice residual, track an EMA baseline that
  *freezes during a detected collapse* (so the attack cannot poison its
  own baseline), and export ``anomaly_entropy_drop`` -- the fractional
  drop against baseline -- for the ``entropy_collapse`` alert rule to
  threshold.  Offset is symmetric: traffic recovers, the drop returns
  to ~0, the alert resolves.
* **Heavy-hitter churn** -- Jaccard distance between successive epochs'
  heavy-hitter key sets (``anomaly_hh_churn``): routing flaps and sweep
  attacks replace the elephant population even when volume is steady.

Everything is estimated from the sketch + top-k state the monitor
already maintains -- no per-flow ground truth, exactly the always-on
deployment the paper argues for.  :func:`ddos_onset_trace` builds the
matching synthetic MACCDC-style scenario: CAIDA-like background with a
mid-trace window where most packets are redirected at one victim flow.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.hashing import key_array
from repro.telemetry import NULL_TELEMETRY

__all__ = [
    "SketchAnomalyDetectors",
    "ddos_onset_trace",
    "default_alert_rules",
    "entropy_from_estimates",
]


def entropy_from_estimates(estimates: Dict[int, float], packets: float) -> float:
    """Entropy proxy: heavy estimates + singleton-mice residual.

    Estimated heavy flows contribute their exact ``-p log2 p`` terms;
    whatever epoch mass they do not explain is modelled as
    single-packet mice (each ``1/m``), which keeps the background
    epochs' entropy high and the attack epochs' entropy low -- the
    contrast the detector needs.  A proxy, not an estimator with a
    proven bound; its job is a stable, monotone-in-concentration
    signal.  Shared by the per-epoch detectors and the window-scoped
    gauges (:func:`repro.control.windows.export_window_metrics`).
    """
    if packets <= 0:
        return 0.0
    entropy = 0.0
    explained = 0.0
    for value in sorted(estimates.values(), reverse=True):
        value = min(value, packets - explained)
        if value <= 0:
            break
        share = value / packets
        entropy -= share * math.log2(share)
        explained += value
    residual = packets - explained
    if residual > 0 and packets > 1:
        entropy += (residual / packets) * math.log2(packets)
    return entropy


class SketchAnomalyDetectors:
    """Per-epoch change / entropy / churn signals from a live monitor.

    Call :meth:`observe_epoch` at every epoch boundary with the monitor
    (a :class:`~repro.core.nitro.NitroSketch` or bare canonical sketch)
    and the number of packets the epoch carried.  The monitor keeps
    ingesting cumulatively; the detectors snapshot its counters each
    epoch and work on differences, the K-ary idiom.

    Parameters
    ----------
    telemetry:
        Metric/event sink; defaults to the null sink.
    top_candidates:
        Cap on per-epoch candidate flows (current top-k union previous
        heavies) that are queried.
    heavy_share:
        A flow is "heavy" in an epoch when its estimated epoch count is
        at least this fraction of the epoch's packets (feeds churn).
    change_share:
        A flow is a "heavy changer" when its epoch-over-epoch change is
        at least this fraction of the epoch's packets.
    ema_alpha:
        EMA weight for the entropy baseline.
    freeze_drop:
        Baseline updates pause while the current drop exceeds this
        value, so a long attack cannot drag the baseline down and
        mask its own resolution.

    The shape of the observed monitor is the owner's to set, through
    the ``cumulative`` attribute.  True (the default) when the monitor
    keeps ingesting across epochs: epoch traffic is recovered by
    differencing against the previous boundary's counter snapshot.
    False when each observed sketch already holds exactly one epoch and
    is queried directly.  :class:`~repro.switchsim.daemon.MeasurementDaemon`
    sets it to ``not daemon.windowed``: a windowed daemon hands over the
    in-progress ring epoch just before rotating it.
    """

    def __init__(
        self,
        telemetry=NULL_TELEMETRY,
        top_candidates: int = 128,
        heavy_share: float = 0.01,
        change_share: float = 0.05,
        ema_alpha: float = 0.3,
        freeze_drop: float = 0.2,
    ) -> None:
        if top_candidates < 1:
            raise ValueError("top_candidates must be >= 1")
        if not 0 < ema_alpha <= 1:
            raise ValueError("ema_alpha must be in (0, 1]")
        self.telemetry = telemetry
        self.top_candidates = top_candidates
        self.heavy_share = heavy_share
        self.change_share = change_share
        self.ema_alpha = ema_alpha
        self.freeze_drop = freeze_drop
        self.cumulative = True
        self.epochs = 0
        #: Clone of the monitored sketch holding last epoch's cumulative
        #: counters (lazily created; refreshed in place each epoch).
        self._prev_cumulative = None
        self._prev_epoch_estimates: Dict[int, float] = {}
        self._prev_heavy: frozenset = frozenset()
        self._baseline_entropy: Optional[float] = None
        self.last_signals: Optional[Dict[str, float]] = None

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _sketch_of(monitor):
        """The canonical sketch inside a monitor (or the monitor itself)."""
        inner = getattr(monitor, "sketch", monitor)
        if not hasattr(inner, "counters") or not hasattr(inner, "query_batch"):
            raise TypeError(
                "monitor %r does not expose a queryable counter sketch"
                % (type(monitor).__name__,)
            )
        return inner

    @staticmethod
    def _clone_sketch(sketch):
        """A bare same-seed sketch whose counters we can overwrite."""
        clone = type(sketch)(
            depth=sketch.depth, width=sketch.width, seed=sketch.seed
        )
        np.copyto(clone.counters, sketch.counters)
        if hasattr(sketch, "total"):
            clone.total = sketch.total
        return clone

    def _candidates(self, monitor, sketch) -> List[int]:
        keys = set(self._prev_heavy)
        topk = getattr(monitor, "topk", None)
        if topk is not None:
            keys.update(int(key) for key in topk.keys())
        if not keys:
            return []
        candidates = sorted(keys)
        if len(candidates) <= self.top_candidates:
            return candidates
        estimates = sketch.query_batch(key_array(candidates))
        order = np.argsort(estimates)[::-1][: self.top_candidates]
        return [candidates[int(i)] for i in order]

    def _epoch_estimates(self, sketch, candidates: List[int]) -> Dict[int, float]:
        """Estimated per-flow packet counts for *this epoch only*."""
        if not candidates:
            return {}
        keys = key_array(candidates)
        if not self.cumulative or self._prev_cumulative is None:
            epoch_values = np.asarray(sketch.query_batch(keys), dtype=np.float64)
        elif hasattr(sketch, "difference"):
            epoch_view = sketch.difference(self._prev_cumulative)
            epoch_values = np.asarray(
                epoch_view.query_batch(keys), dtype=np.float64
            )
        else:
            now_values = np.asarray(sketch.query_batch(keys), dtype=np.float64)
            prev_values = np.asarray(
                self._prev_cumulative.query_batch(keys), dtype=np.float64
            )
            epoch_values = now_values - prev_values
        epoch_values = np.maximum(epoch_values, 0.0)
        return {key: float(value) for key, value in zip(candidates, epoch_values)}

    @staticmethod
    def _entropy_bits(estimates: Dict[int, float], packets: float) -> float:
        """See :func:`entropy_from_estimates` (module-level since PR 9)."""
        return entropy_from_estimates(estimates, packets)

    # -- the epoch hook -----------------------------------------------------

    def observe_epoch(
        self, monitor, packets: float, now: Optional[float] = None
    ) -> Optional[Dict[str, float]]:
        """Compute this epoch's signals and export them as gauges.

        ``packets`` is the number of packets the epoch carried (the
        caller -- usually the daemon -- knows it exactly).  Returns
        the signal dict, or ``None`` for an empty epoch.
        """
        packets = float(packets)
        if packets <= 0:
            return None
        sketch = self._sketch_of(monitor)
        candidates = self._candidates(monitor, sketch)
        estimates = self._epoch_estimates(sketch, candidates)

        # Change detection: epoch-over-epoch per-flow deltas.  The first
        # epoch has no predecessor, so its score is defined as zero --
        # otherwise every flow would read as a "change" at startup.
        change_score = 0.0
        heavy_changers = 0
        if self.epochs > 0:
            union = set(estimates) | set(self._prev_epoch_estimates)
            for key in union:
                delta = abs(
                    estimates.get(key, 0.0)
                    - self._prev_epoch_estimates.get(key, 0.0)
                )
                share = delta / packets
                change_score = max(change_score, share)
                if share >= self.change_share:
                    heavy_changers += 1

        # Entropy collapse against a frozen-under-attack EMA baseline.
        entropy = self._entropy_bits(estimates, packets)
        if self._baseline_entropy is None:
            self._baseline_entropy = entropy
        baseline = self._baseline_entropy
        drop = 0.0 if baseline <= 0 else max(0.0, 1.0 - entropy / baseline)
        if drop < self.freeze_drop:
            self._baseline_entropy = (
                (1.0 - self.ema_alpha) * baseline + self.ema_alpha * entropy
            )

        # Heavy-hitter churn: Jaccard distance of successive heavy sets.
        heavy = frozenset(
            key
            for key, value in estimates.items()
            if value >= self.heavy_share * packets
        )
        if self.epochs == 0 or (not heavy and not self._prev_heavy):
            churn = 0.0
        else:
            union_size = len(heavy | self._prev_heavy)
            churn = 1.0 - len(heavy & self._prev_heavy) / union_size

        signals = {
            "epoch": float(self.epochs),
            "packets": packets,
            "change_score": change_score,
            "heavy_changers": float(heavy_changers),
            "entropy_bits": entropy,
            "entropy_baseline_bits": self._baseline_entropy,
            "entropy_drop": drop,
            "hh_churn": churn,
        }
        telemetry = self.telemetry
        telemetry.gauge("anomaly_change_score", change_score)
        telemetry.gauge("anomaly_heavy_changers", heavy_changers)
        telemetry.gauge("anomaly_entropy_bits", entropy)
        telemetry.gauge("anomaly_entropy_baseline_bits", self._baseline_entropy)
        telemetry.gauge("anomaly_entropy_drop", drop)
        telemetry.gauge("anomaly_hh_churn", churn)
        telemetry.gauge("anomaly_epoch_packets", packets)
        telemetry.count("anomaly_epochs_total")
        telemetry.event("anomaly.epoch", **signals)

        # Roll the epoch window forward (snapshotting only matters for
        # cumulative monitors; fresh-per-epoch monitors are replaced).
        if self.cumulative:
            if self._prev_cumulative is None:
                self._prev_cumulative = self._clone_sketch(sketch)
            else:
                np.copyto(self._prev_cumulative.counters, sketch.counters)
                if hasattr(sketch, "total"):
                    self._prev_cumulative.total = sketch.total
        self._prev_epoch_estimates = estimates
        self._prev_heavy = heavy
        self.epochs += 1
        self.last_signals = signals
        return signals

    def reset(self) -> None:
        self.epochs = 0
        self._prev_cumulative = None
        self._prev_epoch_estimates = {}
        self._prev_heavy = frozenset()
        self._baseline_entropy = None
        self.last_signals = None


def ddos_onset_trace(
    n_packets: int = 60_000,
    attack_start: float = 1.0 / 3.0,
    attack_stop: float = 2.0 / 3.0,
    attack_share: float = 0.85,
    n_flows: int = 4_000,
    skew: float = 1.1,
    seed: int = 7,
):
    """CAIDA-like background with a mid-trace single-victim flood.

    Between ``attack_start`` and ``attack_stop`` (trace fractions),
    ``attack_share`` of packets are redirected to one victim flow key
    outside the background key space -- the volumetric-DDoS shape whose
    onset collapses flow-size entropy and whose offset restores it.
    (:func:`repro.traffic.traces.ddos_like` models the *source* side of
    an attack -- many attackers, which raises key entropy; this builds
    the victim side, which collapses it.)
    """
    from repro.traffic.traces import Trace, caida_like

    if not 0 <= attack_start < attack_stop <= 1:
        raise ValueError("need 0 <= attack_start < attack_stop <= 1")
    if not 0 < attack_share <= 1:
        raise ValueError("attack_share must be in (0, 1]")
    base = caida_like(n_packets, n_flows=n_flows, skew=skew, seed=seed)
    keys = base.keys.copy()
    start = int(n_packets * attack_start)
    stop = int(n_packets * attack_stop)
    rng = np.random.default_rng(seed + 0xDD05)
    # Victim key far outside any background key space (scramble_keys
    # keeps background keys within 63 bits of hash output; collisions
    # are astronomically unlikely but harmless anyway).
    victim = np.int64((1 << 61) + 0xDD05)
    window = keys[start:stop]
    window[rng.random(stop - start) < attack_share] = victim
    keys[start:stop] = window
    return Trace(
        name="ddos_onset",
        keys=keys,
        sizes=base.sizes,
        timestamps=base.timestamps,
        src_addresses=base.src_addresses,
    )


def default_alert_rules(
    epoch_seconds: float = 1.0,
    entropy_drop: float = 0.25,
    change_score: float = 0.2,
    churn: float = 0.6,
    queue_depth: int = 64,
    restart_budget: int = 1,
    budget: float = 1.0,
):
    """The stock rule set wired to the detectors and the ops surface.

    ``epoch_seconds`` scales the for-durations: the entropy rule needs
    the collapse to persist for two epochs (one evaluation of pending,
    then firing), matching a 100 ms-epoch deployment at any cadence.
    """
    from repro.telemetry.alerts import BurnRateRule, ThresholdRule

    return [
        ThresholdRule(
            "entropy_collapse",
            "anomaly_entropy_drop",
            threshold=entropy_drop,
            clear_threshold=entropy_drop / 2.0,
            for_seconds=2.0 * epoch_seconds,
            severity="critical",
            description="Flow-size entropy collapsed vs baseline "
            "(volumetric DDoS onset).",
        ),
        ThresholdRule(
            "traffic_change",
            "anomaly_change_score",
            threshold=change_score,
            clear_threshold=change_score / 2.0,
            severity="warning",
            description="A single flow's epoch-over-epoch change exceeds "
            "%.0f%% of epoch traffic (K-ary change detection)." % (100 * change_score),
        ),
        ThresholdRule(
            "heavy_hitter_churn",
            "anomaly_hh_churn",
            threshold=churn,
            clear_threshold=churn / 2.0,
            for_seconds=2.0 * epoch_seconds,
            severity="warning",
            description="The heavy-hitter population is being replaced "
            "epoch over epoch.",
        ),
        ThresholdRule(
            "daemon_queue_backlog",
            "daemon_queue_depth",
            threshold=queue_depth,
            clear_threshold=queue_depth / 2.0,
            severity="critical",
            description="The measurement daemon's ingest queue is "
            "backing up (separate-thread integration falling behind).",
        ),
        ThresholdRule(
            "worker_crash_loop",
            "parallel_worker_restarts_total",
            threshold=restart_budget,
            severity="warning",
            description="A parallel ingest worker needed crash-recovery "
            "respawns.",
        ),
        ThresholdRule(
            "guarantee_violation",
            "audit_guarantee_violations",
            threshold=1,
            severity="critical",
            description="The live audit recorded a Theorem 1/2/5 "
            "bound violation.",
        ),
        BurnRateRule(
            "error_budget_burn",
            "audit_bound_ratio",
            budget=budget,
            long_seconds=10.0 * epoch_seconds,
            short_seconds=2.0 * epoch_seconds,
            factor=0.9,
            labels={"component": "audit"},
            severity="critical",
            description="Observed error is burning the Theorem-2 error "
            "budget in both the long and short window.",
        ),
    ]
