"""Service-plane checks: the always-on service vs in-process oracles.

The monitoring service adds three claims on top of the sketch math, and
this suite proves each one end to end (real sockets, real HTTP):

* **wire fidelity + tenant isolation** -- two clients stream disjoint
  tenants' traffic concurrently over the ingest socket; afterwards each
  tenant's monitor must be *byte-identical* to a reference daemon fed
  the same batches in-process.  Byte equality is the strongest possible
  isolation statement: not one counter anywhere in tenant A's sketch
  moved because of tenant B's packets (their hash functions and
  sampling streams derive from independent per-tenant seed streams);
* **queries during ingest stay inside Theorem 2** -- heavy-hitter and
  point answers fetched over HTTP at sync barriers while the stream is
  still arriving must sit inside the ``eps * L2`` envelope of the
  exactly-known sent prefix, with racing (unsynchronised) queries
  answering 200 throughout;
* **lifecycle durability** -- a graceful stop checkpoints every tenant;
  a restarted service restores each one byte-exactly and resumes
  ingest; LRU eviction under a tenant budget also round-trips bytes
  (evict -> restore == never evicted), and a windowed tenant evicted
  mid-epoch resumes its epoch cadence.

Plus the drop-accounting contract of the backpressure path: with
``overflow="drop"`` and no drainer, exactly queue_capacity batches are
accepted and the rest are counted, never silently lost.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
import urllib.request
from dataclasses import replace
from typing import Dict, List

import numpy as np

from repro.control.export import serialize_monitor
from repro.service import IngestClient, MonitoringService, ServiceConfig
from repro.service.records import batch_from_keys
from repro.switchsim.daemon import MeasurementDaemon
from repro.traffic.traces import Trace, caida_like
from repro.verify.differential import (
    ENVELOPE_SLACK,
    WITHIN_FRACTION,
    implied_epsilon,
)
from repro.verify.result import CheckResult

#: Wire frame granularity for the suite (batch boundaries are part of
#: the byte-exactness contract: reference daemons replay them exactly).
FRAME_KEYS = 1000


def _default_trace(packets: int, seed: int) -> Trace:
    return caida_like(packets, n_flows=max(200, packets // 20), seed=seed)


def _frames(keys: "np.ndarray") -> List["np.ndarray"]:
    return [keys[start : start + FRAME_KEYS] for start in range(0, len(keys), FRAME_KEYS)]


def _reference_monitor(config: ServiceConfig, tenant: str, frames) -> bytes:
    """Serialized bytes of a daemon fed ``frames`` in-process."""
    daemon = MeasurementDaemon(
        config.build_monitor(tenant),
        name="ref",
        queue_capacity=config.queue_capacity,
        epoch_batches=config.epoch_batches,
        window_epochs=config.window_epochs,
    )
    for frame in frames:
        daemon.ingest(batch_from_keys(np.asarray(frame, dtype=np.int64)))
    return serialize_monitor(daemon.monitor)


def _http_json(port: int, path: str) -> Dict:
    with urllib.request.urlopen(
        "http://127.0.0.1:%d%s" % (port, path), timeout=10
    ) as response:
        return json.loads(response.read())


def check_concurrent_tenants(packets: int, seed: int) -> List[CheckResult]:
    """Two concurrent wire clients, separate tenants, byte-exact isolation."""
    trace_a = _default_trace(packets, seed)
    trace_b = _default_trace(packets, seed + 1)
    keys_a = trace_a.keys
    keys_b = trace_b.keys + (1 << 40)  # disjoint key space for clarity
    config = ServiceConfig(seed=seed, epoch_batches=0)
    service = MonitoringService(config, http=False).start()
    results: List[CheckResult] = []
    try:
        errors: List[str] = []

        def run_client(tenant: str, keys: "np.ndarray") -> None:
            try:
                with IngestClient("127.0.0.1", service.ingest_port) as client:
                    for frame in _frames(keys):
                        client.ingest(tenant, frame)
                    client.sync(tenant)
            except Exception as exc:  # surfaced as a check failure
                errors.append("%s: %s" % (tenant, exc))

        thread_a = threading.Thread(target=run_client, args=("tenant_a", keys_a))
        thread_b = threading.Thread(target=run_client, args=("tenant_b", keys_b))
        thread_a.start(), thread_b.start()
        thread_a.join(timeout=60), thread_b.join(timeout=60)
        if errors or thread_a.is_alive() or thread_b.is_alive():
            results.append(
                CheckResult.fail(
                    "service.concurrent_ingest",
                    "client errors: %s" % (errors or "timed out"),
                )
            )
            return results
        stats_a = service.tenants.get("tenant_a").stats()
        stats_b = service.tenants.get("tenant_b").stats()
        lost = (
            stats_a["packets_ingested"] != len(keys_a)
            or stats_b["packets_ingested"] != len(keys_b)
            or stats_a["batches_dropped"]
            or stats_b["batches_dropped"]
        )
        if lost:
            results.append(
                CheckResult.fail(
                    "service.concurrent_ingest",
                    "wire loss: A %d/%d B %d/%d (drops %d/%d)"
                    % (
                        stats_a["packets_ingested"], len(keys_a),
                        stats_b["packets_ingested"], len(keys_b),
                        stats_a["batches_dropped"], stats_b["batches_dropped"],
                    ),
                )
            )
        else:
            results.append(
                CheckResult.ok(
                    "service.concurrent_ingest",
                    "2 concurrent clients, %d packets each, zero loss"
                    % len(keys_a),
                    packets=float(len(keys_a) + len(keys_b)),
                )
            )
        for tenant, keys in (("tenant_a", keys_a), ("tenant_b", keys_b)):
            live = serialize_monitor(service.tenants.get(tenant).daemon.monitor)
            reference = _reference_monitor(config, tenant, _frames(keys))
            if live == reference:
                results.append(
                    CheckResult.ok(
                        "service.isolation_%s" % tenant,
                        "byte-identical to a reference fed only its own "
                        "stream (%d bytes)" % len(live),
                        monitor_bytes=float(len(live)),
                    )
                )
            else:
                results.append(
                    CheckResult.fail(
                        "service.isolation_%s" % tenant,
                        "monitor diverged from the single-tenant reference "
                        "(the other tenant's ingest perturbed it)",
                    )
                )
    finally:
        service.stop()
    return results


def check_query_during_ingest(packets: int, seed: int) -> List[CheckResult]:
    """HTTP heavy-hitter/point answers mid-stream vs the Theorem-2 envelope."""
    trace = _default_trace(packets, seed)
    keys = trace.keys
    config = ServiceConfig(seed=seed, epoch_batches=0)
    service = MonitoringService(config).start()
    results: List[CheckResult] = []
    racing_failures = [0]
    stop_racing = threading.Event()

    def race_queries() -> None:
        # Unsynchronised reads while ingest runs: they must answer 200
        # (values checked separately at the barriers below).
        while not stop_racing.is_set():
            try:
                _http_json(service.http_port, "/tenants/live/stats")
                _http_json(service.http_port, "/tenants/live/heavy_hitters?share=0.01")
            except Exception:
                racing_failures[0] += 1

    try:
        def envelope_check(label: str, sent: "np.ndarray") -> CheckResult:
            """Fetch point answers over HTTP; compare against the exact
            truth of the packets sent (and synced) so far."""
            values, tallies = np.unique(sent, return_counts=True)
            counts: Dict[int, float] = {
                int(v): float(t) for v, t in zip(values.tolist(), tallies.tolist())
            }
            truth = dict(sorted(counts.items(), key=lambda kv: -kv[1])[:32])
            l2_true = math.sqrt(sum(v * v for v in counts.values()))
            envelope = implied_epsilon(config.width, config.probability) * l2_true
            point = _http_json(
                service.http_port,
                "/tenants/live/point?key=%s" % ",".join(str(k) for k in truth),
            )
            estimates = {
                entry["key"]: entry["estimate"] for entry in point["estimates"]
            }
            errors = np.array(
                [abs(estimates[k] - count) for k, count in truth.items()]
            )
            worst = float(np.max(errors))
            within = float(np.mean(errors <= envelope))
            name = "service.envelope_%s" % label
            if worst > ENVELOPE_SLACK * envelope or within < WITHIN_FRACTION:
                return CheckResult.fail(
                    name,
                    "HTTP answers outside Theorem 2: worst %.1f vs "
                    "envelope %.1f, %.0f%% within 1x"
                    % (worst, envelope, 100 * within),
                    worst_error=worst,
                    envelope=envelope,
                )
            return CheckResult.ok(
                name,
                "HTTP point answers within %.2fx of the eps*L2 envelope "
                "(%d keys)"
                % (worst / envelope if envelope else 0.0, len(truth)),
                worst_error=worst,
                envelope=envelope,
                within_fraction=within,
            )

        frames = _frames(keys)
        half = len(frames) // 2
        with IngestClient("127.0.0.1", service.ingest_port) as client:
            for frame in frames[:half]:
                client.ingest("live", frame)
            client.sync("live")
            # Mid-stream barrier: the tail has not been sent yet, so the
            # sent prefix is the exact ground truth right now.
            results.append(envelope_check("prefix", keys[: half * FRAME_KEYS]))
            racer = threading.Thread(target=race_queries)
            racer.start()
            for frame in frames[half:]:
                client.ingest("live", frame)
            client.sync("live")
            stop_racing.set()
            racer.join(timeout=10)
            results.append(envelope_check("full", keys))
            hh = _http_json(
                service.http_port, "/tenants/live/heavy_hitters?share=0.01"
            )
            if racing_failures[0] == 0 and hh["packets"] == len(keys):
                results.append(
                    CheckResult.ok(
                        "service.query_during_ingest",
                        "racing HTTP queries all answered during live ingest "
                        "(%d heavy hitters at the end)" % len(hh["heavy_hitters"]),
                        heavy_hitters=float(len(hh["heavy_hitters"])),
                    )
                )
            else:
                results.append(
                    CheckResult.fail(
                        "service.query_during_ingest",
                        "%d racing query failures; final packet count %s vs %d"
                        % (racing_failures[0], hh["packets"], len(keys)),
                    )
                )
    finally:
        stop_racing.set()
        service.stop()
    return results


def check_lifecycle(packets: int, seed: int) -> List[CheckResult]:
    """Graceful stop -> checkpoint -> restart -> byte-exact restore."""
    trace = _default_trace(packets, seed)
    results: List[CheckResult] = []
    with tempfile.TemporaryDirectory(prefix="verify-svc-") as tmp:
        config = ServiceConfig(seed=seed, checkpoint_dir=tmp, epoch_batches=0)
        service = MonitoringService(config, http=False).start()
        tenants = ("red", "green", "blue")
        shards = np.array_split(trace.keys, len(tenants))
        with IngestClient("127.0.0.1", service.ingest_port) as client:
            for tenant, shard in zip(tenants, shards):
                for frame in _frames(shard):
                    client.ingest(tenant, frame)
            for tenant in tenants:
                client.sync(tenant)
        before = {
            tenant: serialize_monitor(service.tenants.get(tenant).daemon.monitor)
            for tenant in tenants
        }
        service.stop()

        revived = MonitoringService(config, http=False).start()
        try:
            restored = {t for t in tenants if revived.tenants.get(t).restored}
            exact = {
                tenant: serialize_monitor(revived.tenants.get(tenant).daemon.monitor)
                == before[tenant]
                for tenant in tenants
            }
            if restored == set(tenants) and all(exact.values()):
                results.append(
                    CheckResult.ok(
                        "service.restart_restore",
                        "all %d tenants checkpointed on stop and restored "
                        "byte-exactly on restart" % len(tenants),
                        tenants=float(len(tenants)),
                    )
                )
            else:
                results.append(
                    CheckResult.fail(
                        "service.restart_restore",
                        "restored=%s byte-exact=%s" % (sorted(restored), exact),
                    )
                )
        finally:
            revived.stop()

        # LRU eviction round-trip: evicting and re-touching a tenant
        # must be invisible to its bytes.
        config2 = ServiceConfig(
            seed=seed, checkpoint_dir=os.path.join(tmp, "lru"),
            max_tenants=2, epoch_batches=0,
        )
        service = MonitoringService(config2, http=False).start()
        try:
            service.ingest_direct("first", trace.keys[:5000])
            first_bytes = serialize_monitor(
                service.tenants.get("first").daemon.monitor
            )
            service.ingest_direct("second", trace.keys[5000:10000])
            service.ingest_direct("third", trace.keys[10000:15000])  # evicts "first"
            evicted_is_lru = "first" not in service.tenants
            back = service.tenants.get("first")  # transparently restores
            roundtrip = (
                back is not None
                and back.restored
                and serialize_monitor(back.daemon.monitor) == first_bytes
            )
            if evicted_is_lru and roundtrip:
                results.append(
                    CheckResult.ok(
                        "service.eviction_roundtrip",
                        "LRU tenant evicted under budget and restored "
                        "byte-exactly on next touch",
                    )
                )
            else:
                results.append(
                    CheckResult.fail(
                        "service.eviction_roundtrip",
                        "lru_evicted=%s byte_exact_restore=%s"
                        % (evicted_is_lru, roundtrip),
                    )
                )
        finally:
            service.stop()
    return results


def check_eviction_resumes_epochs(seed: int) -> List[CheckResult]:
    """A windowed tenant evicted mid-epoch == one never evicted."""
    frames = _frames(_default_trace(12 * FRAME_KEYS, seed).keys)
    with tempfile.TemporaryDirectory(prefix="verify-svc-") as tmp:
        config = ServiceConfig(
            seed=seed, checkpoint_dir=tmp, window_epochs=2, epoch_batches=4
        )
        kept = MonitoringService(replace(config, checkpoint_dir=None), http=False)
        evicted = MonitoringService(config, http=False)
        for index, frame in enumerate(frames):
            kept.ingest_direct("w", frame)
            evicted.ingest_direct("w", frame)
            if index == 5:  # two frames into the second epoch
                evicted.tenants.evict("w")
        never, back = kept.tenants.get("w"), evicted.tenants.get("w")
        epochs = (back.daemon.epochs_completed, never.daemon.epochs_completed)
        exact = serialize_monitor(back.daemon.monitor) == serialize_monitor(
            never.daemon.monitor
        )
    if back.restored and exact and epochs[0] == epochs[1]:
        return [
            CheckResult.ok(
                "service.eviction_resumes_epochs",
                "windowed tenant evicted mid-epoch resumed byte-exactly "
                "with %d epochs completed" % epochs[0],
                epochs=float(epochs[0]),
            )
        ]
    return [
        CheckResult.fail(
            "service.eviction_resumes_epochs",
            "restored=%s byte_exact=%s epochs_completed %d vs %d never evicted"
            % (back.restored, exact, epochs[0], epochs[1]),
        )
    ]


def check_backpressure_accounting(seed: int) -> List[CheckResult]:
    """overflow='drop' sheds exactly the over-capacity batches, counted."""
    config = ServiceConfig(seed=seed, queue_capacity=4, overflow="drop", epoch_batches=0)
    manager_service = MonitoringService(config, http=False)
    # No started loops: exercise the daemon contract directly (the wire
    # path funnels into the same enqueue()).
    state = manager_service.tenants.get_or_create("bp")
    rng = np.random.default_rng(seed)
    offered = 10
    accepted = 0
    for _ in range(offered):
        batch = batch_from_keys(rng.integers(0, 1000, 100).astype(np.int64))
        if state.daemon.enqueue(batch):
            accepted += 1
    dropped = state.daemon.batches_dropped
    ok = accepted == config.queue_capacity and dropped == offered - accepted
    drained = state.daemon.drain()
    conserved = drained == accepted and state.daemon.queue_depth == 0
    if ok and conserved:
        return [
            CheckResult.ok(
                "service.backpressure_accounting",
                "capacity %d: %d accepted, %d dropped-and-counted, "
                "drain conserved all accepted batches"
                % (config.queue_capacity, accepted, dropped),
                dropped=float(dropped),
            )
        ]
    return [
        CheckResult.fail(
            "service.backpressure_accounting",
            "accepted=%d dropped=%d drained=%d (capacity %d, offered %d)"
            % (accepted, dropped, drained, config.queue_capacity, offered),
        )
    ]


def run_service_checks(quick: bool = False, seed: int = 0) -> List[CheckResult]:
    """The service suite (``nitrosketch selfcheck --suite service``)."""
    packets = 24_000 if quick else 60_000
    results: List[CheckResult] = []
    results.extend(check_concurrent_tenants(packets, seed))
    results.extend(check_query_during_ingest(packets, seed))
    results.extend(check_lifecycle(min(packets, 30_000), seed))
    results.extend(check_eviction_resumes_epochs(seed))
    results.extend(check_backpressure_accounting(seed))
    return results
