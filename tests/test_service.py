"""Tests for the always-on monitoring service: wire protocol, tenant
namespaces (LRU/idle eviction + checkpoint round-trips), the asyncio
ingest endpoint, the REST query plane, and graceful lifecycle."""

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.control.export import serialize_monitor
from repro.control.tasks import HeavyHitterTask
from repro.service import IngestClient, MonitoringService, ServiceConfig
from repro.service import records
from repro.service.tenants import (
    TenantManager,
    tenant_from_subdir,
    tenant_stream_id,
    tenant_subdir,
)
from repro.telemetry import NULL_TELEMETRY, AlertManager, HistoryStore, Telemetry
from repro.telemetry.exposition import snapshot
from repro.telemetry.health import health_rules


def _http(port, path):
    with urllib.request.urlopen(
        "http://127.0.0.1:%d%s" % (port, path), timeout=10
    ) as response:
        return response.status, json.loads(response.read())


def _http_error_status(port, path):
    try:
        urllib.request.urlopen("http://127.0.0.1:%d%s" % (port, path), timeout=10)
    except urllib.error.HTTPError as exc:
        return exc.code
    return 200


class TestWireProtocol:
    def test_ingest_frame_round_trip(self):
        keys = np.array([1, 2, 3, 1 << 50], dtype=np.int64)
        frame = records.encode_frame("ingest", "acme", keys)
        line, _, payload = frame.partition(b"\n")
        op, tenant, payload_bytes = records.decode_header(line + b"\n")
        assert (op, tenant) == ("ingest", "acme")
        assert payload_bytes == len(payload) == keys.nbytes
        decoded = records.decode_keys(payload)
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, keys)

    def test_control_frames_carry_no_payload(self):
        for op in ("sync", "stats"):
            frame = records.encode_frame(op, "acme")
            op_out, tenant, payload_bytes = records.decode_header(frame)
            assert (op_out, tenant, payload_bytes) == (op, "acme", 0)
        op, tenant, payload_bytes = records.decode_header(
            records.encode_frame("bye")
        )
        assert (op, tenant, payload_bytes) == ("bye", None, 0)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            records.encode_frame("exfiltrate", "acme")
        with pytest.raises(ValueError):
            records.decode_header(b'{"op":"exfiltrate","tenant":"acme"}\n')

    def test_malformed_headers_rejected(self):
        for line in (b"not json\n", b"[1,2]\n", b'{"tenant":"a"}\n', b"\xff\xfe\n"):
            with pytest.raises(ValueError):
                records.decode_header(line)

    def test_tenant_ids_validated(self):
        for bad in ("", ".hidden", "a b", "x" * 65, "sl/ash", None, 7):
            with pytest.raises(ValueError):
                records.validate_tenant(bad)
        for good in ("a", "acme-prod.1", "X" * 64, "0_zero"):
            assert records.validate_tenant(good) == good

    def test_oversized_count_rejected(self):
        line = json.dumps(
            {"op": "ingest", "tenant": "a", "count": records.MAX_FRAME_KEYS + 1}
        ).encode() + b"\n"
        with pytest.raises(ValueError):
            records.decode_header(line)
        with pytest.raises(ValueError):
            records.decode_header(
                b'{"op":"ingest","tenant":"a","count":-1}\n'
            )

    def test_ragged_payload_rejected(self):
        with pytest.raises(ValueError):
            records.decode_keys(b"\x00" * 7)

    def test_batch_from_keys_shape(self):
        batch = records.batch_from_keys(np.array([5, 6], dtype=np.int64))
        assert len(batch) == 2
        np.testing.assert_array_equal(batch.keys, [5, 6])


class TestTenantDerivation:
    def test_stream_ids_stable_and_distinct(self):
        assert tenant_stream_id("acme") == tenant_stream_id("acme")
        assert tenant_stream_id("acme") != tenant_stream_id("emca")

    def test_subdir_round_trip(self):
        assert tenant_from_subdir(tenant_subdir("acme-prod.1")) == "acme-prod.1"
        assert tenant_from_subdir("stray") is None
        assert tenant_from_subdir("t_zz") is None  # not hex

    def test_per_tenant_seeds_independent(self):
        config = ServiceConfig(seed=7)
        a, b = config.nitro_config("a"), config.nitro_config("b")
        assert a.seed != b.seed
        assert config.sketch_seed("a") != config.sketch_seed("b")
        # sampler and sketch streams differ even for the same tenant
        assert config.nitro_config("a").seed != config.sketch_seed("a")
        # deterministic: verification can rebuild the same monitor
        assert serialize_monitor(config.build_monitor("a")) == serialize_monitor(
            config.build_monitor("a")
        )
        assert serialize_monitor(config.build_monitor("a")) != serialize_monitor(
            config.build_monitor("b")
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            ServiceConfig(overflow="explode")
        with pytest.raises(ValueError):
            ServiceConfig(max_tenants=0)
        with pytest.raises(ValueError):
            ServiceConfig(audit=True, window_epochs=4)
        assert ServiceConfig(mode="always_correct").mode.value == "always_correct"


class _ManualClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestTenantManager:
    def _ingest(self, manager, tenant, seed=0, n=500):
        rng = np.random.default_rng(seed)
        state = manager.get_or_create(tenant)
        state.daemon.ingest(
            records.batch_from_keys(rng.integers(0, 100, n).astype(np.int64))
        )
        return state

    def test_lru_eviction_order(self, tmp_path):
        config = ServiceConfig(
            max_tenants=3, checkpoint_dir=str(tmp_path), epoch_batches=0
        )
        manager = TenantManager(config)
        for tenant in ("a", "b", "c"):
            self._ingest(manager, tenant)
        manager.get_or_create("a")  # touch: "b" is now the LRU
        self._ingest(manager, "d")  # over budget -> evict exactly "b"
        assert manager.tenants() == ["c", "a", "d"]
        assert manager.evicted == 1
        self._ingest(manager, "e")  # next victim is "c"
        assert manager.tenants() == ["a", "d", "e"]

    def test_eviction_checkpoints_and_restores_byte_exactly(self, tmp_path):
        config = ServiceConfig(
            max_tenants=2, checkpoint_dir=str(tmp_path), epoch_batches=0
        )
        manager = TenantManager(config)
        first = self._ingest(manager, "first", seed=1)
        # Leave a batch *queued*: eviction must drain before persisting.
        first.daemon.enqueue(
            records.batch_from_keys(np.arange(100, dtype=np.int64))
        )
        first.daemon.drain()
        before = serialize_monitor(first.daemon.monitor)
        self._ingest(manager, "second", seed=2)
        self._ingest(manager, "third", seed=3)  # evicts "first"
        assert "first" not in manager
        assert (tmp_path / tenant_subdir("first")).is_dir()
        back = manager.get_or_create("first")
        assert back.restored
        assert serialize_monitor(back.daemon.monitor) == before

    def test_eviction_mid_epoch_resumes_the_window(self, tmp_path):
        """Regression: an evicted windowed tenant came back with its
        epoch count reset, so it closed epochs on another schedule and
        its window covered different traffic."""
        config = ServiceConfig(
            window_epochs=2, epoch_batches=4, checkpoint_dir=str(tmp_path)
        )
        keys = np.random.default_rng(5).integers(0, 5000, 12 * 1024)
        batches = [
            records.batch_from_keys(keys[start : start + 1024])
            for start in range(0, len(keys), 1024)
        ]

        def feed(manager, part):
            for batch in part:
                manager.get_or_create("w").daemon.ingest(batch)

        kept = TenantManager(replace(config, checkpoint_dir=None))
        feed(kept, batches)
        evicted = TenantManager(config)
        feed(evicted, batches[:6])
        assert evicted.evict("w")
        feed(evicted, batches[6:])
        back, never = evicted.get("w"), kept.get("w")
        assert back.restored
        assert back.stats()["epochs_completed"] == never.stats()["epochs_completed"] == 3
        assert back.daemon.monitor.window_packets() == 4096
        assert never.daemon.monitor.window_packets() == 4096
        assert serialize_monitor(back.daemon.monitor) == serialize_monitor(
            never.daemon.monitor
        )

    def test_eviction_drains_queue_before_checkpoint(self, tmp_path):
        config = ServiceConfig(
            max_tenants=1, checkpoint_dir=str(tmp_path), epoch_batches=0
        )
        manager = TenantManager(config)
        state = manager.get_or_create("q")
        state.daemon.enqueue(
            records.batch_from_keys(np.arange(64, dtype=np.int64))
        )
        reference = ServiceConfig(
            max_tenants=1, checkpoint_dir=None, epoch_batches=0
        ).build_monitor("q")
        reference.update_batch(np.arange(64, dtype=np.int64))
        manager.get_or_create("r")  # evicts "q" with its batch still queued
        restored = manager.get_or_create("q")
        assert restored.daemon.packets_offered == 64
        assert serialize_monitor(restored.daemon.monitor) == serialize_monitor(
            reference
        )

    def test_memory_budget_eviction(self, tmp_path):
        probe = ServiceConfig(epoch_batches=0)
        manager_probe = TenantManager(probe)
        per_tenant = manager_probe.get_or_create("probe").daemon.memory_bytes()
        config = ServiceConfig(
            memory_budget_bytes=int(per_tenant * 2.5),
            checkpoint_dir=str(tmp_path),
            epoch_batches=0,
        )
        manager = TenantManager(config)
        for tenant in ("a", "b", "c"):
            manager.get_or_create(tenant)
        assert len(manager) == 2  # third tenant pushed "a" out
        assert manager.tenants() == ["b", "c"]

    def test_newest_tenant_never_self_evicts(self):
        config = ServiceConfig(memory_budget_bytes=1, epoch_batches=0)
        manager = TenantManager(config)
        manager.get_or_create("only")
        assert manager.tenants() == ["only"]

    def test_idle_sweep(self, tmp_path):
        clock = _ManualClock()
        config = ServiceConfig(
            idle_seconds=30.0, checkpoint_dir=str(tmp_path), epoch_batches=0
        )
        manager = TenantManager(config, clock=clock)
        self._ingest(manager, "old")
        clock.now += 20
        self._ingest(manager, "young")
        assert manager.sweep_idle() == 0
        clock.now += 15  # "old" is 35s idle, "young" 15s
        assert manager.sweep_idle() == 1
        assert manager.tenants() == ["young"]
        # the idle-evicted tenant restores transparently on next touch
        assert manager.get("old").restored

    def test_get_never_creates(self):
        manager = TenantManager(ServiceConfig(epoch_batches=0))
        assert manager.get("ghost") is None
        assert len(manager) == 0

    def test_restore_on_start_restores_all(self, tmp_path):
        config = ServiceConfig(checkpoint_dir=str(tmp_path), epoch_batches=0)
        manager = TenantManager(config)
        blobs = {}
        for tenant in ("x", "y"):
            state = self._ingest(manager, tenant, seed=hash(tenant) % 100)
            state.daemon.checkpoint()
            blobs[tenant] = serialize_monitor(state.daemon.monitor)
        fresh = TenantManager(config)
        assert sorted(fresh.restore_on_start()) == ["x", "y"]
        for tenant, blob in blobs.items():
            assert serialize_monitor(fresh.get(tenant).daemon.monitor) == blob

    def test_tenant_labels_on_exported_metrics(self):
        telemetry = Telemetry()
        service = MonitoringService(
            ServiceConfig(epoch_batches=0), telemetry=telemetry, http=False
        )
        service.ingest_direct("acme", np.arange(100, dtype=np.int64))
        snap = telemetry.snapshot()
        created = snap["metrics"]["service_tenants_created_total"]["samples"]
        assert created[0]["value"] == 1
        active = snap["metrics"]["service_tenants_active"]["samples"]
        assert active[0]["value"] == 1


class TestServiceEndToEnd:
    def _start(self, tmp_path=None, **overrides):
        overrides.setdefault("epoch_batches", 4)
        if tmp_path is not None:
            overrides.setdefault("checkpoint_dir", str(tmp_path))
        config = ServiceConfig(**overrides)
        return MonitoringService(config, telemetry=Telemetry()).start()

    def test_wire_ingest_and_query_plane(self):
        service = self._start()
        try:
            rng = np.random.default_rng(3)
            heavy = np.full(4000, 42, dtype=np.int64)
            tail = rng.integers(1000, 2000, 4000).astype(np.int64)
            keys = np.concatenate([heavy, tail])
            rng.shuffle(keys)
            with IngestClient("127.0.0.1", service.ingest_port) as client:
                for start in range(0, len(keys), 1000):
                    client.ingest("acme", keys[start : start + 1000])
                stats = client.sync("acme")
            assert stats["packets_ingested"] == len(keys)
            assert stats["queue_depth"] == 0

            status, listing = _http(service.http_port, "/tenants")
            assert status == 200 and listing["tenants"] == 1
            assert listing["tenant_stats"][0]["tenant"] == "acme"

            _, hh = _http(
                service.http_port, "/tenants/acme/heavy_hitters?share=0.1"
            )
            assert [h["key"] for h in hh["heavy_hitters"]] == [42]
            assert hh["packets"] == len(keys)

            _, point = _http(service.http_port, "/tenants/acme/point?key=42")
            estimate = point["estimates"][0]["estimate"]
            assert estimate == pytest.approx(4000, rel=0.25)

            _, entropy = _http(service.http_port, "/tenants/acme/entropy")
            assert entropy["entropy_bits"] > 0

            _, change = _http(service.http_port, "/tenants/acme/change")
            assert change["signals"] is not None  # epochs completed

            _, reports = _http(
                service.http_port, "/tenants/acme/reports?share=0.1"
            )
            (task,) = reports["tasks"]
            assert "42" in task["detected"]

            # /metrics and /health still answer on the same server
            with urllib.request.urlopen(
                "http://127.0.0.1:%d/metrics" % service.http_port, timeout=10
            ) as response:
                text = response.read().decode()
            assert 'service_ingest_packets_total{tenant="acme"}' in text
        finally:
            service.stop()

    def test_reports_evaluate_the_task_on_the_tenant_monitor(self):
        service = self._start()
        try:
            keys = np.random.default_rng(9).zipf(1.3, 6000) % 3000
            for start in range(0, len(keys), 1000):
                service.ingest_direct("acme", keys[start : start + 1000])
            _, body = _http(service.http_port, "/tenants/acme/reports?share=0.02")
            daemon = service.tenants.get("acme").daemon
            report = HeavyHitterTask(0.02).evaluate(
                daemon.monitor, daemon.packets_offered
            )
            assert report.detected
            assert body["epoch"] == daemon.epochs_completed == 1
            assert body["packets"] == len(keys)
            assert body["tasks"] == [
                {
                    "task": "heavy_hitters",
                    "estimate": None,
                    "detected": {
                        str(key): est for key, est in report.detected.items()
                    },
                }
            ]
            # A query is not a control-plane epoch.
            metrics = service.telemetry.snapshot()["metrics"]
            assert "control_epochs_total" not in metrics
        finally:
            service.stop()

    def test_query_plane_errors(self):
        service = self._start()
        try:
            service.ingest_direct("acme", np.arange(10, dtype=np.int64))
            assert _http_error_status(service.http_port, "/tenants/ghost/stats") == 404
            assert (
                _http_error_status(service.http_port, "/tenants/acme/unknown") == 404
            )
            assert _http_error_status(service.http_port, "/tenants/acme/point") == 400
            assert (
                _http_error_status(
                    service.http_port, "/tenants/acme/point?key=zebra"
                )
                == 400
            )
            assert (
                _http_error_status(
                    service.http_port, "/tenants/acme/heavy_hitters?share=7"
                )
                == 400
            )
            # queries never create tenants
            assert len(service.tenants) == 1
        finally:
            service.stop()

    def test_concurrent_clients_separate_tenants(self):
        service = self._start()
        try:
            errors = []

            def run(tenant, seed):
                try:
                    rng = np.random.default_rng(seed)
                    with IngestClient("127.0.0.1", service.ingest_port) as client:
                        for _ in range(10):
                            client.ingest(
                                tenant, rng.integers(0, 500, 1000).astype(np.int64)
                            )
                        stats = client.sync(tenant)
                    assert stats["packets_ingested"] == 10_000
                except Exception as exc:
                    errors.append((tenant, exc))

            threads = [
                threading.Thread(target=run, args=("tenant_%d" % i, i))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert len(service.tenants) == 4
        finally:
            service.stop()

    def test_overflow_drop_accounts_wire_frames(self):
        import asyncio

        # No started loops: drive the frame handler directly against a
        # full queue, so the drop branch is deterministic.
        telemetry = Telemetry()
        service = MonitoringService(
            ServiceConfig(queue_capacity=1, overflow="drop", epoch_batches=0),
            telemetry=telemetry,
        )
        state = service.tenants.get_or_create("burst")
        payload = records.encode_keys(np.arange(10, dtype=np.int64))
        asyncio.run(service._ingest_frame("burst", payload))  # fills the queue
        asyncio.run(service._ingest_frame("burst", payload))  # must be shed
        assert state.daemon.batches_dropped == 1
        snap = telemetry.snapshot()
        dropped = snap["metrics"]["service_dropped_batches_total"]["samples"]
        assert dropped[0]["labels"] == {"tenant": "burst"}
        assert dropped[0]["value"] == 1
        frames = {
            s["labels"]["outcome"]: s["value"]
            for s in snap["metrics"]["service_frames_total"]["samples"]
        }
        assert frames == {"accepted": 1, "dropped": 1}

    def test_health_fails_while_shedding_load(self):
        """Under ``overflow="drop"`` the service's /health watches its
        drop counters: a flooded tenant trips the critical drop share,
        and the per-tenant drop alert names that tenant only."""
        import asyncio

        service = MonitoringService(
            ServiceConfig(queue_capacity=1, overflow="drop", epoch_batches=0),
            telemetry=Telemetry(),
        )
        payload = records.encode_keys(np.arange(100, dtype=np.int64))
        # Drive the frame handler before the drainer runs, so tenant a's
        # one-batch queue sheds every frame after its first.
        for _ in range(20):
            asyncio.run(service._ingest_frame("a", payload))
        asyncio.run(service._ingest_frame("b", payload))
        service.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _http(service.http_port, "/health")
        finally:
            service.stop()
        assert excinfo.value.code == 503
        health = json.loads(excinfo.value.read())
        assert health["status"] == "fail"
        firing = {
            (alert["alert"], json.dumps(alert["labels"], sort_keys=True)): alert
            for alert in health["alerts"]
            if alert["state"] == "firing"
        }
        assert set(firing) == {
            ("drop_share", "{}"),
            ("batches_dropped", '{"tenant": "a"}'),
        }
        # 19 of a's frames shed; a and b each had one accepted.
        assert firing[("drop_share", "{}")]["value"] == pytest.approx(19 / 21)
        assert firing[("drop_share", "{}")]["severity"] == "critical"

    def test_wait_backpressure_never_counts_drops(self):
        """Regression: the wait policy used to offer batches to a full
        queue in its retry loop, inflating ``batches_dropped`` with
        batches that eventually landed."""
        service = self._start(queue_capacity=2, overflow="wait", epoch_batches=0)
        try:
            with IngestClient("127.0.0.1", service.ingest_port) as client:
                for _ in range(40):  # far past the depth-2 queue
                    client.ingest("steady", np.arange(500, dtype=np.int64))
                stats = client.sync("steady")
            assert stats["batches_dropped"] == 0
            assert stats["packets_ingested"] == 40 * 500
        finally:
            service.stop()

    def test_graceful_stop_checkpoints_and_restart_restores(self, tmp_path):
        config = ServiceConfig(checkpoint_dir=str(tmp_path), epoch_batches=0)
        service = MonitoringService(config).start()
        with IngestClient("127.0.0.1", service.ingest_port) as client:
            client.ingest("durable", np.arange(5000, dtype=np.int64) % 97)
            client.sync("durable")
        blob = serialize_monitor(service.tenants.get("durable").daemon.monitor)
        service.stop()

        revived = MonitoringService(config).start()
        try:
            state = revived.tenants.get("durable")
            assert state is not None and state.restored
            assert serialize_monitor(state.daemon.monitor) == blob
            # and it resumes ingest seamlessly
            revived.ingest_direct("durable", np.arange(10, dtype=np.int64))
            assert state.daemon.packets_offered == 5010
        finally:
            revived.stop()

    def test_stop_is_idempotent_and_reentrant(self):
        service = self._start()
        service.stop()
        service.stop()
        with pytest.raises(RuntimeError):
            service.start()

    def test_audited_answers_embed_guarantee(self):
        service = self._start(audit=True, epoch_batches=0)
        try:
            service.ingest_direct("aud", np.arange(2000, dtype=np.int64) % 50)
            _, point = _http(service.http_port, "/tenants/aud/point?key=1")
            assert point["audit"]["violated"] is False
            assert point["audit"]["bound"] > 0
        finally:
            service.stop()

    def test_windowed_tenant_reports_window_packets(self):
        service = self._start(window_epochs=3, epoch_batches=2, queue_capacity=8)
        try:
            for _ in range(10):
                service.ingest_direct("win", np.arange(100, dtype=np.int64))
            _, hh = _http(service.http_port, "/tenants/win/heavy_hitters?share=0.001")
            state = service.tenants.get("win")
            assert hh["windowed"] is True
            assert hh["packets"] == state.daemon.monitor.window_packets()
            assert hh["packets"] < state.daemon.packets_offered
        finally:
            service.stop()

    def test_windowed_tenant_ingests_negative_keys(self):
        """Regression: a negative wire key crashed the window's
        heavy-hitter query at an epoch boundary, which killed the shared
        drainer and stalled every tenant's sync."""
        service = self._start(window_epochs=2, epoch_batches=4)
        try:
            keys = np.random.default_rng(21).integers(-1000, 1000, 8192)
            keys[::4] = -7
            with IngestClient("127.0.0.1", service.ingest_port, timeout=15) as client:
                for start in range(0, len(keys), 512):
                    client.ingest("neg", keys[start : start + 512])
                    client.ingest("other", np.abs(keys[start : start + 512]))
                assert client.sync("neg")["packets_ingested"] == len(keys)
                assert client.sync("other")["packets_ingested"] == len(keys)
            status, hh = _http(service.http_port, "/tenants/neg/heavy_hitters?share=0.1")
            assert status == 200
            assert [h["key"] for h in hh["heavy_hitters"]] == [-7]
            status, hh = _http(service.http_port, "/tenants/other/heavy_hitters?share=0.1")
            assert status == 200
            assert [h["key"] for h in hh["heavy_hitters"]] == [7]
        finally:
            service.stop()

    def test_malformed_wire_frame_closes_connection(self):
        service = self._start(epoch_batches=0)
        try:
            import socket

            with socket.create_connection(
                ("127.0.0.1", service.ingest_port), timeout=10
            ) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
                sock.settimeout(10)
                assert sock.recv(1024) == b""  # server closed, no reply
            snap = service.telemetry.snapshot()
            frames = snap["metrics"]["service_frames_total"]["samples"]
            outcomes = {tuple(s["labels"].items())[0][1]: s["value"] for s in frames}
            assert outcomes.get("malformed", 0) >= 1
        finally:
            service.stop()


def _get(port, path):
    with urllib.request.urlopen(
        "http://127.0.0.1:%d%s" % (port, path), timeout=10
    ) as response:
        return response.status, response.read().decode()


class TestBuiltinRoutes:
    """Every built-in HTTP route answers, on a NULL_TELEMETRY service
    (with empty content) as on a live one."""

    ROUTES = ("/metrics", "/snapshot", "/trace", "/health", "/alerts", "/rules", "/history")

    def _serve_and_read(self, telemetry):
        service = MonitoringService(
            ServiceConfig(epoch_batches=0),
            telemetry=telemetry,
            alerts=AlertManager(telemetry, health_rules()),
            history=HistoryStore(capacity=8),
        ).start()
        try:
            with IngestClient("127.0.0.1", service.ingest_port) as client:
                client.ingest("acme", np.arange(500, dtype=np.int64))
                assert client.sync("acme")["packets_ingested"] == 500
            service.history.record(snapshot(telemetry.registry))
            replies = {path: _get(service.http_port, path) for path in self.ROUTES}
        finally:
            service.stop()
        assert {path: status for path, (status, _) in replies.items()} == dict.fromkeys(
            self.ROUTES, 200
        )
        return {path: body for path, (_, body) in replies.items()}

    def _assert_empty(self, bodies):
        assert bodies["/metrics"] == ""
        assert bodies["/trace"] == ""
        snapshot = json.loads(bodies["/snapshot"])
        assert snapshot["metrics"] == {}
        assert snapshot["trace"]["recorded"] == 0 and snapshot["trace"]["spans"] == []
        health = json.loads(bodies["/health"])
        assert (health["status"], health["alerts"]) == ("ok", [])
        assert json.loads(bodies["/alerts"])["firing"] == []
        assert json.loads(bodies["/history"])["samples"][0]["values"] == {}

    def test_null_telemetry_service_answers_every_route(self):
        self._assert_empty(self._serve_and_read(NULL_TELEMETRY))

    def test_second_null_service_still_reads_empty(self):
        self._serve_and_read(NULL_TELEMETRY)
        self._assert_empty(self._serve_and_read(NULL_TELEMETRY))
        assert len(NULL_TELEMETRY.registry) == 0 and len(NULL_TELEMETRY.spans) == 0

    def test_live_service_answers_every_route(self):
        telemetry = Telemetry()
        telemetry.event("probe")
        bodies = self._serve_and_read(telemetry)
        assert "service_frames_total" in bodies["/metrics"]
        assert "service_frames_total" in json.loads(bodies["/snapshot"])["metrics"]
        assert '"name": "probe"' in bodies["/trace"]
        assert json.loads(bodies["/health"])["status"] == "ok"
        assert json.loads(bodies["/rules"])
        assert json.loads(bodies["/history"])["samples"][0]["values"]


class TestServiceTelemetryFanin:
    def test_record_service_state_exports_tenant_gauges(self):
        from repro.telemetry.fanin import record_service_state

        telemetry = Telemetry()
        service = MonitoringService(
            ServiceConfig(epoch_batches=0), telemetry=telemetry, http=False
        )
        service.ingest_direct("acme", np.arange(200, dtype=np.int64))
        service.ingest_direct("globex", np.arange(100, dtype=np.int64))
        record_service_state(telemetry, service)
        snap = telemetry.snapshot()
        depth = {
            s["labels"]["tenant"]: s["value"]
            for s in snap["metrics"]["service_queue_depth"]["samples"]
        }
        assert depth == {"acme": 0.0, "globex": 0.0}
        memory = {
            s["labels"]["tenant"]: s["value"]
            for s in snap["metrics"]["service_tenant_memory_bytes"]["samples"]
        }
        assert memory["acme"] > 0 and memory["globex"] > 0
        assert snap["metrics"]["service_tenants_active"]["samples"][0]["value"] == 2

    def test_dashboard_renders_tenants_panel(self):
        from repro.telemetry.dashboard import render_dashboard
        from repro.telemetry.fanin import record_service_state

        telemetry = Telemetry()
        service = MonitoringService(
            ServiceConfig(epoch_batches=0), telemetry=telemetry, http=False
        )
        service.ingest_direct("acme", np.arange(300, dtype=np.int64))
        record_service_state(telemetry, service)
        frame = render_dashboard(telemetry.snapshot())
        assert "tenants     1 resident" in frame
        assert "acme" in frame

    def test_dashboard_without_service_has_no_panel(self):
        from repro.telemetry.dashboard import render_dashboard

        telemetry = Telemetry()
        telemetry.count("daemon_packets_total", 10)
        assert "tenants" not in render_dashboard(telemetry.snapshot())
