"""``serve-windowed``: the monitoring service in a child process, over loopback.

One connection sends 512-key frames round-robin to 8 windowed tenants
(``window_epochs=4``, ``epoch_batches=16``, ``overflow=wait``) in rounds
closed by a ``sync`` of every tenant: a closed loop held by TCP
backpressure.  A second thread sends open-loop REST queries at a fixed
rate (heavy hitters, 64-key point lookups, entropy), each timed from
when it was due.  Small frames make per-frame costs dominate: wire
decode, asyncio, tenant lookup, the queue, ring rotation and the
AlwaysCorrect re-warm-up of every fresh epoch.  Client and server are
pinned to one CPU.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time

import numpy as np

from perfbench import common

TENANTS = ["tenant%d" % index for index in range(8)]
FRAME_KEYS = 512
#: Frames per round (per tenant: ROUND_FRAMES / 8), each round ends in a sync.
ROUND_FRAMES = 1024
#: Open-loop query rate: well below the rate at which the GIL-shared
#: server's latency starts to climb (about 40/s on 2 CPUs); over a 20 s
#: run p90 has 50 samples beyond it.
QUERY_RATE = 25.0
QUERY_TIMEOUT = 10.0
SETUP_REPEATS = 5
READY_TIMEOUT = 60.0


class Child:
    """The server process; killed on any exit path."""

    def __init__(self, ctx, traced: bool, index: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [ctx.root, os.path.join(ctx.root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.out = ctx.path("-%d" % index)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.serve_child", "--tenants", ",".join(TENANTS),
             "--traced", "1" if traced else "0", "--out", self.out],
            cwd=ctx.root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def read_line(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise common.CheckFailed("server process did not answer within %.0f s" % timeout)
        line = self.proc.stdout.readline()
        if not line:
            raise common.CheckFailed("server process died (exit code %s)" % self.proc.poll())
        return json.loads(line)

    def stop(self, timeout: float = 60.0) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        report = self.read_line(timeout)
        if self.proc.wait(timeout=timeout) != 0:
            raise common.CheckFailed("server process exited with %s" % self.proc.returncode)
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def http_get(port: int, target: str, timeout: float = QUERY_TIMEOUT):
    """``(status, parsed JSON or None)`` of one GET."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    try:
        return response.status, json.loads(body)
    except ValueError:
        return response.status, None


def start_server(ctx, traced: bool, index: int):
    """Spawn a server and wait until both ports answer; ``(child, ports, seconds)``."""
    from repro.service.client import IngestClient

    start = time.perf_counter()
    child = Child(ctx, traced, index)
    try:
        ports = child.read_line(READY_TIMEOUT)
        client = IngestClient("127.0.0.1", ports["ingest_port"], timeout=60.0)
        status, body = http_get(ports["http_port"], "/tenants")
        if status != 200 or body is None or body.get("tenants") != len(TENANTS):
            raise common.CheckFailed("server not ready: /tenants answered %s" % status)
    except BaseException:
        child.kill()
        raise
    return child, ports, client, time.perf_counter() - start


class QueryLoad:
    """Open-loop REST queries at a fixed rate on their own thread."""

    def __init__(self, port: int, key_pool: np.ndarray, seed: int) -> None:
        self.port = port
        self.key_pool = key_pool
        self.rng = np.random.default_rng(seed)
        self.records = []
        self.errors = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-queries", daemon=True)

    def _target(self, index: int) -> str:
        tenant = TENANTS[index % len(TENANTS)]
        kind = ("heavy_hitters", "point", "entropy")[index % 3]
        if kind == "heavy_hitters":
            query = "share=0.01"
        elif kind == "point":
            keys = self.key_pool[self.rng.integers(0, len(self.key_pool), common.POINT_KEYS)]
            query = "key=" + ",".join(str(int(k)) for k in keys)
        else:
            query = ""
        query = (query + "&" if query else "") + "qid=%d" % index
        return kind, "/tenants/%s/%s?%s" % (tenant, kind, query), query

    def _run(self) -> None:
        start = time.perf_counter()
        index = 0
        while not self._stop.is_set():
            due = start + index / QUERY_RATE
            now = time.perf_counter()
            if now < due:
                if self._stop.wait(due - now):
                    break
            kind, target, query = self._target(index)
            sent = time.perf_counter()
            try:
                status, body = http_get(self.port, target)
            except OSError as exc:
                status, body = None, None
                self.errors.append("%s: %s" % (target[:60], exc))
            done = time.perf_counter()
            ok = status == 200 and isinstance(body, dict) and body.get("tenant") is not None
            if status is not None and not ok:
                self.errors.append("%s: status %s" % (target[:60], status))
            self.records.append({
                "kind": kind, "query": query, "ok": ok, "due": due,
                "latency_ms": (done - due) * 1e3,
                "client_ms": (done - sent) * 1e3,
                "late_ms": max(sent - due, 0.0) * 1e3,
            })
            index += 1

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=QUERY_TIMEOUT + 5)
        if self._thread.is_alive():
            raise common.CheckFailed("query thread did not stop")


def frame_keys(keys: np.ndarray, frame: int) -> np.ndarray:
    start = (frame * FRAME_KEYS) % len(keys)
    return keys[start:start + FRAME_KEYS]


def tenant_frames(n_frames: int, tenant_index: int):
    return range(tenant_index, n_frames, len(TENANTS))


def window_frames(n_frames: int, tenant_index: int, window_epochs: int, epoch_batches: int):
    """The frames inside a tenant's sliding window after ``n_frames`` frames."""
    frames = list(tenant_frames(n_frames, tenant_index))
    first = max(len(frames) // epoch_batches - (window_epochs - 1), 0) * epoch_batches
    return frames[first:]


def replay_heavy_hitters(keys, n_frames, tenant_index, share):
    """In-process replay of the frames in a tenant's window into its own monitor.

    The window starts on an epoch boundary and every epoch sketch starts
    fresh (rotation recycles ring members by ``reset``, which must equal
    a fresh build), so replaying the window's frames rebuilds the answer.
    """
    from perfbench.serve_child import service_config
    from repro.service import records
    from repro.switchsim.daemon import MeasurementDaemon

    config = service_config()
    tenant = TENANTS[tenant_index]
    daemon = MeasurementDaemon(
        config.build_monitor(tenant), window_epochs=config.window_epochs,
        epoch_batches=config.epoch_batches,
    )
    for frame in window_frames(n_frames, tenant_index, config.window_epochs, config.epoch_batches):
        daemon.ingest(records.batch_from_keys(frame_keys(keys, frame)))
    window = daemon.monitor
    return [[key, est] for key, est in window.heavy_hitters(share * window.window_packets())]


def score_tenants(port, keys, n_frames, ops):
    """Final answers per tenant: recall / ARE vs exact window counts, and
    heavy hitters equal to an in-process replay of the same frames."""
    from perfbench.serve_child import service_config

    config = service_config()
    recalls, ares = [], []
    for index, tenant in enumerate(TENANTS):
        frames = window_frames(n_frames, index, config.window_epochs, config.epoch_batches)
        stream = np.concatenate([frame_keys(keys, frame) for frame in frames])
        unique, counts = common.key_counts(stream)
        truth = common.heavy_flows(unique, counts)
        status, answer = http_get(port, "/tenants/%s/heavy_hitters?share=%r" % (tenant, common.HH_SHARE))
        point_status, points = http_get(
            port, "/tenants/%s/point?key=%s" % (tenant, ",".join(str(k) for k in sorted(truth)))
        )
        ops.add(2, (status != 200) + (point_status != 200))
        if status != 200 or point_status != 200 or answer is None or points is None:
            raise common.CheckFailed("%s: final queries answered %s / %s" % (tenant, status, point_status))
        if answer["packets"] != len(stream):
            raise common.CheckFailed("%s: window holds %s packets, expected %d" % (tenant, answer["packets"], len(stream)))
        served = [[item["key"], item["estimate"]] for item in answer["heavy_hitters"]]
        if served != replay_heavy_hitters(keys, n_frames, index, common.HH_SHARE):
            raise common.CheckFailed("%s: served heavy hitters differ from an in-process replay" % tenant)
        estimates = {item["key"]: item["estimate"] for item in points["estimates"]}
        recall, are = common.hh_scores(truth, [k for k, _ in served], estimates)
        recalls.append(recall)
        ares.append(are)
    return float(np.mean(recalls)), float(np.mean(ares))


def by_round(rounds, stamped):
    """``(round rate, values)`` per round, for ``(perf_counter time, value)`` pairs."""
    return [(rate, [value for at, value in stamped if start <= at < end]) for start, end, rate in rounds]


def check_conservation(stats: dict, sent_packets: dict) -> None:
    """Every tenant ingested exactly what was sent to it, and dropped nothing."""
    problems = []
    for tenant, sent in sent_packets.items():
        row = stats.get(tenant)
        if row is None:
            problems.append("%s: no stats" % tenant)
            continue
        if row["packets_ingested"] != sent or row["packets_accepted"] != sent:
            problems.append("%s: sent %d, accepted %s, ingested %s" % (
                tenant, sent, row["packets_accepted"], row["packets_ingested"]))
        if row["batches_dropped"] or row["queue_depth"]:
            problems.append("%s: %s dropped, %s still queued" % (tenant, row["batches_dropped"], row["queue_depth"]))
    if problems:
        raise common.CheckFailed("conservation: " + "; ".join(problems))


def run(ctx):
    n_keys = (1 << 15) if ctx.tiny else (1 << 20)
    round_frames = ROUND_FRAMES // 8 if ctx.tiny else ROUND_FRAMES
    keys = common.caida_keys(n_keys, 5_000 if ctx.tiny else 200_000, ctx.seed)
    ops = common.Ops()
    # The server inherits the pin: client and server share one CPU, so
    # the host probe measures the CPU all of the work runs on.
    common.pin_to_one_cpu()
    host = common.HostSpeed()
    setups = []
    child = client = None
    try:
        for index in range(SETUP_REPEATS):
            last = index == SETUP_REPEATS - 1
            host.restart()
            child, ports, client, seconds = start_server(ctx, ctx.traced and last, index)
            setups.append(seconds / host.scale())
            if not last:
                client.close()
                child.stop()
                child.kill()

        load = QueryLoad(ports["http_port"], np.unique(keys), ctx.seed)
        sent_packets = {tenant: 0 for tenant in TENANTS}
        rounds, send_blocked, sync_wait = [], 0.0, 0.0
        frame = 0
        meter = common.Meter(host)
        load.start()
        stop_at = time.perf_counter() + ctx.seconds
        try:
            while True:
                start = time.perf_counter()
                for _ in range(round_frames):
                    tenant = TENANTS[frame % len(TENANTS)]
                    piece = frame_keys(keys, frame)
                    client.ingest(tenant, piece)
                    sent_packets[tenant] += len(piece)
                    frame += 1
                sent_at = time.perf_counter()
                for tenant in TENANTS:
                    reply = client.sync(tenant)
                    if reply.get("packets_ingested") != sent_packets[tenant]:
                        raise common.CheckFailed("sync for %s returned %s" % (tenant, reply))
                end = time.perf_counter()
                send_blocked += sent_at - start
                sync_wait += end - sent_at
                meter.add(round_frames * FRAME_KEYS, end - start)
                rounds.append((start, end, round_frames * FRAME_KEYS / (end - start) / 1e6))
                ops.add(round_frames + len(TENANTS))
                if child.proc.poll() is not None:
                    raise common.CheckFailed("server process died")
                if end >= stop_at and len(meter.rates) >= 3:
                    break
                common.deadline_guard(ctx.deadline, "serve-windowed ingest")
        finally:
            load.stop()

        failed_queries = sum(1 for record in load.records if not record["ok"])
        ops.add(len(load.records), failed_queries)
        if failed_queries or load.errors:
            raise common.CheckFailed("%d of %d queries failed: %s" % (
                failed_queries, len(load.records), load.errors[:3]))
        recall, are = score_tenants(ports["http_port"], keys, frame, ops)
        client.bye()
        client.close()
        client = None
        report = child.stop()
    finally:
        if client is not None:
            client.close()
        if child is not None:
            child.kill()
    check_conservation(report["tenants"], sent_packets)

    latencies = common.steady_samples(
        by_round(rounds, [(record["due"], record["latency_ms"]) for record in load.records])
    )
    closes = common.steady_samples(by_round(rounds, report["epoch_close"]))
    e2e = {
        "ingest_mpps": meter.rate(),
        "setup_s": common.median(setups),
        "rss_peak_mb": report["rss_peak_mb"],
        "hh_recall": recall,
        "hh_are": are,
        "query_p50_ms": common.percentile(latencies, 50),
        "query_p90_ms": common.percentile(latencies, 90),
        "epoch_close_p50_ms": common.percentile(closes, 50),
        "epoch_close_p95_ms": common.percentile(closes, 95),
    }
    layers = {}
    if ctx.traced:
        layers = dict(report["layers"])
        dispatch = report["dispatch_ms"]
        waits = [r["client_ms"] - dispatch[r["query"]] for r in load.records if r["query"] in dispatch]
        by_endpoint = report["dispatch_by_endpoint"]
        layers.update({
            "tenants.resident": float(report["resident"]),
            "server.send_blocked_s": send_blocked,
            "server.sync_wait_s": sync_wait,
            "query.heavy_hitters.dispatch_p50_ms": common.percentile(by_endpoint["heavy_hitters"], 50),
            "query.point.dispatch_p50_ms": common.percentile(by_endpoint["point"], 50),
            "query.entropy.dispatch_p50_ms": common.percentile(by_endpoint["entropy"], 50),
            "query.wait_p50_ms": common.percentile(waits, 50),
            "query.wait_p99_ms": common.percentile(waits, 99),
            "query.generator_late_ms.max": max(record["late_ms"] for record in load.records),
        })
    return e2e, layers, ops
