"""The observability commands as views of one scenario run.

``telemetry --demo``, ``audit``, ``top --demo`` and ``alerts`` each show
one of the paper's operational claims -- AlwaysCorrect crossing its
convergence threshold once, the Theorem 2/5 ``eps * L2`` bound holding
on live traffic, the sketches detecting a DDoS onset.  These tests pin
each command's observable output through :func:`repro.cli.main`, the
runner's own validation, and the ``ddos`` scenario's alert lifecycle
against a golden transition log.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.telemetry import Telemetry
from repro.telemetry.scenario import Scenario

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _strict(line: str):
    def reject(token):
        raise ValueError("non-standard JSON token %s" % token)

    return json.loads(line, parse_constant=reject)


class TestViews:
    def test_telemetry_demo_snapshot_and_trace(self, tmp_path, capsys):
        snap = tmp_path / "snap.prom"
        trace = tmp_path / "trace.jsonl"
        argv = ["telemetry", "--demo", "--packets", "20000", "--out", str(snap)]
        assert cli_main(argv + ["--trace-out", str(trace)]) == 0
        exposition = snap.read_text().splitlines()
        assert "nitro_convergence_total 1" in exposition
        # The trace is ingested once, so the counter reads --packets.
        assert 'nitro_packets_total{path="batch"} 20000' in exposition
        lines = trace.read_text().splitlines()
        assert lines
        names = [_strict(line)["name"] for line in lines]
        assert names.count("nitro.convergence") == 1

    @pytest.mark.parametrize(
        "corrupt, summary",
        [
            (
                False,
                "audit: 20000 packets, l2 bound 1714.7, observed max error "
                "48.0 (ratio 0.028), violations 0",
            ),
            (
                True,
                "audit: 20000 packets, l2 bound 0.0, observed max error "
                "1329.0 (ratio inf), violations 1",
            ),
        ],
        ids=["clean", "corrupt"],
    )
    def test_audit_verdict(self, corrupt, summary, capsys):
        argv = ["audit", "--packets", "20000"] + (["--corrupt"] if corrupt else [])
        assert cli_main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert summary in err
        path = "violation" if corrupt else "clean"
        assert any(line.startswith("audit: %s path verified" % path) for line in err)

    def test_top_demo_renders_one_frame(self, capsys):
        argv = ["top", "--demo", "--iterations", "1", "--no-clear"]
        assert cli_main(argv + ["--packets", "20000"]) == 0
        frame = capsys.readouterr().out.splitlines()
        assert any(line.startswith("guarantee ") for line in frame)
        assert any(line.startswith("stages ") for line in frame)


class TestScenario:
    def test_rejects_unknown_name_and_empty_trace(self):
        with pytest.raises(ValueError):
            Scenario("nope", Telemetry(), 1_000)
        with pytest.raises(ValueError):
            Scenario("clean", Telemetry(), 0)

    def test_short_run_reports_missing_convergence(self):
        scenario = Scenario("clean", Telemetry(), 500)
        scenario.run()
        assert "missing trace event: nitro.convergence" in scenario.problems()


class TestDdosScenario:
    def test_transitions_match_golden(self):
        scenario = Scenario("ddos", Telemetry(), 30_000, seed=7)
        scenario.run()
        assert scenario.daemon.epochs_completed == 12
        with open(os.path.join(GOLDEN_DIR, "ddos_transitions.jsonl")) as handle:
            assert scenario.manager.transitions_jsonl() == handle.read()
