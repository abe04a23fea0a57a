"""Tests for ``scripts/check_perf.py`` and the kernelbench gate table.

The script is loaded from its file and run against a fake
``kernelbench.run``, a fake gate table and a temporary baseline, so no
real timing runs.
"""

import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

from repro.experiments import kernelbench
from repro.experiments.report import ExperimentResult

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_perf.py"


@pytest.fixture
def check_perf(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("check_perf", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    baseline = tmp_path / "BENCH_kernels.json"
    baseline.write_text(
        json.dumps(
            {
                "benches": {"fake_batch": {"unit": "Mpps", "fused_rate": 10.0}},
                "host": kernelbench.host_info(),
            }
        )
    )
    monkeypatch.setattr(module, "BASELINE", str(baseline))
    set_rate(monkeypatch, 10.0)
    return module


def set_rate(monkeypatch, rate):
    def run(scale=1.0, repeats=3):
        result = ExperimentResult(name="kernelbench", description="fake")
        result.rows.append({"bench": "fake_batch", "unit": "Mpps", "fused_rate": rate})
        return result

    monkeypatch.setattr(kernelbench, "run", run)


def set_gates(monkeypatch, *rows):
    """Install fake gates; each row is ``(name, ratios, retry)``.

    Returns the list every measurement appends its gate's name to.
    """
    calls = []
    gates = []
    for name, ratios, retry in rows:
        readings = iter(ratios)

        def measure(scale, repeats, name=name, readings=readings):
            calls.append(name)
            return {"ratio": next(readings)}

        gates.append(
            kernelbench.Gate(
                name, name + "_row", "gated/bare", name, measure, 1.10, retry
            )
        )
    monkeypatch.setattr(kernelbench, "GATES", tuple(gates))
    return calls


def test_passes_when_every_gate_passes(check_perf, monkeypatch, capsys):
    calls = set_gates(monkeypatch, ("a", [1.0], False), ("b", [1.09], True))
    assert check_perf.main(["--skip", "parallel"]) == 0
    assert calls == ["a", "b"]
    out = capsys.readouterr().out
    assert "host: " in out and "(baseline: " in out
    assert "performance check passed" in out


def test_missed_floor_fails(check_perf, monkeypatch, capsys):
    set_gates(monkeypatch, ("a", [1.0], False))
    set_rate(monkeypatch, 6.9)  # floor is 0.7 x 10.0
    assert check_perf.main(["--skip", "parallel"]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_missed_ceiling_fails(check_perf, monkeypatch, capsys):
    set_gates(monkeypatch, ("a", [1.0], False), ("b", [1.11], False))
    assert check_perf.main(["--skip", "parallel"]) == 1
    assert "b overhead 1.110x exceeds ceiling 1.10x" in capsys.readouterr().out


def test_only_retry_rows_retry_and_keep_the_better_ratio(
    check_perf, monkeypatch, capsys
):
    calls = set_gates(
        monkeypatch,
        ("plain", [1.2], False),  # missed, never retried
        ("steady", [1.0], True),  # passed, nothing to retry
        ("recovers", [1.3, 1.05], True),
        ("stays_over", [1.12, 1.4], True),
    )
    assert check_perf.main(["--skip", "parallel"]) == 1
    assert calls == [
        "plain",
        "steady",
        "recovers",
        "recovers",
        "stays_over",
        "stays_over",
    ]
    out = capsys.readouterr().out
    assert "recovers_row" in out and "gated/bare 1.050x (ceiling 1.10x)  ok" in out
    assert "gated/bare 1.120x (ceiling 1.10x)  TOO EXPENSIVE" in out
    assert "plain overhead 1.200x" in out
    assert "stays_over overhead 1.120x" in out


def test_skip_skips_exactly_that_row(check_perf, monkeypatch, capsys):
    calls = set_gates(
        monkeypatch, ("a", [1.0], False), ("b", [1.0], False), ("c", [1.0], False)
    )
    assert check_perf.main(["--skip", "b", "--skip", "parallel"]) == 0
    assert calls == ["a", "c"]
    assert "skipped gates: b, parallel" in capsys.readouterr().out


def test_unknown_skip_name_is_rejected(check_perf, monkeypatch):
    calls = set_gates(monkeypatch, ("a", [1.0], False))
    with pytest.raises(SystemExit) as excinfo:
        check_perf.main(["--skip", "nonexistent"])
    assert excinfo.value.code == 2
    assert calls == []


def test_gate_table_pins_ceilings_and_retry_rules():
    assert [(gate.name, gate.ceiling, gate.retry) for gate in kernelbench.GATES] == [
        ("telemetry", 1.10, False),
        ("audit", 1.10, False),
        ("checkpoint", 1.10, False),
        ("verify", 1.05, True),
        ("tracing", 1.10, True),
        ("alerts", 1.10, True),
        ("windows", 1.15, True),
        ("service", 1.15, True),
    ]


def test_checkpoint_overhead_removes_its_directory(monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    result = kernelbench.checkpoint_overhead(scale=0.05, repeats=1)
    assert result["ratio"] > 1.0
    assert list(tmp_path.iterdir()) == []
