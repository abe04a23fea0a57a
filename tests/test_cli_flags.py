"""Out-of-range CLI flags end in a usage error, not a traceback.

Every flag below used to reach a ``ValueError`` or ``ZeroDivisionError``
deep in the stack (or, for ``alerts --packets 0``, a misleading "never
fired").  Each must now exit 2 with ``<command>: --flag must be ...`` on
stderr, the convention ``--trace-capacity`` and ``--sample-every``
already followed.
"""

import pytest

from repro.cli import main as cli_main

CASES = [
    (["telemetry", "--demo", "--packets", "0"], "--packets"),
    (["audit", "--packets", "0"], "--packets"),
    (["top", "--demo", "--packets", "0"], "--packets"),
    (["top", "--demo", "--interval", "-1"], "--interval"),
    (["top", "--demo", "--interval", "0"], "--interval"),
    (["alerts", "--demo", "--packets", "0"], "--packets"),
    (["profile", "--batch-size", "0"], "--batch-size"),
    (["profile", "--history-capacity", "0"], "--history-capacity"),
    (["trace", "--workers", "0"], "--workers"),
    (["trace", "--batch-size", "0"], "--batch-size"),
    (["parallel", "--workers", "0"], "--workers"),
    (["parallel", "--batch-size", "0"], "--batch-size"),
    (["chaos", "--packets", "0"], "--packets"),
    (["chaos", "--packets", "7999"], "--packets"),
]


@pytest.mark.parametrize("argv, flag", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_out_of_range_flag_is_a_usage_error(argv, flag, capsys):
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "%s: %s must be " % (argv[0], flag) in err
    assert "Traceback" not in err
