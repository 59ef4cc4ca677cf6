"""Exact bytes of CLI runs whose output involves no exp or log.

Each case of ``cli_golden.json`` pins one command's exit code, stdout and
stderr, with its config file, if any, written to ``run.json`` in the
working directory.  The cases cover ``spectrum`` and ``zero-t`` in both
formats (``zero-t`` also past 4096 levels, where the sums are windowed),
the exact ``critical`` routes (jumps and analytic), and every error path
of the flags and the config file.  Thermal columns are left out: a
vectorised exp can round differently from libm's on some CPUs, so their
last bits depend on the host.
"""

import json
from pathlib import Path

import pytest

from su2qpt import cli

CASES = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))


def _case_id(case: dict) -> str:
    config = f" <- {json.dumps(case['config'])}" if "config" in case else ""
    return " ".join(case["argv"]) + config


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_cli_bytes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if "config" in case:
        (tmp_path / "run.json").write_text(json.dumps(case["config"]), encoding="utf-8")
    rc = cli.main(case["argv"])
    cap = capsys.readouterr()
    assert (rc, cap.out, cap.err) == (case["rc"], case["stdout"], case["stderr"])


# argparse writes these; the usage lines above the error wrap by Python
# version and terminal width, so only the error line is pinned
@pytest.mark.parametrize(
    "argv, error",
    [
        (["spectrum", "--n", "2.5"], "su2qpt spectrum: error: argument --n: invalid int value: '2.5'\n"),
        ([], "su2qpt: error: the following arguments are required: command\n"),
        (["validate", "--out", "x"], "su2qpt: error: unrecognized arguments: --out x\n"),
    ],
)
def test_usage_error_lines(argv, error, capsys):
    rc = cli.main(argv)
    cap = capsys.readouterr()
    assert (rc, cap.out) == (1, "")
    assert cap.err.startswith("usage: su2qpt") and cap.err.endswith(error)
