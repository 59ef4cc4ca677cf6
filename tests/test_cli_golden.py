"""Exact bytes of CLI runs, with a libm variant where they depend on exp.

Each case of ``cli_golden.json`` pins one command's exit code, stdout and
stderr, with its config file, if any, written to ``run.json`` in the
working directory.  The cases cover ``spectrum`` and ``zero-t`` in both
formats (``zero-t`` also past 4096 levels, where the sums are windowed),
the exact ``critical`` routes (jumps and analytic), and every error path
of the flags and the config file.  Sweep columns are left out: a
vectorised exp can round differently from libm's on some CPUs, so their
last bits depend on the host.  Twelve ``critical`` cases run the peak
route all the same, three of them at a single beta, because nothing else
pins its bytes end to end: its refinement must reach the same bits however
its points are batched.  Two of them pin its floor: float noise past the
last crossing of N = 5 is no peak, and a real peak lower in its samples
than another is still one.  Seven ``critical --n 2`` cases pin the N = 2
residual route, the residual's error line where it overflows, the CLI's
where ``--method ceq`` is given a window reaching below lambda = 0, and
the report under ``all`` that leaves the route out there.
They were generated on an x86-64 host with numpy 2.4.  numpy's AVX-512
exp rounds a few percent of arguments differently from libm's, and four
``critical`` cases differ by it in one or two cells each: three in a peak
height, one in the N = 2 residual.  Those also carry a
``stdout_libm_exp``, generated on the same host with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``, where
numpy's exp is libm's.  Which stdout a case expects is read off the host:
the libm one wherever ``np.exp`` equals ``math.exp`` on a fixed grid of
the engine's weight arguments.  Every host still compares exact bytes; a
host whose exp rounds like neither fails those cases alone, and
regenerates them from a commit known to be good.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from su2qpt import cli

CASES = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))

# the engine's Boltzmann weights are exp of arguments in [-745, 0]
_GRID = np.linspace(-745.0, 0.0, 100_001)
EXP_IS_LIBM = np.array_equal(np.exp(_GRID), [math.exp(x) for x in _GRID.tolist()])


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
    stdout = case.get("stdout_libm_exp", case["stdout"]) if EXP_IS_LIBM else case["stdout"]
    assert (rc, cap.out, cap.err) == (case["rc"], stdout, case["stderr"])


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
