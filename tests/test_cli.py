import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import su2qpt.thermo as thermo_module
from su2qpt import cli, validation
from su2qpt.model import analytic_spectrum
from su2qpt.spin_algebra import Multiplet
from su2qpt.thermo import observables


def run(argv, capsys):
    rc = cli.main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


class TestParseGrid:
    def test_count_form_hits_endpoints_exactly(self):
        g = cli.parse_grid("0:1:5")
        assert np.array_equal(g, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert cli.parse_grid("0.02:1.4:1000").shape == (1000,)
        assert cli.parse_grid("0.02:1.4:1000")[0] == 0.02
        assert cli.parse_grid("0.02:1.4:1000")[-1] == 1.4

    def test_count_form_is_uniform(self):
        # Spacing variation relative to the spacing itself would demand
        # 2e-18 here, below float64 resolution near 1.7; the meaningful
        # statement is deviation from the ideal affine grid, span-relative.
        g = cli.parse_grid("0.1:1.7:777")
        span = float(g[-1] - g[0])
        ideal = g[0] + np.arange(g.size) * (span / (g.size - 1))
        assert float(np.abs(g - ideal).max()) <= 1e-15 * span
        d = np.diff(g)
        assert float(d.max() - d.min()) <= 1e-15 * span

    def test_comma_list_and_single_value(self):
        assert np.array_equal(cli.parse_grid("70,90,110"), [70.0, 90.0, 110.0])
        assert np.array_equal(cli.parse_grid("2.5"), [2.5])
        assert np.array_equal(cli.parse_grid("1:1:1"), [1.0])

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "1:0:5",
            "0:1:0",
            "0:1",
            "1:2:3:4",
            "1:2:1",
            "a,b",
            "3,2,1",
            "inf",
            "0:inf:5",
            "1,1,2",
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            cli.parse_grid(bad)


def test_help_exits_zero(capsys):
    rc, out, _ = run(["--help"], capsys)
    assert rc == 0
    assert "spectrum" in out and "validate" in out


def test_missing_subcommand_is_usage_error(capsys):
    rc, _, err = run([], capsys)
    assert rc == 1
    assert "error" in err


def test_unknown_subcommand_is_usage_error(capsys):
    rc, _, err = run(["frobnicate"], capsys)
    assert rc == 1
    assert "invalid choice" in err


REPO = Path(__file__).resolve().parents[1]


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(REPO / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath serves only the acceptance suite, which cmd_validate imports
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, su2qpt.cli; print('mpmath' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "args, expected",
    [
        (["spectrum", "--n", "4"], [("model.analytic_spectrum", None)]),
        (
            ["sweep", "--n", "4", "--beta", "110", "--lambda-grid", "0.1:1.3:20"],
            [
                ("transitions.phase_diagram", None),
                ("transitions.SweepTable.csv_text", None),
                ("thermo.observables_grid", "transitions.phase_diagram"),
            ],
        ),
        (
            ["critical", "--n", "4"],
            [
                ("thermo.observables_grid", "transitions.find_peaks"),
                ("thermo.zero_t_c_star_lambda", "transitions.detect_jumps"),
            ],
        ),
        (
            ["critical", "--n", "2", "--method", "ceq"],
            [("thermo.ceq_scaled_residual", "transitions.qpt_from_ceq")],
        ),
        (
            ["validate"],
            [
                ("eigensolver.jacobi_eigenvalues", "validation.check_eigenvalue_lists"),
                ("thermo.observables_grid", "validation.check_remnant_peaks"),
            ],
        ),
    ],
    ids=["spectrum", "sweep", "critical", "ceq", "validate"],
)
def test_benchmark_tracer_hooks_resolve(tmp_path, args, expected):
    # the benchmark's tracer wraps functions by the names it looks up and
    # keys its per-layer metrics on them; a deleted name makes it fail
    # before the command runs, and a route that bypasses a traced name
    # would make that layer's metric read 0
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "trace_child.py"), str(spans_path), *args],
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]

    def ancestors(i):
        while spans[i][1] != -1:
            i = spans[i][1]
            yield spans[i][0]

    for name, under in expected:
        found = [i for i, span in enumerate(spans) if span[0] == name]
        assert found, name
        if under is not None:
            assert any(under in ancestors(i) for i in found), (name, under)


class TestSpectrum:
    def test_frozen_csv_n4(self, capsys):
        rc, out, _ = run(["spectrum", "--n", "4", "--lambda", "0.0,0.5,1.0"], capsys)
        assert rc == 0
        assert out == (
            "m,intercept,slope,energy_at_0,energy_at_0.5,energy_at_1\n"
            "-2,-2,0,-2,-2,-2\n"
            "-1,-1,-3,-1,-2.5,-4\n"
            "0,0,-4,0,-2,-4\n"
            "1,1,-3,1,-0.5,-2\n"
            "2,2,0,2,2,2\n"
            "# critical_couplings,0.33333333333333331,1\n"
        )

    def test_n2_rows(self, capsys):
        rc, out, _ = run(["spectrum", "--n", "2"], capsys)
        assert rc == 0
        body = [ln for ln in out.strip().split("\n") if not ln.startswith(("m,", "#"))]
        # intercept/slope pairs for levels {-1, -xi, +1}
        assert body == ["-1,-1,0", "0,0,-1", "1,1,0"]

    def test_json_variant(self, capsys):
        rc, out, _ = run(
            ["spectrum", "--n", "4", "--lambda", "0:1:3", "--format", "json"], capsys
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["n_particles"] == 4
        assert doc["critical_couplings"] == [1 / 3, 1.0]
        assert doc["lambda"] == [0.0, 0.5, 1.0]
        assert [lv["slope"] for lv in doc["levels"]] == [0.0, -3.0, -4.0, -3.0, 0.0]
        assert doc["levels"][1]["energies"] == [-1.0, -2.5, -4.0]

    def test_rejects_zero_particles(self, capsys):
        rc, _, err = run(["spectrum", "--n", "0"], capsys)
        assert rc == 1
        assert "error" in err

    def test_rejects_fractional_n(self, capsys):
        rc, _, err = run(["spectrum", "--n", "2.5"], capsys)
        assert rc == 1
        assert "error" in err

    @pytest.mark.parametrize("gap", ["inf", "-inf", "nan", "0"])
    def test_rejects_non_finite_or_non_positive_e_gap(self, gap, capsys):
        rc, out, err = run(["spectrum", "--n", "4", f"--e-gap={gap}"], capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("su2qpt: error: e_gap must be positive and finite")


class TestSweep:
    def test_csv_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        rc, _, _ = run(
            ["sweep", "--n", "4", "--beta", "110", "--lambda-grid", "0.3:0.4:3", "--out", str(out_path)],
            capsys,
        )
        assert rc == 0
        text = out_path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == (
            "beta,lambda,log_z,mean_energy,entropy,c_star_beta,c_star_lambda,specific_heat"
        )
        assert len(lines) == 4
        assert text.endswith("\n") and "\r" not in text

    def test_infinite_temperature_value(self, capsys):
        rc, out, _ = run(["sweep", "--n", "4", "--beta", "0", "--lambda-grid", "0.5"], capsys)
        assert rc == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[2] == format(math.log(5.0), ".17g")

    def test_json_rows_match_engine(self, capsys):
        rc, out, _ = run(
            ["sweep", "--n", "8", "--beta", "5,10", "--lambda-grid", "0.1,0.9", "--format", "json"],
            capsys,
        )
        assert rc == 0
        rows = json.loads(out)
        assert [(r["beta"], r["lambda"]) for r in rows] == [
            (5.0, 0.1),
            (5.0, 0.9),
            (10.0, 0.1),
            (10.0, 0.9),
        ]
        s8 = analytic_spectrum(Multiplet(8))
        want = observables(s8, 10.0, 0.9)
        assert rows[3]["log_z"] == want.log_z
        assert rows[3]["specific_heat"] == want.specific_heat

    def test_rows_re_evaluate_to_the_same_text(self, capsys):
        # every CSV row is reproduced by observables at its (beta, lambda),
        # across several grid blocks and exactly on the crossings
        s8 = analytic_spectrum(Multiplet(8))
        crossings = ",".join(repr(x) for x in (1 / 7, 1 / 5, 1 / 3, 1.0))
        for grid in ("0.02:1.4:1000", crossings):
            rc, out, _ = run(["sweep", "--n", "8", "--beta", "0,70,110", "--lambda-grid", grid], capsys)
            assert rc == 0
            lines = out.split("\n")[1:-1]
            assert len(lines) == 3 * len(cli.parse_grid(grid))
            for line in lines:
                fields = line.split(",")
                o = observables(s8, float(fields[0]), float(fields[1]))
                values = (o.beta, o.lam, o.log_z, o.mean_energy, o.entropy)
                values += (o.c_star_beta, o.c_star_lambda, o.specific_heat)
                assert ",".join(format(v, ".17g") for v in values) == line

    def test_missing_grids_are_usage_errors(self, capsys):
        rc, _, err = run(["sweep", "--n", "4", "--lambda-grid", "0:1:5"], capsys)
        assert rc == 1
        assert "beta" in err
        rc, _, err = run(["sweep", "--n", "4", "--beta", "5"], capsys)
        assert rc == 1
        assert "lambda-grid" in err

    def test_runs_twice_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--n", "4", "--beta", "70,90,110", "--lambda-grid", "0.9:1.1:50"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) > 0

    def test_json_refuses_nan_values(self, capsys):
        # at beta = 1e300 beta^2 * Var overflows; NaN has no JSON spelling
        rc, out, err = run(
            ["sweep", "--n", "4", "--beta", "1e300", "--lambda-grid", "0.5", "--format", "json"],
            capsys,
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("su2qpt: error:")

    def test_csv_refuses_overflowing_values(self, capsys):
        # the same overflow is an error in CSV too, not a nan cell and exit 0
        rc, out, err = run(["sweep", "--n", "4", "--beta", "1e300", "--lambda-grid", "0.5"], capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("su2qpt: error:")

    def test_unwritable_out_path(self, capsys):
        rc, _, err = run(
            ["sweep", "--n", "4", "--beta", "1", "--lambda-grid", "0:1:4",
             "--out", "/nonexistent-dir/x.csv"],
            capsys,
        )
        assert rc == 1
        assert "error" in err

    def test_closed_pipe_exits_quietly(self):
        # the sweep is ~160 KB, larger than the OS pipe buffer, so closing
        # the read end mid-stream forces an EPIPE inside the child
        proc = subprocess.Popen(
            [sys.executable, "-m", "su2qpt.cli", "sweep", "--n", "4",
             "--beta", "110", "--lambda-grid", "0.02:1.4:1000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        header = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert header.startswith(b"beta,lambda,")
        assert err == b""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_pipe_exit_is_independent_of_stdout_buffering(self, unbuffered):
        # PYTHONUNBUFFERED makes stdout a raw FileIO whose short writes the
        # text layer used to drop; the exit code must not depend on it
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "su2qpt.cli", "sweep", "--n", "4",
             "--beta", "110", "--lambda-grid", "0.02:1.4:1000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        header = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert header.startswith(b"beta,lambda,")
        assert err == b""


class _ShortRaw(io.RawIOBase):
    """Binary stdout stand-in whose writes take at most a few bytes."""

    def __init__(self, counts):
        self.counts = counts
        self.calls = 0
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        n = self.counts[self.calls % len(self.counts)]
        self.calls += 1
        if n is None:
            if self.calls > 1:
                raise AssertionError("write retried after it returned None")
            return None
        taken = bytes(b[:n])
        self.data += taken
        return len(taken)


class TestEmit:
    def test_short_writes_deliver_every_byte_in_order(self, monkeypatch):
        raw = _ShortRaw([1, 7, 4093, 2])
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        text = "".join(f"{i},{i * 0.1!r}\n" for i in range(5000))
        cli._emit(text, None)
        assert raw.data == text.encode("utf-8")
        assert raw.calls > len(text) // 4103

    def test_would_block_raises_instead_of_spinning(self, monkeypatch):
        raw = _ShortRaw([None])
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        with pytest.raises(BlockingIOError):
            cli._emit("beta,lambda\n", None)
        assert raw.calls == 1

    def test_text_only_stdout_still_receives_output(self, monkeypatch):
        sink = io.StringIO()
        monkeypatch.setattr(sys, "stdout", sink)
        assert cli.main(["zero-t", "--n", "2", "--lambda-grid", "0:2:3"]) == 0
        assert sink.getvalue() == (
            "lambda,c_star_lambda_zero_t,ground_energy,degeneracy\n"
            "0,0,-1,1\n"
            "1,-0.5,-1,2\n"
            "2,-1,-2,1\n"
        )


class TestZeroT:
    def test_frozen_staircase_n2(self, capsys):
        rc, out, _ = run(["zero-t", "--n", "2", "--lambda-grid", "0:2:9"], capsys)
        assert rc == 0
        assert out == (
            "lambda,c_star_lambda_zero_t,ground_energy,degeneracy\n"
            "0,0,-1,1\n"
            "0.25,0,-1,1\n"
            "0.5,0,-1,1\n"
            "0.75,0,-1,1\n"
            "1,-0.5,-1,2\n"
            "1.25,-1,-1.25,1\n"
            "1.5,-1,-1.5,1\n"
            "1.75,-1,-1.75,1\n"
            "2,-1,-2,1\n"
        )

    def test_staircase_values_n8(self, capsys):
        rc, out, _ = run(["zero-t", "--n", "8", "--lambda-grid", "0:1.4:500", "--format", "json"], capsys)
        assert rc == 0
        rows = json.loads(out)
        values = sorted({r["c_star_lambda_zero_t"] for r in rows}, reverse=True)
        # plateau levels plus possible on-crossing midpoints
        for v in (0.0, -7.0, -12.0, -15.0, -16.0):
            assert v in values

    def test_overflowing_coupling_exits_one(self, capsys):
        # slope * 1e308 overflows; no row with a wrong slope and degeneracy
        rc, out, err = run(["zero-t", "--n", "4", "--lambda-grid", "1e308"], capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("su2qpt: error:")

    def test_requires_lambda_grid(self, capsys):
        rc, _, err = run(["zero-t", "--n", "4"], capsys)
        assert rc == 1
        assert "lambda-grid" in err

    def test_wide_grid_parses_without_a_warning(self, tmp_path, capsys):
        # the neighbours' difference overflows, but the grid is valid
        want = "-1.6999999999999999e+308,0,-0.5,1\n1.6999999999999999e+308,0,-0.5,1\n"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 1, "lambda_grid": [-1.7e308, 1.7e308]}))
        for argv in (["--n", "1", "--lambda-grid=-1.7e308,1.7e308"], ["--config", str(cfg)]):
            rc, out, err = run(["zero-t", *argv], capsys)
            assert (rc, err) == (0, "")
            assert out.endswith(want)

    def test_overflowing_grid_spec_is_one_error_line(self, capsys):
        rc, out, err = run(["zero-t", "--n", "1", "--lambda-grid=-1.7e308:1.7e308:3"], capsys)
        assert (rc, out) == (1, "")
        assert err == "su2qpt: error: overflow encountered in subtract\n"


class TestCritical:
    def test_default_report_n8(self, capsys):
        rc, out, _ = run(["critical", "--n", "8"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert [cp["lambda_c"] for cp in doc["analytic"]] == [1 / 7, 1 / 5, 1 / 3, 1.0]
        assert doc["peaks"]["warnings"] == []
        assert doc["peaks"]["max_offset_at_beta_max"] < 0.05
        want = [1 / 7, 1 / 5, 1 / 3, 1.0]
        got = [j["lambda"] for j in doc["jumps"]["jumps"]]
        assert len(got) == 4
        assert all(abs(a - b) <= 1e-9 for a, b in zip(got, want))
        assert doc["jumps"]["plateaus"] == [0.0, -7.0, -12.0, -15.0, -16.0]
        assert "ceq" not in doc

    def test_jumps_only_n4(self, capsys):
        rc, out, _ = run(["critical", "--n", "4", "--method", "jumps"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {"n_particles", "e_gap", "analytic", "jumps"}
        got = [j["lambda"] for j in doc["jumps"]["jumps"]]
        assert abs(got[0] - 1 / 3) <= 1e-9 and abs(got[1] - 1.0) <= 1e-9
        assert doc["jumps"]["plateaus"] == [0.0, -3.0, -4.0]

    def test_max_distance_to_analytic_is_the_nearest_crossing(self, capsys):
        # at e_gap = 0.37 some jumps sit an ulp off their crossing, so a
        # one-sided neighbour would read a whole crossing spacing
        cases = (["--n", "33", "--e-gap", "0.37"], ["--n", "8", "--lambda-grid", "0.15:0.5:40"])
        for argv in cases:
            rc, out, _ = run(["critical", *argv, "--method", "jumps"], capsys)
            assert rc == 0
            doc = json.loads(out)
            crit = [cp["lambda_c"] for cp in doc["analytic"]]
            want = max(min(abs(j["lambda"] - c) for c in crit) for j in doc["jumps"]["jumps"])
            assert doc["jumps"]["max_distance_to_analytic"] == want

    @pytest.mark.parametrize("method", ["peaks", "jumps"])
    def test_large_couplings_terminate(self, method):
        # at e_gap = 1e6 the refinement brackets reach couplings whose float
        # spacing exceeds their xtol; they must stop there rather than spin
        argv = ["critical", "--n", "4", "--e-gap", "1e6", "--method", method]
        proc = subprocess.run(
            [sys.executable, "-m", "su2qpt.cli", *argv, "--beta", "1e-4,2e-4,3e-4"],
            capture_output=True,
            env=_child_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_ceq_n2(self, capsys):
        rc, out, _ = run(["critical", "--n", "2", "--method", "ceq", "--beta", "200"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["ceq"]["converged"] is True
        assert abs(doc["ceq"]["xi_star"] - 1.0) <= 1e-6
        assert doc["ceq"]["zero_t_limit"] == 1.0

    def test_ceq_runs_in_units_of_the_gap(self, capsys):
        # the n = 2 levels are e_gap*{-1, -xi, +1}, so a gap of 2 at beta 100
        # is the unit gap at beta 200, in xi = lambda/e_gap
        rc, out, _ = run(["critical", "--n", "2", "--method", "ceq", "--beta", "200"], capsys)
        unit = json.loads(out)["ceq"]
        argv = ["critical", "--n", "2", "--method", "ceq", "--e-gap", "2", "--beta", "100"]
        rc, out, _ = run(argv, capsys)
        assert rc == 0
        assert json.loads(out)["ceq"] == {**unit, "beta": 100.0}
        # a window around lambda_c = 2.5 holds the crossing xi = 1
        rc, out, err = run(["critical", "--n", "2", "--e-gap", "2.5", "--lambda-grid", "2:3:100"], capsys)
        assert rc == 0, err
        assert abs(json.loads(out)["ceq"]["xi_star"] - 1.0) <= 1e-3

    def test_all_methods_for_n2_include_ceq(self, capsys):
        rc, out, _ = run(["critical", "--n", "2"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert {"analytic", "peaks", "jumps", "ceq"} <= set(doc)

    def test_n2_beta_schedule_runs_every_route(self, capsys):
        # the peaks take the whole schedule, the residual search its largest beta
        rc, out, _ = run(["critical", "--n", "2", "--beta", "70,90,110"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["peaks"]["beta_schedule"] == [70.0, 90.0, 110.0]
        assert doc["ceq"]["beta"] == 110.0
        assert doc["ceq"]["converged"] is True
        assert abs(doc["ceq"]["xi_star"] - 1.0) <= 1e-6

    def test_single_beta_under_all_leaves_peaks_out(self, capsys):
        # too short a schedule to track: the other routes still run
        rc, out, _ = run(["critical", "--n", "2", "--beta", "300"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {"n_particles", "e_gap", "analytic", "jumps", "ceq"}
        assert doc["ceq"]["beta"] == 300.0
        assert doc["ceq"]["converged"] is True
        assert abs(doc["ceq"]["xi_star"] - 1.0) <= 1e-6
        rc, out, _ = run(["critical", "--n", "4", "--beta", "70,110"], capsys)
        assert rc == 0
        assert set(json.loads(out)) == {"n_particles", "e_gap", "analytic", "jumps"}

    def test_ceq_rejected_above_two_particles(self, capsys):
        rc, _, err = run(["critical", "--n", "4", "--method", "ceq"], capsys)
        assert rc == 1
        assert "n = 2" in err

    def test_unconverged_ceq_exits_two(self, capsys):
        rc, out, _ = run(["critical", "--n", "2", "--method", "ceq", "--beta", "0.1"], capsys)
        assert rc == 2
        doc = json.loads(out)
        assert doc["ceq"]["converged"] is False

    def test_ceq_ending_on_its_bracket_exits_two(self, capsys):
        # beta*e_gap = 2000: the humps fall between grid points and the
        # refinement runs onto an end of a bracket that misses the dip
        rc, out, _ = run(["critical", "--n", "2", "--e-gap", "10"], capsys)
        assert rc == 2
        doc = json.loads(out)
        assert doc["ceq"]["converged"] is False
        assert {"peaks", "jumps"} <= set(doc)

    def test_window_without_the_crossing_leaves_ceq_out(self, capsys):
        argv = ["critical", "--n", "2", "--e-gap", "2", "--lambda-grid", "0.5:1.5:100"]
        rc, out, err = run(argv, capsys)
        assert rc == 0, err
        assert set(json.loads(out)) == {"n_particles", "e_gap", "analytic", "peaks", "jumps"}
        # asked for alone, the route names the crossing in the user's units
        rc, out, err = run([*argv, "--method", "ceq"], capsys)
        assert rc == 1
        assert out == ""
        assert err == "su2qpt: error: the ceq window must contain lambda_c = e_gap = 2 strictly\n"

    def test_short_peak_schedule_is_usage_error(self, capsys):
        rc, _, err = run(["critical", "--n", "4", "--method", "peaks", "--beta", "200"], capsys)
        assert rc == 1
        assert "schedule" in err
        # at n = 2 too, where under all the same schedule runs the other routes
        rc, out, err = run(["critical", "--n", "2", "--method", "peaks", "--beta", "300"], capsys)
        assert rc == 1
        assert out == ""
        assert "at least 3 values" in err

    def test_lambda_grid_override(self, capsys):
        rc, out, _ = run(
            ["critical", "--n", "4", "--method", "jumps", "--lambda-grid", "0:1.2:256"], capsys
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["jumps"]["window"] == [0.0, 1.2]
        assert len(doc["jumps"]["jumps"]) == 2

    def test_csv_format_rejected(self, capsys):
        rc, _, err = run(["critical", "--n", "4", "--format", "csv"], capsys)
        assert rc == 1
        assert "JSON" in err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, "beta": "110", "lambda_grid": "0.3:0.4:3"}))
        rc, out, _ = run(["sweep", "--config", str(cfg)], capsys)
        assert rc == 0
        assert out.strip().split("\n")[1].startswith("110,")

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, "beta": 110, "lambda_grid": [0.3, 0.4]}))
        rc, out, _ = run(["sweep", "--config", str(cfg), "--beta", "5"], capsys)
        assert rc == 0
        rows = out.strip().split("\n")[1:]
        assert all(r.startswith("5,") for r in rows)

    def test_config_for_spectrum_lambda(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2, "lambda": [0.0, 1.0], "format": "json"}))
        rc, out, _ = run(["spectrum", "--config", str(cfg)], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["levels"][1]["energies"] == [0.0, -1.0]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, "betas": "110"}))
        rc, _, err = run(["sweep", "--config", str(cfg), "--lambda-grid", "0:1:4"], capsys)
        assert rc == 1
        assert "betas" in err

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        rc, _, err = run(["sweep", "--config", str(cfg)], capsys)
        assert rc == 1
        assert "object" in err

    @pytest.mark.parametrize(
        "bad",
        [
            {"out": True},
            {"out": 2},
            {"e_gap": True},
            {"e_gap": "2"},
            {"beta": [True, 2, 3]},
            {"beta": True},
            {"beta": ["70", 90]},
            {"lambda_grid": [False, 0.5]},
        ],
        ids=[
            "out-true",
            "out-int",
            "e_gap-true",
            "e_gap-string",
            "beta-bool",
            "beta-scalar-bool",
            "beta-string",
            "grid-bool",
        ],
    )
    def test_config_value_types_rejected(self, tmp_path, capsys, bad):
        # JSON true is a Python int, and an int out would be a file descriptor
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, "beta": 110, "lambda_grid": "0.1:0.2:3", **bad}))
        rc, out, err = run(["sweep", "--config", str(cfg)], capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("su2qpt: error:")
        assert next(iter(bad)).replace("_grid", "-grid") in err

    def test_missing_config_file(self, capsys):
        rc, _, err = run(["sweep", "--config", "/no/such/file.json"], capsys)
        assert rc == 1
        assert "error" in err


class TestValidate:
    def test_suite_passes(self, capsys):
        rc, out, _ = run(["validate"], capsys)
        # the table names a failed check and its elapsed time against its budget
        assert rc == 0, out
        assert "PASS" in out
        assert "FAIL" not in out
        assert "8/8 checks passed" in out

    def test_runs_each_check_by_its_module_name(self, monkeypatch):
        # a tracer wraps the checks by module attribute, so run_all must
        # look them up when it is called
        seen = []
        real = validation.check_remnant_peaks

        def wrapped():
            seen.append(True)
            return real()

        monkeypatch.setattr(validation, "check_remnant_peaks", wrapped)
        names = [r.name for r in validation.run_all()]
        assert seen == [True]
        assert len(names) == 8
        assert names[4] == "remnant peak tracking"

    def test_sign_flip_mutation_is_caught(self, monkeypatch, capsys):
        real = thermo_module.observables

        def flipped(s, beta, lam):
            o = real(s, beta, lam)
            return dataclasses.replace(o, c_star_beta=-o.c_star_beta)

        monkeypatch.setattr(thermo_module, "observables", flipped)
        result = validation.check_thermo_properties()
        assert not result.passed
        rc, out, _ = run(["validate"], capsys)
        assert rc == 1
        assert "FAIL" in out
