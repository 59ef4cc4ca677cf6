"""Command-line front end.

Subcommands: ``spectrum`` (level table), ``sweep`` (thermal observables
over a beta x lambda grid), ``zero-t`` (ground-state slope staircase),
``critical`` (crossing locations by every applicable route, as JSON),
``validate`` (built-in acceptance suite).

Exit codes: 0 success (every output byte written), 1 usage or
validation error, or a reader that closed stdout early, 2 numerical
non-convergence.  Grid arguments accept ``start:stop:count`` (inclusive,
exactly count points), a comma list, or a single value.  An optional
JSON config file supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import model, transitions
from .eigensolver import NonConvergenceError
from .spin_algebra import Multiplet

__all__ = ["main", "build_parser", "parse_grid", "RunConfig"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NUMERIC = 2

_METHODS = ("analytic", "peaks", "jumps", "ceq", "all")
_CONFIG_KEYS = frozenset({"n", "e_gap", "beta", "lambda_grid", "lambda", "method", "format", "out"})
_ZERO_T_COLUMNS = ("lambda", "c_star_lambda_zero_t", "ground_energy", "degeneracy")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # numerical non-convergence, so route parse failures to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_grid(text: str) -> np.ndarray:
    """Parse a grid argument into a strictly increasing float array.

    Three forms are accepted: ``a:b:k`` for k uniformly spaced points
    with both endpoints included, ``x,y,z`` for explicit values, and a
    bare number for a single point.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty grid specification")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:stop:count, got {text!r}")
        try:
            a, b, k = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"could not parse grid spec {text!r}") from None
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("grid endpoints must be finite")
        if k < 1:
            raise ValueError("grid count must be at least 1")
        if k == 1:
            if a != b:
                raise ValueError("a single-point grid needs start == stop")
            return np.array([a])
        if not a < b:
            raise ValueError("grid start must be below stop")
        return np.linspace(a, b, k)
    try:
        vals = np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"could not parse grid values {text!r}") from None
    return _validate_grid(vals, text)


def _validate_grid(vals: np.ndarray, label) -> np.ndarray:
    if vals.size == 0:
        raise ValueError(f"grid {label!r} is empty")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"grid {label!r} has non-finite values")
    if vals.size > 1 and not np.all(np.diff(vals) > 0):
        raise ValueError(f"grid {label!r} must be strictly increasing")
    return vals


def _is_number(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_grid(value, name: str) -> np.ndarray:
    """Normalize a flag string or a config value (number, list, spec)."""
    if isinstance(value, str):
        return parse_grid(value)
    if _is_number(value):
        value = [value]
    if isinstance(value, (list, tuple)):
        if not all(_is_number(v) for v in value):
            raise ValueError(f"{name} list must hold numbers")
        return _validate_grid(np.array(value, dtype=float), name)
    raise ValueError(f"{name} must be a number, a list, or a grid spec string")


@dataclass(frozen=True)
class RunConfig:
    """Merged view of command-line flags and the optional config file."""

    command: str
    n_particles: int | None = None
    e_gap: float = 1.0
    beta: np.ndarray | None = None
    lambda_grid: np.ndarray | None = None
    lam_values: np.ndarray | None = None
    method: str = "all"
    fmt: str = "csv"
    out: str | None = None
    quick: bool = False


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="su2qpt",
        description="Thermodynamics and phase transitions of an N-body "
        "two-level model with SU(2) pairing.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(p: argparse.ArgumentParser, default_fmt: str) -> None:
        p.add_argument("--n", type=int, default=None, help="number of particles")
        p.add_argument(
            "--e-gap", dest="e_gap", type=float, default=None, help="level spacing (default 1)"
        )
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("csv", "json"),
            default=None,
            help=f"output format (default {default_fmt})",
        )
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None, help="JSON config file; flags override it")

    sp = sub.add_parser("spectrum", help="list levels as (m, intercept, slope) rows")
    add_common(sp, "csv")
    sp.add_argument(
        "--lambda",
        dest="lam",
        default=None,
        help="coupling values at which to tabulate energies (comma list or grid)",
    )

    sw = sub.add_parser("sweep", help="thermal observables over a beta x lambda grid")
    add_common(sw, "csv")
    sw.add_argument("--beta", default=None, help="beta values (list or grid spec)")
    sw.add_argument(
        "--lambda-grid", dest="lambda_grid", default=None, help="coupling grid (a:b:k)"
    )

    zt = sub.add_parser("zero-t", help="zero-temperature slope staircase over a coupling grid")
    add_common(zt, "csv")
    zt.add_argument(
        "--lambda-grid", dest="lambda_grid", default=None, help="coupling grid (a:b:k)"
    )

    cr = sub.add_parser("critical", help="locate crossings; JSON report keyed by method")
    add_common(cr, "json")
    cr.add_argument(
        "--method",
        choices=_METHODS,
        default=None,
        help="single route, or 'all' for every applicable one (default all)",
    )
    cr.add_argument(
        "--beta",
        default=None,
        help="beta schedule for peak tracking (needs >= 3 values) or the "
        "single beta for the n=2 residual search",
    )
    cr.add_argument(
        "--lambda-grid",
        dest="lambda_grid",
        default=None,
        help="override the scan window and density (a:b:k)",
    )

    va = sub.add_parser("validate", help="run the built-in acceptance suite")
    va.add_argument("--quick", action="store_true", help="skip the slow peak-tracking check")

    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _make_config(ns: argparse.Namespace) -> RunConfig:
    if ns.command == "validate":
        return RunConfig(command="validate", quick=ns.quick)

    cfg = _load_config(ns.config)

    def pick(key: str, flag_value):
        return flag_value if flag_value is not None else cfg.get(key)

    n = pick("n", ns.n)
    if n is None:
        raise ValueError("--n is required (flag or config file)")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("n must be an integer")

    e_gap = pick("e_gap", ns.e_gap)
    if e_gap is not None and not _is_number(e_gap):
        raise ValueError("e_gap must be a number")
    e_gap = 1.0 if e_gap is None else float(e_gap)

    fmt = pick("format", ns.fmt)
    default_fmt = "json" if ns.command == "critical" else "csv"
    fmt = default_fmt if fmt is None else str(fmt)
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if ns.command == "critical" and fmt != "json":
        raise ValueError("the critical report is JSON only")

    method = pick("method", getattr(ns, "method", None))
    method = "all" if method is None else str(method)
    if method not in _METHODS:
        raise ValueError(f"method must be one of {', '.join(_METHODS)}")

    beta = pick("beta", getattr(ns, "beta", None))
    lambda_grid = pick("lambda_grid", getattr(ns, "lambda_grid", None))
    lam_values = pick("lambda", getattr(ns, "lam", None))
    out = pick("out", ns.out)
    if out is not None and not isinstance(out, str):
        raise ValueError("out must be a path string")

    return RunConfig(
        command=ns.command,
        n_particles=n,
        e_gap=e_gap,
        beta=None if beta is None else _as_grid(beta, "beta"),
        lambda_grid=None if lambda_grid is None else _as_grid(lambda_grid, "lambda-grid"),
        lam_values=None if lam_values is None else _as_grid(lam_values, "lambda"),
        method=method,
        fmt=fmt,
        out=out,
    )


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to ``out`` or, when it is None, every byte to stdout.

    Under ``PYTHONUNBUFFERED`` stdout's binary layer is a raw ``FileIO``
    whose write may take fewer bytes than offered (a pipe whose reader
    closed mid-write), and the text layer drops that count without error.
    Looping on the count makes a cut-short write retry and surface as
    ``BrokenPipeError`` rather than a silently truncated exit 0.
    """
    if out is not None:
        # newline="" keeps the \n line-end contract on every platform
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    sys.stdout.flush()
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        # a text-only stand-in (io.StringIO under redirect_stdout) has no
        # short writes to guard against
        sys.stdout.write(text)
        return
    view = memoryview(text.encode("utf-8"))
    while view:
        n = binary.write(view)
        if not n:
            # None: a non-blocking stdout would block; 0: no progress
            raise BlockingIOError(
                errno.EAGAIN, f"stdout took no bytes; {len(view)} left unwritten"
            )
        view = view[n:]
    binary.flush()


def _dump_json(obj) -> str:
    # NaN and inf have no JSON spelling; refuse them rather than emit invalid JSON
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def cmd_spectrum(cfg: RunConfig) -> int:
    mult = Multiplet(cfg.n_particles)
    s = model.analytic_spectrum(mult, cfg.e_gap)
    crit = model.critical_couplings(mult, cfg.e_gap)
    lams = [] if cfg.lam_values is None else [float(x) for x in cfg.lam_values]
    # one row per level: m, intercept, slope, then its energy at each coupling
    table = np.column_stack(
        [s.m_values, s.intercepts, s.slopes] + [s.energies(x) for x in lams]
    ).tolist()

    if cfg.fmt == "json":
        payload = {
            "n_particles": mult.n_particles,
            "e_gap": cfg.e_gap,
            "lambda": lams,
            "levels": [
                {"m": row[0], "intercept": row[1], "slope": row[2], "energies": row[3:]}
                for row in table
            ],
            "critical_couplings": [float(cp.lambda_c) for cp in crit],
        }
        _emit(_dump_json(payload), cfg.out)
        return _EXIT_OK

    header = "m,intercept,slope" + "".join(f",energy_at_{_g17(x)}" for x in lams)
    lines = [header] + [",".join(_g17(v) for v in row) for row in table]
    lines.append("# critical_couplings," + ",".join(_g17(cp.lambda_c) for cp in crit))
    _emit("\n".join(lines) + "\n", cfg.out)
    return _EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.beta is None:
        raise ValueError("sweep needs --beta")
    if cfg.lambda_grid is None:
        raise ValueError("sweep needs --lambda-grid")
    s = model.analytic_spectrum(Multiplet(cfg.n_particles), cfg.e_gap)
    table = transitions.phase_diagram(s, cfg.beta, cfg.lambda_grid)
    if cfg.fmt == "json":
        payload = [dict(zip(table.COLUMNS, row)) for row in table.values.tolist()]
        _emit(_dump_json(payload), cfg.out)
    else:
        _emit(table.csv_text(), cfg.out)
    return _EXIT_OK


def cmd_zero_t(cfg: RunConfig) -> int:
    if cfg.lambda_grid is None:
        raise ValueError("zero-t needs --lambda-grid")
    s = model.analytic_spectrum(Multiplet(cfg.n_particles), cfg.e_gap)
    e0, slope, degeneracy = model.ground_level(s, cfg.lambda_grid)
    rows = list(zip(cfg.lambda_grid.tolist(), slope.tolist(), e0.tolist(), degeneracy.tolist()))
    if cfg.fmt == "json":
        _emit(_dump_json([dict(zip(_ZERO_T_COLUMNS, row)) for row in rows]), cfg.out)
    else:
        lines = [",".join(_ZERO_T_COLUMNS)]
        lines += [f"{_g17(lam)},{_g17(sl)},{_g17(e)},{deg}" for lam, sl, e, deg in rows]
        _emit("\n".join(lines) + "\n", cfg.out)
    return _EXIT_OK


def _window(cfg: RunConfig, default_window, default_points: int) -> tuple[tuple, int]:
    """A route's scan window and density: --lambda-grid's ends and size, else the defaults."""
    if cfg.lambda_grid is None:
        return default_window, default_points
    window = (float(cfg.lambda_grid[0]), float(cfg.lambda_grid[-1]))
    return window, max(len(cfg.lambda_grid), 16)


def _peaks_block(cfg: RunConfig, s, crit) -> dict:
    lams_c = [cp.lambda_c for cp in crit]
    # the default window brackets every crossing with a 20% margin
    window, grid_points = _window(cfg, (0.8 * min(lams_c), 1.2 * max(lams_c)), 1024)
    schedule = [70.0, 90.0, 110.0] if cfg.beta is None else [float(b) for b in cfg.beta]
    result = transitions.track_peaks_to_zero_t(
        s, schedule, window, grid_points, critical_points=crit
    )
    beta_max = max(schedule)
    final_offsets = [t.offset for t in result.peaks if t.beta == beta_max]
    return {
        "beta_schedule": schedule,
        "window": list(window),
        "tracked": [
            {
                "beta": t.beta,
                "lambda_at_peak": t.peak.lambda_at_peak,
                "height": t.peak.height,
                "width": t.peak.width,
                "nearest_critical": t.nearest_critical,
                "offset": t.offset,
            }
            for t in result.peaks
        ],
        "warnings": list(result.warnings),
        "max_offset_at_beta_max": max(final_offsets) if final_offsets else None,
    }


def _jumps_block(cfg: RunConfig, s, crit) -> dict:
    lams_c = [cp.lambda_c for cp in crit]
    window, grid_points = _window(cfg, (0.0, 1.2 * max(lams_c)), 512)
    jumps = transitions.detect_jumps(s, window, grid_points)
    plateaus = []
    if jumps:
        plateaus = [jumps[0].left_value] + [j.right_value for j in jumps]
    deltas = [min(abs(j.lam - c) for c in lams_c) for j in jumps]
    return {
        "window": list(window),
        "jumps": [
            {
                "lambda": j.lam,
                "left_value": j.left_value,
                "right_value": j.right_value,
                "midpoint_value": j.midpoint_value,
            }
            for j in jumps
        ],
        "plateaus": plateaus,
        "max_distance_to_analytic": max(deltas) if deltas else None,
    }


def _ceq_block(cfg: RunConfig) -> tuple[dict, bool]:
    if cfg.beta is None:
        beta = 200.0
    elif len(cfg.beta) == 1:
        beta = float(cfg.beta[0])
    else:
        raise ValueError("the residual search takes a single --beta value")
    res = transitions.qpt_from_ceq(beta, *_window(cfg, (0.5, 1.5), 257))
    # as beta grows the zero-variance condition collapses to its double root xi = 1
    limit = 1.0
    block = {
        "beta": beta,
        "xi_star": res.xi,
        "converged": res.converged,
        "residual": res.residual,
        "zero_t_limit": limit,
        "delta_to_zero_t": abs(res.xi - limit),
    }
    return block, res.converged


def cmd_critical(cfg: RunConfig) -> int:
    mult = Multiplet(cfg.n_particles)
    s = model.analytic_spectrum(mult, cfg.e_gap)
    crit = model.critical_couplings(mult, cfg.e_gap)
    method = cfg.method

    if method == "ceq" and mult.n_particles != 2:
        raise ValueError("the closed-form residual search applies to n = 2 only")
    if method in ("peaks", "jumps") and not crit:
        raise ValueError("no crossings exist below 2 particles")

    report = {
        "n_particles": mult.n_particles,
        "e_gap": cfg.e_gap,
        "analytic": [
            {
                "n": cp.n,
                "lambda_c": cp.lambda_c,
                "lower_m": float(cp.lower_m),
                "upper_m": float(cp.upper_m),
            }
            for cp in crit
        ],
    }
    exit_code = _EXIT_OK
    if crit and method in ("peaks", "all"):
        report["peaks"] = _peaks_block(cfg, s, crit)
    if crit and method in ("jumps", "all"):
        report["jumps"] = _jumps_block(cfg, s, crit)
    if method == "ceq" or (method == "all" and mult.n_particles == 2):
        block, converged = _ceq_block(cfg)
        report["ceq"] = block
        if not converged:
            exit_code = _EXIT_NUMERIC
    _emit(_dump_json(report), cfg.out)
    return exit_code


def cmd_validate(cfg: RunConfig) -> int:
    # imported here so that no other command pays for loading mpmath
    from . import validation

    results = validation.run_all(quick=cfg.quick)
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}" for r in results
    ]
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", cfg.out)
    return _EXIT_OK if n_fail == 0 else _EXIT_USAGE


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "zero-t": cmd_zero_t,
    "critical": cmd_critical,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return _EXIT_OK
        return code if isinstance(code, int) else _EXIT_USAGE
    try:
        cfg = _make_config(ns)
        return _DISPATCH[cfg.command](cfg)
    except NonConvergenceError as exc:
        print(f"su2qpt: numerical non-convergence: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except BrokenPipeError:
        # downstream consumer (head, less) closed the stream; leave quietly
        # with stdout detached so interpreter shutdown does not re-raise
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return _EXIT_USAGE
    except (ValueError, OverflowError, OSError) as exc:
        print(f"su2qpt: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
