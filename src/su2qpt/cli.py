"""Command-line front end.

Subcommands: ``spectrum`` (level table), ``sweep`` (thermal observables
over a beta x lambda grid), ``zero-t`` (ground-state slope staircase),
``critical`` (crossing locations by every applicable route, as JSON),
``validate`` (built-in acceptance suite).

Exit codes: 0 success (every output byte written), 1 usage or
validation error, an overflowing value, or a reader that closed stdout
early, 2 numerical non-convergence.  Grid arguments accept
``start:stop:count`` (inclusive, exactly count points), a comma list, or
a single value.  An optional JSON config file supplies defaults under
the flags' names (``e_gap`` for ``--e-gap``); explicit flags win.
"""

from __future__ import annotations

import argparse
import errno
import gc
import itertools
import json
import os
import sys
from collections.abc import Iterable

import numpy as np

from . import _cells, model, transitions
from .eigensolver import NonConvergenceError
from .spin_algebra import Multiplet

__all__ = ["main", "build_parser", "parse_grid"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NUMERIC = 2

_METHODS = ("analytic", "peaks", "jumps", "ceq", "all")
_CONFIG_KEYS = frozenset({"n", "e_gap", "beta", "lambda_grid", "lambda", "method", "format", "out"})
_ZERO_T_COLUMNS = ("lambda", "c_star_lambda_zero_t", "ground_energy", "degeneracy")
# the peaks block's rows: each peak's find_peaks row, then its nearest
# crossing and its distance from it
_TRACKED_COLUMNS = transitions.PEAK_COLUMNS + ("nearest_critical", "offset")
_BETA = transitions.PEAK_COLUMNS.index("beta")
_LAMBDA_AT_PEAK = transitions.PEAK_COLUMNS.index("lambda_at_peak")
_LAMBDA = transitions.JUMP_COLUMNS.index("lambda")
_RIGHT_VALUE = transitions.JUMP_COLUMNS.index("right_value")


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
        # a Python float difference overflows to inf without a warning
        if b - a == np.inf:
            raise ValueError(f"grid {text!r} spans more than the float range")
        return _validate_grid(np.linspace(a, b, k), text)
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
    # neighbours compared, not subtracted: a difference of finite values can overflow
    if not np.all(vals[1:] > vals[:-1]):
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="su2qpt",
        description="Thermodynamics and phase transitions of an N-body "
        "two-level model with SU(2) pairing.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(p: argparse.ArgumentParser, default_fmt: str) -> None:
        p.add_argument("--n", type=int, default=None, help="number of particles")
        p.add_argument("--e-gap", type=float, default=None, help="level spacing (default 1)")
        p.add_argument(
            "--format",
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
        metavar="LAM",
        default=None,
        help="coupling values at which to tabulate energies (comma list or grid)",
    )

    sw = sub.add_parser("sweep", help="thermal observables over a beta x lambda grid")
    add_common(sw, "csv")
    sw.add_argument("--beta", default=None, help="beta values (list or grid spec)")
    sw.add_argument("--lambda-grid", default=None, help="coupling grid (a:b:k)")

    zt = sub.add_parser("zero-t", help="zero-temperature slope staircase over a coupling grid")
    add_common(zt, "csv")
    zt.add_argument("--lambda-grid", default=None, help="coupling grid (a:b:k)")

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
        help="beta schedule for the peak route; the n=2 residual search runs at its largest value",
    )
    cr.add_argument(
        "--lambda-grid",
        default=None,
        help="override the routes' window; its count sets the scan density (a:b:k)",
    )

    sub.add_parser("validate", help="run the built-in acceptance suite")

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


def _make_config(ns: argparse.Namespace) -> dict:
    """Every option under its one name, the config file's values overridden by the flags given.

    A JSON null, like a flag not given, leaves its option unset.
    """
    if ns.command == "validate":
        return vars(ns)
    # merged here rather than through parser.set_defaults, whose type= would
    # turn a config "4" into the integer n instead of rejecting it
    given = [*_load_config(ns.config).items(), *vars(ns).items()]
    cfg = {key: value for key, value in given if value is not None}

    if "n" not in cfg:
        raise ValueError("--n is required (flag or config file)")
    if isinstance(cfg["n"], bool) or not isinstance(cfg["n"], int):
        raise ValueError("n must be an integer")
    if not _is_number(cfg.setdefault("e_gap", 1.0)):
        raise ValueError("e_gap must be a number")
    cfg["e_gap"] = float(cfg["e_gap"])
    fmt = cfg["format"] = str(cfg.get("format", "json" if ns.command == "critical" else "csv"))
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if ns.command == "critical" and fmt != "json":
        raise ValueError("the critical report is JSON only")
    if cfg.setdefault("method", "all") not in _METHODS:
        raise ValueError(f"method must be one of {', '.join(_METHODS)}")
    if not isinstance(cfg.get("out", ""), str):
        raise ValueError("out must be a path string")
    for key in ("beta", "lambda_grid", "lambda"):
        if key in cfg:
            cfg[key] = _as_grid(cfg[key], key.replace("_", "-"))
    return cfg


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the text of ``chunks`` to ``out`` or, when it is None, every byte to stdout.

    A command's tables are rendered only as their chunks are asked for,
    so each is written before the next is made and the text is never held
    whole.

    Under ``PYTHONUNBUFFERED`` stdout's binary layer is a raw ``FileIO``
    whose write may take fewer bytes than offered (a pipe whose reader
    closed mid-write), and the text layer drops that count without error.
    Looping on the count makes a cut-short write retry and surface as
    ``BrokenPipeError`` rather than a silently truncated exit 0.
    """
    if out is not None:
        # newline="" keeps the \n line-end contract on every platform
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        return
    sys.stdout.flush()
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        # a text-only stand-in (io.StringIO under redirect_stdout) has no
        # short writes to guard against
        sys.stdout.writelines(chunks)
        return
    for chunk in chunks:
        view = memoryview(chunk.encode("utf-8"))
        while view:
            n = binary.write(view)
            if not n:
                # None: a non-blocking stdout would block; 0: no progress
                raise BlockingIOError(
                    errno.EAGAIN, f"stdout took no bytes; {len(view)} left unwritten"
                )
            view = view[n:]
        del chunk, view  # not held while the next chunk renders
    binary.flush()


def cmd_spectrum(cfg: dict) -> tuple[Iterable[str], int]:
    mult = Multiplet(cfg["n"])
    s = model.analytic_spectrum(mult, cfg["e_gap"])
    crit = model.critical_couplings(mult, cfg["e_gap"])
    lams = [float(x) for x in cfg.get("lambda", ())]
    # one row per level: m, intercept, slope, then its energy at each coupling (a list in JSON)
    names = ["m", "intercept", "slope"] + ["energy_at_" + format(x, ".17g") for x in lams]
    columns = [mult.m_values(), s.intercepts, s.slopes] + [s.energies(x) for x in lams]
    slot = _cells.SLOT
    row = {"m": slot, "intercept": slot, "slope": slot, "energies": [slot] * len(lams)}
    levels = _cells.Table(names, columns, row)

    if cfg["format"] == "json":
        payload = {
            "n_particles": mult.n_particles,
            "e_gap": cfg["e_gap"],
            "lambda": lams,
            "levels": levels,
            "critical_couplings": _cells.Table(["critical_couplings"], [crit], slot),
        }
        return _cells.json_text(payload), _EXIT_OK

    # the crossings' comment line streams too: a label, then crit rendered as one row
    label = "# critical_couplings," if crit.size else "# critical_couplings"
    comment = _cells.csv_lines(crit[None, :])
    return itertools.chain(_cells.csv_text(names, levels), [label], comment), _EXIT_OK


def cmd_sweep(cfg: dict) -> tuple[Iterable[str], int]:
    if "beta" not in cfg:
        raise ValueError("sweep needs --beta")
    if "lambda_grid" not in cfg:
        raise ValueError("sweep needs --lambda-grid")
    s = model.analytic_spectrum(Multiplet(cfg["n"]), cfg["e_gap"])
    table = transitions.phase_diagram(s, cfg["beta"], cfg["lambda_grid"])
    if cfg["format"] == "json":
        return _cells.json_text(_cells.Table(table.COLUMNS, table.values.T)), _EXIT_OK
    return table.csv_text(), _EXIT_OK


def cmd_zero_t(cfg: dict) -> tuple[Iterable[str], int]:
    if "lambda_grid" not in cfg:
        raise ValueError("zero-t needs --lambda-grid")
    grid = cfg["lambda_grid"]
    s = model.analytic_spectrum(Multiplet(cfg["n"]), cfg["e_gap"])
    e0, slope, degeneracy = model.ground_level(s, grid)
    # the degeneracies stay integers in JSON
    table = _cells.Table(_ZERO_T_COLUMNS, [grid, slope, e0, degeneracy])
    if cfg["format"] == "json":
        return _cells.json_text(table), _EXIT_OK
    return _cells.csv_text(_ZERO_T_COLUMNS, table), _EXIT_OK


def _window(cfg: dict, default_window) -> tuple:
    """A route's window: --lambda-grid's ends, else the default."""
    grid = cfg.get("lambda_grid")
    return default_window if grid is None else (float(grid[0]), float(grid[-1]))


def _grid_points(cfg: dict, default_points: int) -> int:
    """A scanning route's density: --lambda-grid's size (at least 16), else the default."""
    return max(len(cfg["lambda_grid"]), 16) if "lambda_grid" in cfg else default_points


def _peaks_block(cfg: dict, s, crit) -> dict:
    # the default window brackets every crossing with a 20% margin
    window = _window(cfg, (0.8 * crit[0].item(), 1.2 * crit[-1].item()))
    schedule = [float(b) for b in cfg.get("beta", (70.0, 90.0, 110.0))]
    # the whole schedule in one lockstep search, then each peak beside the
    # nearest crossing of the closed form
    peaks = transitions.find_peaks(s, schedule, window, _grid_points(cfg, 1024))
    near, offsets, gaps = transitions.nearest_crossing(crit, peaks[:, _LAMBDA_AT_PEAK])
    tracked = np.column_stack((peaks, near, offsets))
    tracked.setflags(write=False)  # read-only, as every route's table is
    # further from its crossing than a quarter of the gap to the next one,
    # a peak has merged with a neighbouring remnant at its beta
    warnings = [
        f"beta={b:g}: peak at lambda={lam:.6f} is not resolved "
        f"(offset {offset:.4f} from nearest crossing {nearest:.6f})"
        for b, lam, _height, _width, nearest, offset in tracked[offsets > 0.25 * gaps].tolist()
    ]
    final_offsets = offsets[peaks[:, _BETA] == max(schedule)]
    return {
        "beta_schedule": schedule,
        "window": list(window),
        "tracked": _cells.Table(_TRACKED_COLUMNS, tracked.T),
        "warnings": warnings,
        "max_offset_at_beta_max": final_offsets.max().item() if final_offsets.size else None,
    }


def _jumps_block(cfg: dict, s, crit) -> dict:
    window = _window(cfg, (0.0, 1.2 * crit[-1].item()))
    jumps = transitions.detect_jumps(s, window)
    _, distances, _ = transitions.nearest_crossing(crit, jumps[:, _LAMBDA])
    # the staircase at the window's left end (a window without a jump is one
    # plateau), then right of every jump
    plateaus = np.append(model.ground_level(s, window[0])[1], jumps[:, _RIGHT_VALUE])
    return {
        "window": list(window),
        "jumps": _cells.Table(transitions.JUMP_COLUMNS, jumps.T),
        "plateaus": _cells.Table(["plateaus"], [plateaus], _cells.SLOT),
        "max_distance_to_analytic": distances.max().item() if distances.size else None,
    }


def _ceq_block(cfg: dict, xi_window, xi_crit) -> dict:
    # the largest beta given: the residual's dip sharpens as beta grows
    beta = float(cfg["beta"][-1]) if "beta" in cfg else 200.0
    res = transitions.qpt_from_ceq(beta * cfg["e_gap"], xi_window, _grid_points(cfg, 257))
    # as beta grows the zero-variance condition collapses to its double root,
    # the crossing in xi units
    [limit], [delta], _ = transitions.nearest_crossing(xi_crit, [res.xi])
    return {
        "beta": beta,
        "xi_star": res.xi,
        "converged": res.converged,
        "residual": res.residual,
        "zero_t_limit": limit.item(),
        "delta_to_zero_t": delta.item(),
    }


def cmd_critical(cfg: dict) -> tuple[Iterable[str], int]:
    mult, e_gap, method = Multiplet(cfg["n"]), cfg["e_gap"], cfg["method"]
    crit = model.critical_couplings(mult, e_gap)

    # the n = 2 levels are e_gap*{-1, -xi, +1} with xi = lambda/e_gap, so at
    # beta they weigh as the residual's unit-gap levels at beta*e_gap: the
    # search runs there, in xi, where the crossing lambda_c = e_gap is xi = 1
    lo, hi = xi_window = tuple(x / e_gap for x in _window(cfg, (0.5 * e_gap, 1.5 * e_gap)))
    # each route's reason it cannot run here, or None
    no_crossings = None if crit.size else "no crossings exist below 2 particles"
    if mult.n_particles != 2:
        no_ceq = "the closed-form residual search applies to n = 2 only"
    elif not lo < 1.0 < hi:
        no_ceq = f"the ceq window must contain lambda_c = e_gap = {e_gap:g} strictly"
    elif lo < 0:
        no_ceq = "the ceq window must not reach below lambda = 0"
    else:
        no_ceq = None

    def runs(route: str, reason: str | None) -> bool:
        # asked for alone, a route that cannot run is the usage error; under all it is left out
        if method == route and reason:
            raise ValueError(reason)
        return method in (route, "all") and not reason

    ms = np.arange(crit.size + 1.0) - mult.j
    report = {
        "n_particles": mult.n_particles,
        "e_gap": e_gap,
        # crossing n pairs levels n-1 and n, labelled as in mult.m_values()
        "analytic": _cells.Table(
            ("n", "lambda_c", "lower_m", "upper_m"),
            [np.arange(1, crit.size + 1), crit, ms[:-1], ms[1:]],
        ),
    }
    exit_code = _EXIT_OK
    peaks, jumps = runs("peaks", no_crossings), runs("jumps", no_crossings)
    # the levels only for a route that reads them
    s = model.analytic_spectrum(mult, e_gap) if peaks or jumps else None
    if peaks:
        report["peaks"] = _peaks_block(cfg, s, crit)
    if jumps:
        report["jumps"] = _jumps_block(cfg, s, crit)
    if runs("ceq", no_ceq):
        report["ceq"] = _ceq_block(cfg, xi_window, crit / e_gap)
        if not report["ceq"]["converged"]:
            exit_code = _EXIT_NUMERIC
    return _cells.json_text(report), exit_code


def cmd_validate(cfg: dict) -> tuple[Iterable[str], int]:
    # imported here so that no other command pays for importing the suite
    from . import validation

    results = validation.run_all()
    failed = [r for r in results if not r.passed]
    # the table is the output; exit 1 names each failed check on stderr too
    for r in failed:
        print(f"su2qpt: validate: FAIL {r.name}: {r.detail}", file=sys.stderr)
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}\n" for r in results
    ]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return lines, _EXIT_USAGE if failed else _EXIT_OK


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
        # argparse leaves only through ``parser.exit(status)``: 0 after
        # --help, _EXIT_USAGE from ``_Parser.error``
        return exc.code
    try:
        # an overflowing or undefined value is an error in every format
        with np.errstate(over="raise", invalid="raise"):
            cfg = _make_config(ns)
            # the command computes every value here; only the formatting
            # of its tables is left, done chunk by chunk as it is written
            output, exit_code = _DISPATCH[cfg["command"]](cfg)
            if argv is None:
                # Run as the program, this write is its last act: everything
                # alive now lives until exit, and once frozen the garbage
                # collections of the interpreter's shutdown skip it.  A caller
                # passing argv keeps its collector as it was.
                gc.freeze()
            # the one write: exit 0 means every byte of it was written
            _emit(output, cfg.get("out"))
        return exit_code
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
    except (ValueError, OverflowError, FloatingPointError, OSError, MemoryError) as exc:
        # numpy names the allocation it could not make
        print(f"su2qpt: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
