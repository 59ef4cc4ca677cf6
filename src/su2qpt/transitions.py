"""Critical-point location by three independent routes, plus sweep tables.

The same crossings are found from finite-temperature remnants (peak
tracking in |d<E>/d(beta)|), from the zero-temperature staircase of the
ground-state slope (jump detection), and, for the two-particle system,
from the scaled zero-variance residual.  Agreement between the routes is
the package's main correctness argument, so none of them takes the
closed-form answer; ``nearest_crossing`` pairs a route's couplings with
it afterwards, for the comparison.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _cells, model, thermo
from .model import Spectrum

__all__ = [
    "PEAK_COLUMNS",
    "JUMP_COLUMNS",
    "CeqSearchResult",
    "SweepTable",
    "find_peaks",
    "nearest_crossing",
    "detect_jumps",
    "qpt_from_ceq",
    "phase_diagram",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Interior maxima of a peak scan below this share of its largest sample
# are float noise on a flat tail (the variance there is ~1e-31 where the
# real remnant peaks are ~1e-4), not remnant peaks.
_PEAK_FLOOR = 1e-12

# The observables_grid column of d<E>/d(beta), minus the energy variance.
_C_STAR_BETA = thermo.COLUMNS.index("c_star_beta")

# The columns of the route tables: ``find_peaks`` gives a row of
# PEAK_COLUMNS per peak (the width is the full width at half maximum, in
# coupling units), and ``detect_jumps`` a row of JUMP_COLUMNS per vertex
# of the zero-temperature slope staircase.
PEAK_COLUMNS = ("beta", "lambda_at_peak", "height", "width")
JUMP_COLUMNS = ("lambda", "left_value", "right_value", "midpoint_value")


def _table(*columns) -> np.ndarray:
    """The given columns side by side, as one read-only float64 array of their rows."""
    values = np.column_stack([np.asarray(col, dtype=float) for col in columns])
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class CeqSearchResult:
    xi: float
    converged: bool
    residual: float


def _golden_min(f, a, b, xtol: float) -> np.ndarray:
    """Golden-section minimizer for a unimodal f on each bracket [a, b].

    Arrays of brackets (a scalar is the 0-d case) step in lockstep, one f
    call on all probes per step, and each stops at xtol, or once its
    probes no longer fit strictly inside it (neighbouring large floats
    can be farther apart than xtol); a stopped bracket's probes are discarded.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    live = (b - a > xtol) & (a < c) & (c < d) & (d < b)
    while live.any():
        left = fc < fd  # the minimum lies in [a, d]
        a, b = np.where(live & ~left, c, a), np.where(live & left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        new = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        f_new = f(new)
        c, fc = np.where(left, new, kept), np.where(left, f_new, f_kept)
        d, fd = np.where(left, kept, new), np.where(left, f_kept, f_new)
        live &= (b - a > xtol) & (a < c) & (c < d) & (d < b)
    return 0.5 * (a + b)


def _bisect(inside, a, b, xtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Shrink brackets whose ends a are inside and whose ends b are not.

    Arrays of brackets (a scalar is the 0-d case) shrink in lockstep, one
    ``inside`` call on all midpoints per step; b may lie on either side of
    a.  Returns the final (inside, outside) pairs, each at most xtol apart
    or else neighbouring floats.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    live = True  # a stopped bracket stays stopped and its answers are discarded
    while True:
        mid = 0.5 * (a + b)
        live = live & (abs(b - a) > xtol) & (mid != a) & (mid != b)
        if not live.any():
            return a, b
        is_in = inside(mid)
        a, b = np.where(live & is_in, mid, a), np.where(live & ~is_in, mid, b)


def _interval(window) -> tuple[float, float]:
    """A route's coupling window (lo, hi) as floats, checked: lo < hi, both finite."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("interval ends must be finite")
    return lo, hi


def _scan(f, window, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """A uniform grid of grid_points over window = (lo, hi), and f(grid).

    f maps the whole grid to the array of its values.
    """
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    grid = np.linspace(*_interval(window), grid_points)
    return grid, f(grid)


def _interior_maxima(y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Indices of the strict interior local maxima along y's last axis, as np.nonzero gives them."""
    *rows, k = np.nonzero((y[..., 1:-1] > y[..., :-2]) & (y[..., 1:-1] > y[..., 2:]))
    return (*rows, k + 1)


def find_peaks(s: Spectrum, beta, lambda_range, grid_points: int = 512) -> np.ndarray:
    """Local maxima of |d<E>/d(beta)| on a coupling window, refined, at each beta.

    ``beta`` is one inverse temperature or a schedule of them.  At every
    beta the magnitude (equal to the energy variance) is scanned on one
    uniform grid, and the strict interior local maxima are kept; maxima
    below ``_PEAK_FLOOR`` times that beta's largest sample are float
    noise and are skipped.  All of them, of every beta, are polished
    together by golden-section search, one bracket of two grid cells per
    maximum, to a coupling resolution of 1e-8.  Maxima of one beta that
    each refine within 2e-8 of the one before (a flat top sampled twice)
    are one peak, the highest, the first of equals; a chain of three spans
    two grid cells, so on cells at least 2e-8 wide this is the same as
    comparing each with the last peak kept.  Each peak's width is the full
    width at half maximum, found by bisecting the half-height crossings
    on both flanks of every peak together (clamped at the window edge if
    a flank never drops that far).  The scan of the whole schedule and
    each refinement step are one ``thermo.observables_grid`` call, and a
    peak gets the same bits as from a schedule of its beta alone.

    Returns a read-only (peaks, 4) table of ``PEAK_COLUMNS``, ordered by
    beta as given, then by coupling: no row for a beta at which no
    interior maximum exists, e.g. one too small for the remnant structure
    to survive.
    """
    betas = np.array(beta, dtype=float, ndmin=1)
    if betas.ndim != 1 or not np.all(betas > 0):
        raise ValueError("beta must be positive")

    def var_on(b: np.ndarray, lams: np.ndarray) -> np.ndarray:
        return -thermo.observables_grid(s, b, lams)[:, _C_STAR_BETA]

    def scan(grid: np.ndarray) -> np.ndarray:
        # one row of samples per beta
        return var_on(np.repeat(betas, grid.size), np.tile(grid, betas.size)).reshape(-1, grid.size)

    grid, y = _scan(scan, lambda_range, grid_points)
    which, top = _interior_maxima(y)
    keep = y[which, top] > _PEAK_FLOOR * y.max(axis=1)[which]
    which, top = which[keep], top[keep]
    b = betas[which]
    lam_star = _golden_min(lambda x: -var_on(b, x), grid[top - 1], grid[top + 1], xtol=1e-8)
    height = var_on(b, lam_star)

    # number the chains, then keep each one's highest; the peaks of each beta
    # are in order already, as each refines inside its two grid cells and
    # strict maxima are two samples apart, so their brackets share at most an end
    chained = (np.diff(which, prepend=-1) == 0) & (np.diff(lam_star, prepend=-math.inf) < 2e-8)
    peak = np.cumsum(~chained)
    by_height = np.lexsort((-height, peak))
    kept = by_height[np.diff(peak[by_height], prepend=0) > 0]
    b, top, lam_star, height = b[kept], top[kept], lam_star[kept], height[kept]
    width = _fwhm(lambda x: var_on(np.tile(b, 2), x), grid, y, which[kept], top, lam_star, height)
    return _table(b, lam_star, height, width)


def _fwhm(var_on, grid, y, which, top, lam_star, height) -> np.ndarray:
    """Full widths at half maximum of the peaks at samples top, refined to lam_star.

    ``y`` holds rows of samples on ``grid``, ``which`` each peak's row;
    ``var_on`` takes the left flanks' points, then the right flanks'.  A
    flank is bisected between the sample nearest the top on its side that
    lies below half height and the sample just inside it; a flank that
    never drops that far is clamped at the window edge, a zero-width
    bracket.  A peak narrower than the grid has its top sample below half
    height already: each flank is bisected from the refined top to the
    first sample past it.
    """
    half = 0.5 * height
    # each row padded with a below-half sample at both window edges: argmax finds one
    edges = np.concatenate((grid[:1], grid, grid[-1:]))
    below = np.pad(y[which] < half[:, None], ((0, 0), (1, 1)), constant_values=True)
    k, cols = top + 1, np.arange(edges.size)
    right = (below & (cols > k[:, None])).argmax(axis=1)
    left = edges.size - 1 - (below & (cols < k[:, None]))[:, ::-1].argmax(axis=1)
    outer, step = np.concatenate((left, right)), np.repeat([-1, 1], top.size)
    narrow = np.tile(below[np.arange(top.size), k], 2)
    k, lam, halves = np.tile(k, 2), np.tile(lam_star, 2), np.tile(half, 2)
    past = np.where((edges[k] - lam) * step > 0, k, k + step)
    a = np.where(narrow, lam, edges[outer - step])
    b = np.where(narrow, edges[past], edges[outer])
    a, b = _bisect(lambda x: var_on(x) >= halves, a, b, xtol=1e-10)
    flank = 0.5 * (a + b)
    return flank[top.size :] - flank[: top.size]


def nearest_crossing(crossings, lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each coupling's nearest crossing, its distance from it, and that crossing's gap.

    The nearest crossing is one of the coupling's two neighbours in the
    sorted crossings, and its gap is the distance to the nearer of its own
    neighbours; the infinities stand in for a missing neighbour.  A tie
    goes to the lower crossing, also where rounding ties crossings
    further down.  ``crossings`` must not be empty, and every coupling and
    crossing must be finite (ValueError otherwise).
    """
    c = np.concatenate(([-math.inf], np.sort(crossings), [math.inf]))
    lam = np.asarray(lams, dtype=float)
    if not (c.size > 2 and np.isfinite(c[1:-1]).all() and np.isfinite(lam).all()):
        raise ValueError("crossings must not be empty, and couplings and crossings must be finite")
    k = np.searchsorted(c, lam)
    j = np.where(c[k] - lam < lam - c[k - 1], k, k - 1)
    while (tied := lam - c[j - 1] == lam - c[j]).any():
        j -= tied
    gaps = np.minimum(c[j] - c[j - 1], c[j + 1] - c[j])
    return c[j], np.abs(lam - c[j]), gaps


def detect_jumps(s: Spectrum, lambda_range) -> np.ndarray:
    """Discontinuities of the zero-temperature slope staircase on [lo, hi).

    Every level is a line in the coupling, so the ground energy is their
    lower envelope and each jump is a vertex of it.  One sorted pass
    stacks it (Andrew's monotone chain) from the shallowest level tied for
    ground at lo: the steeper levels come by slope descending, then
    intercept ascending, and each pops the top while it crosses the level
    beneath no later than the top did, so a crossing of several levels is
    one jump to the steepest.  The vertices before the first at or past hi
    are reported, with no threshold on their plateau gaps: one row of
    ``JUMP_COLUMNS`` each, in a read-only (jumps, 4) table.  The first
    jump's left value is the staircase at lo: the on-point mean if lo is
    a crossing.
    """
    lo, hi = _interval(lambda_range)
    # the levels tied for ground at lo, as ``model.ground_level`` finds them
    [(_, _, _, tied)] = model._ties(s, np.asarray(lo))
    k = tied[np.argmax(s.slopes[tied])]
    steeper = np.flatnonzero(s.slopes < s.slopes[k])
    steeper = steeper[np.lexsort((s.intercepts[steeper], -s.slopes[steeper]))]
    # (where the level took over, intercept, slope), from the start level up
    hull = [(-math.inf, s.intercepts[k].item(), s.slopes[k].item())]
    for a, b in zip(s.intercepts[steeper].tolist(), s.slopes[steeper].tolist()):
        if b < hull[-1][2]:  # a level parallel to the top lies on or above it
            while len(hull) > 1 and (a - hull[-2][1]) / (hull[-2][2] - b) <= hull[-1][0]:
                hull.pop()
            hull.append(((a - hull[-1][1]) / (hull[-1][2] - b), a, b))
    vertices = np.array(hull[1:]).reshape(-1, 3)
    lams, _, rights = vertices[np.logical_and.accumulate(vertices[:, 0] < hi)].T

    # the staircase at lo, then the on-point value at every vertex
    values = model.ground_level(s, np.concatenate(([lo], lams)))[1]
    plateaus = np.concatenate((values[:1], rights))
    return _table(lams, plateaus[:-1], plateaus[1:], values[1:])


def qpt_from_ceq(
    beta: float, search_interval=(0.5, 1.5), grid_points: int = 257
) -> CeqSearchResult:
    """Crossing coupling of the two-particle system from the scaled residual.

    The scaled zero-variance residual never changes sign; at large beta
    it forms a deep dip at xi = 1 flanked by two humps a few 1/beta
    away.  When both humps show up on the scan grid the dip between them
    is golden-sectioned directly, which keeps the search robust to grid
    alignment; otherwise the plain grid minimum is refined.  A minimum on
    the interval boundary or on an end of its refinement's bracket is
    flagged as unconverged (at small beta the residual is monotone and
    there is nothing to find; a bracket the grid cut across unresolved
    humps does not hold the minimum).

    The closed forms behind the residual fix the gap at 1, so the
    interval must straddle 1.  Intended for beta up to around 1e3; past
    that the scaled residual underflows to flat zero away from the dip
    and the search flags itself unconverged rather than guessing.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    lo, hi = _interval(search_interval)
    if not lo < 1.0 < hi:
        raise ValueError("search interval must contain the crossing coupling 1 strictly")

    def f(x):
        # looked up at each call, so a wrapper set on the module attribute runs
        return thermo.ceq_scaled_residual(x, beta)

    def refined(a: float, b: float) -> CeqSearchResult:
        xtol = 1e-8
        xi = float(_golden_min(f, a, b, xtol=xtol))
        # a minimum refined onto an end of its bracket lies at or past it
        converged = a + xtol < xi < b - xtol
        return CeqSearchResult(xi=xi, converged=converged, residual=float(f(xi)))

    grid, vals = _scan(f, (lo, hi), grid_points)
    (maxima,) = _interior_maxima(vals)
    if len(maxima) >= 2:
        left_hump, right_hump = sorted(sorted(maxima, key=lambda i: vals[i])[-2:])
        a, b = float(grid[left_hump]), float(grid[right_hump])
        if a < 1.0 < b:
            return refined(a, b)

    i = int(np.argmin(vals))
    if i == 0 or i == len(grid) - 1:
        return CeqSearchResult(xi=float(grid[i]), converged=False, residual=float(vals[i]))
    return refined(float(grid[i - 1]), float(grid[i + 1]))


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Thermal observables on a (beta, lam) grid as one read-only array.

    ``values`` holds one row per grid point, outer beta then inner lam,
    and one column per name in ``COLUMNS``, the fields of its CSV header.
    It is taken as it is when it is a read-only C-ordered float64 array
    that owns its data (``model.Spectrum``'s rule), else copied and frozen.
    """

    COLUMNS: ClassVar[tuple[str, ...]] = thermo.COLUMNS
    values: np.ndarray

    def __post_init__(self):
        values = model._owned(self.values)
        if values.ndim != 2 or values.shape[1] != len(self.COLUMNS):
            raise ValueError(f"values must have shape (rows, {len(self.COLUMNS)})")
        object.__setattr__(self, "values", values)

    def csv_text(self) -> Iterator[str]:
        return _cells.csv_text(self.COLUMNS, self.values)


def phase_diagram(s: Spectrum, beta_grid, lambda_grid) -> SweepTable:
    """Thermal observables at every (beta, lam) grid point, in one engine pass."""
    betas = np.array(list(beta_grid), dtype=float)
    lams = np.asarray(lambda_grid, dtype=float)
    if not betas.size or not lams.size:
        raise ValueError("grids must be non-empty")
    # rows outer beta, inner lam; under one beta both are views, not per-point copies
    beta, lam = (a.reshape(-1) for a in np.broadcast_arrays(betas[:, None], lams))
    values = thermo.observables_grid(s, beta, lam)
    values.setflags(write=False)  # the table takes this fresh array without a copy
    return SweepTable(values)
