"""Critical-point location by three independent routes, plus sweep tables.

The same crossings are found from finite-temperature remnants (peak
tracking in |d<E>/d(beta)|), from the zero-temperature staircase of the
ground-state slope (jump detection), and, for the two-particle system,
from the scaled zero-variance residual.  Agreement between the routes is
the package's main correctness argument, so none of them is allowed to
peek at the closed-form answer while searching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import model, thermo
from .model import CriticalPoint, Spectrum

__all__ = [
    "PeakEstimate",
    "TrackedPeak",
    "TrackingResult",
    "JumpPoint",
    "CeqSearchResult",
    "SweepTable",
    "CSV_HEADER",
    "MIN_SCHEDULE",
    "find_peaks",
    "nearest_crossing",
    "track_peaks_to_zero_t",
    "detect_jumps",
    "qpt_from_ceq",
    "phase_diagram",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# The fewest betas ``track_peaks_to_zero_t`` follows a peak across.
MIN_SCHEDULE = 3

# Interior maxima of a peak scan below this share of its largest sample
# are float noise on a flat tail (the variance there is ~1e-31 where the
# real remnant peaks are ~1e-4), not remnant peaks.
_PEAK_FLOOR = 1e-12

# The observables_grid column of d<E>/d(beta), minus the energy variance.
_C_STAR_BETA = thermo.COLUMNS.index("c_star_beta")


@dataclass(frozen=True)
class PeakEstimate:
    """One refined local maximum of |d<E>/d(beta)| along the coupling axis."""

    lambda_at_peak: float
    height: float
    width: float  # full width at half maximum, coupling units
    beta: float


@dataclass(frozen=True)
class TrackedPeak:
    """A peak estimate assigned to its nearest analytic crossing."""

    beta: float
    peak: PeakEstimate
    nearest_critical: float
    offset: float


@dataclass(frozen=True)
class TrackingResult:
    peaks: tuple[TrackedPeak, ...]
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class JumpPoint:
    """A discontinuity of the zero-temperature slope staircase."""

    lam: float
    left_value: float
    right_value: float
    midpoint_value: float


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


def _scan(f, window, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """A uniform grid of grid_points over window = (lo, hi), and f(grid).

    f maps the whole grid to the array of its values; ``np.vectorize``
    lifts a function of one coupling to that form.
    """
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    grid = np.linspace(lo, hi, grid_points)
    return grid, f(grid)


def _interior_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of the strict interior local maxima of y."""
    return np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1


def find_peaks(
    s: Spectrum, beta: float, lambda_range, grid_points: int = 512
) -> list[PeakEstimate]:
    """Local maxima of |d<E>/d(beta)| on a coupling window, refined.

    Scans the magnitude (equal to the energy variance) on a uniform
    grid, keeps the strict interior local maxima, and polishes them all
    together by golden-section search, one bracket of two grid cells per
    maximum, to a coupling resolution of 1e-8.  The width is the full
    width at half maximum, found by bisecting the half-height crossings
    on both flanks of every peak together (clamped at the window edge if
    a flank never drops that far).  Maxima below ``_PEAK_FLOOR`` times
    the largest sample are float noise and are skipped.  The scan and
    each refinement step are one ``thermo.observables_grid`` call.

    Returns an empty list when no interior maximum exists, e.g. when
    beta is too small and the remnant structure is washed out.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")

    def var_on(grid: np.ndarray) -> np.ndarray:
        return -thermo.observables_grid(s, beta, grid)[:, _C_STAR_BETA]

    grid, y = _scan(var_on, lambda_range, grid_points)
    maxima = _interior_maxima(y)
    top = maxima[y[maxima] > _PEAK_FLOOR * y.max()]
    if not top.size:
        return []
    lam_star = _golden_min(lambda x: -var_on(x), grid[top - 1], grid[top + 1], xtol=1e-8)
    height = var_on(lam_star)
    width = _fwhm(var_on, grid, y, top, lam_star, height)
    rows = zip(lam_star.tolist(), height.tolist(), width.tolist())
    peaks = [PeakEstimate(lam, h, w, beta) for lam, h, w in rows]

    # a flat-topped maximum sampled twice refines to the same point; keep one.
    # The peaks are in order already: each refines inside its two grid cells,
    # and strict maxima are two samples apart, so their brackets share at most an end.
    deduped: list[PeakEstimate] = []
    for pk in peaks:
        if deduped and abs(pk.lambda_at_peak - deduped[-1].lambda_at_peak) < 2e-8:
            if pk.height > deduped[-1].height:
                deduped[-1] = pk
        else:
            deduped.append(pk)
    return deduped


def _fwhm(var_on, grid, y, top, lam_star, height) -> np.ndarray:
    """Full widths at half maximum of the peaks at samples top, refined to lam_star."""
    half = 0.5 * height
    ends = []  # (inside, outside) per flank, left flanks first
    for step in (-1, +1):
        for k, lam, h in zip(top, lam_star, half):
            if y[k] < h:
                # a peak narrower than the grid has its top sample below half
                # height already: bisect from the refined top to the first
                # sample past it
                ends.append((lam, grid[k if (grid[k] - lam) * step > 0 else k + step]))
                continue
            # walk the samples away from the peak while they stay at or above
            # half height, then bisect the cell where they drop below it (a
            # zero-width bracket at the window edge if they never do: clamp)
            while 0 <= k + step < len(grid) and y[k + step] >= h:
                k += step
            ends.append((grid[k], grid[min(max(k + step, 0), len(grid) - 1)]))
    halves = np.tile(half, 2)
    a, b = _bisect(lambda x: var_on(x) >= halves, *np.array(ends).T, xtol=1e-10)
    flank = 0.5 * (a + b)
    return flank[top.size :] - flank[: top.size]


def nearest_crossing(crossings, lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each coupling's nearest crossing, its distance from it, and that crossing's gap.

    The nearest crossing is one of the coupling's two neighbours in the
    sorted crossings, and its gap is the distance to the nearer of its own
    neighbours; the infinities stand in for a missing neighbour.  A tie
    goes to the lower crossing, also where rounding ties crossings
    further down.  ``crossings`` must not be empty.
    """
    c = np.array([-math.inf, *sorted(crossings), math.inf])
    lam = np.asarray(lams, dtype=float)
    k = np.searchsorted(c, lam)
    j = np.where(c[k] - lam < lam - c[k - 1], k, k - 1)
    while (tied := lam - c[j - 1] == lam - c[j]).any():
        j -= tied
    gaps = np.minimum(c[j] - c[j - 1], c[j + 1] - c[j])
    return c[j], np.abs(lam - c[j]), gaps


def track_peaks_to_zero_t(
    s: Spectrum,
    beta_schedule,
    lambda_range,
    grid_points: int = 512,
    *,
    critical_points: list[CriticalPoint],
) -> TrackingResult:
    """Follow remnant peaks along an increasing beta schedule.

    Each refined peak is assigned to the nearest of ``critical_points``,
    the spectrum's analytic crossings (``model.critical_couplings``), and
    its offset recorded; as beta grows the offsets, heights and widths
    all shrink toward the zero-temperature limit.  A peak sitting far
    from every crossing (more than a quarter of the distance to the next
    one) means neighbouring remnants have merged at that temperature;
    such peaks are still reported, with an explicit warning, rather than
    silently reassigned.
    """
    schedule = [float(b) for b in beta_schedule]
    if len(schedule) < MIN_SCHEDULE:
        raise ValueError(f"beta schedule needs at least {MIN_SCHEDULE} values")
    if any(b2 <= b1 for b1, b2 in zip(schedule, schedule[1:])):
        raise ValueError("beta schedule must be strictly increasing")
    crit = [cp.lambda_c for cp in critical_points]
    if not crit:
        raise ValueError("no crossings to track; the model needs at least 2 particles")

    tracked: list[TrackedPeak] = []
    warnings: list[str] = []
    for beta in schedule:
        peaks = find_peaks(s, beta, lambda_range, grid_points)
        near, offsets, gaps = nearest_crossing(crit, [pk.lambda_at_peak for pk in peaks])
        rows = zip(peaks, near.tolist(), offsets.tolist(), gaps.tolist())
        for pk, nearest, offset, gap in rows:
            tracked.append(TrackedPeak(beta, pk, nearest, offset))
            if offset > 0.25 * gap:
                warnings.append(
                    f"beta={beta:g}: peak at lambda={pk.lambda_at_peak:.6f} is not "
                    f"resolved (offset {offset:.4f} from nearest crossing {nearest:.6f})"
                )
    return TrackingResult(peaks=tuple(tracked), warnings=tuple(warnings))


def detect_jumps(s: Spectrum, lambda_range) -> list[JumpPoint]:
    """Discontinuities of the zero-temperature slope staircase on [lo, hi).

    Every level is a line in the coupling, so the ground energy is their
    lower envelope and each jump is a vertex of it.  One walk follows the
    envelope from the shallowest level tied for ground at lo, stepping to
    the nearest exact crossing with a steeper level while that crossing
    lies below hi, and at a vertex to the steepest of the levels crossing
    there, so a crossing of several levels is one jump.  Every vertex is
    reported, with no threshold on its plateau gap.  The first jump's left
    value is the staircase at lo: the on-point mean if lo is a crossing.
    """
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("interval ends must be finite")
    # the levels tied for ground at lo, as ``model.ground_level`` finds them
    [(_, _, _, tied)] = model._ties(s, np.asarray(lo))
    k = tied[np.argmax(s.slopes[tied])]
    lams, rights = [], []
    while True:
        steeper = np.flatnonzero(s.slopes < s.slopes[k])
        rise = s.intercepts[steeper] - s.intercepts[k]
        vertices = rise / (s.slopes[k] - s.slopes[steeper])
        lam = float(vertices.min(initial=math.inf))
        if not lam < hi:
            break
        at = steeper[vertices == lam]
        k = at[np.argmin(s.slopes[at])]
        lams.append(lam)
        rights.append(float(s.slopes[k]))

    # the staircase at lo, then the on-point value at every vertex
    values = thermo.zero_t_c_star_lambda(s, np.array([lo, *lams])).tolist()
    lefts = values[:1] + rights[:-1]
    return [JumpPoint(*v) for v in zip(lams, lefts, rights, values[1:])]


def qpt_from_ceq(beta: float, search_interval=(0.5, 1.5), grid_points: int = 257) -> CeqSearchResult:
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
    lo, hi = float(search_interval[0]), float(search_interval[1])
    # an unordered interval is left to _scan, which rejects it
    if lo < hi and not lo < 1.0 < hi:
        raise ValueError("search interval must contain the crossing coupling 1 strictly")

    def residual(x: float) -> float:
        # looked up at each call, so a wrapper set on the module attribute runs
        return thermo.ceq_scaled_residual(x, beta)

    # otypes spares np.vectorize an extra call per use to learn the output type
    f = np.vectorize(residual, otypes=[float])

    def refined(a: float, b: float) -> CeqSearchResult:
        xtol = 1e-8
        xi = float(_golden_min(f, a, b, xtol=xtol))
        # a minimum refined onto an end of its bracket lies at or past it
        converged = a + xtol < xi < b - xtol
        return CeqSearchResult(xi=xi, converged=converged, residual=float(f(xi)))

    grid, vals = _scan(f, (lo, hi), grid_points)
    maxima = _interior_maxima(vals)
    if len(maxima) >= 2:
        left_hump, right_hump = sorted(sorted(maxima, key=lambda i: vals[i])[-2:])
        a, b = float(grid[left_hump]), float(grid[right_hump])
        if a < 1.0 < b:
            return refined(a, b)

    i = int(np.argmin(vals))
    if i == 0 or i == len(grid) - 1:
        return CeqSearchResult(xi=float(grid[i]), converged=False, residual=float(vals[i]))
    return refined(float(grid[i - 1]), float(grid[i + 1]))


CSV_HEADER = ",".join(thermo.COLUMNS)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Thermal observables on a (beta, lam) grid as one read-only array.

    ``values`` holds one row per grid point, outer beta then inner lam,
    and one column per name in ``COLUMNS``, the fields of ``CSV_HEADER``.
    """

    COLUMNS: ClassVar[tuple[str, ...]] = thermo.COLUMNS
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.COLUMNS):
            raise ValueError(f"values must have shape (rows, {len(self.COLUMNS)})")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def csv_text(self) -> str:
        # '%.17g' % x is format(x, '.17g'), one format string per row
        row_fmt = ",".join(["%.17g"] * len(self.COLUMNS))
        lines = [CSV_HEADER]
        lines += [row_fmt % tuple(row) for row in self.values.tolist()]
        return "\n".join(lines) + "\n"


def phase_diagram(s: Spectrum, beta_grid, lambda_grid) -> SweepTable:
    """Thermal observables at every (beta, lam) grid point."""
    betas = list(beta_grid)
    lams = np.asarray(lambda_grid, dtype=float)
    if not betas or not lams.size:
        raise ValueError("grids must be non-empty")
    return SweepTable(np.concatenate([thermo.observables_grid(s, b, lams) for b in betas]))
