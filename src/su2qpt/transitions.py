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

from . import thermo
from .model import CriticalPoint, Spectrum

__all__ = [
    "PeakEstimate",
    "TrackedPeak",
    "TrackingResult",
    "JumpPoint",
    "CeqSearchResult",
    "SweepTable",
    "CSV_HEADER",
    "find_peaks",
    "track_peaks_to_zero_t",
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


def _golden_min(f, a: float, b: float, xtol: float) -> float:
    """Golden-section minimizer for a unimodal f on [a, b]."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _bisect(inside, a: float, b: float, xtol: float) -> tuple[float, float]:
    """Shrink a bracket whose end a is inside and whose end b is not.

    b may lie on either side of a.  Returns the final (inside, outside)
    pair, at most xtol apart.
    """
    while abs(b - a) > xtol:
        mid = 0.5 * (a + b)
        if inside(mid):
            a = mid
        else:
            b = mid
    return a, b


def _scan(f, window, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """A uniform grid of grid_points over window = (lo, hi), and f(grid).

    f maps the whole grid to the array of its values; ``_pointwise``
    lifts a function of one coupling to that form.
    """
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    grid = np.linspace(lo, hi, grid_points)
    return grid, f(grid)


def _pointwise(f):
    """f applied to each point of a grid, as a function of the grid."""
    return lambda grid: np.array([f(x) for x in grid])


def _interior_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of the strict interior local maxima of y."""
    return np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1


def find_peaks(
    s: Spectrum, beta: float, lambda_range, grid_points: int = 512
) -> list[PeakEstimate]:
    """Local maxima of |d<E>/d(beta)| on a coupling window, refined.

    Scans the magnitude (equal to the energy variance) on a uniform
    grid, keeps the strict interior local maxima, and polishes each one
    by golden-section search to a coupling resolution of 1e-8.  The
    width is the full width at half maximum, found by bisecting the
    half-height crossings on both flanks (clamped at the window edge if
    a flank never drops that far).  Maxima below ``_PEAK_FLOOR`` times
    the largest sample are float noise and are skipped.  The scan is one
    ``thermo.observables_grid`` call; the refinement evaluates one point
    at a time.

    Returns an empty list when no interior maximum exists, e.g. when
    beta is too small and the remnant structure is washed out.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")

    def var_at(x: float) -> float:
        return thermo.observables(s, beta, x).energy_variance

    def var_on(grid: np.ndarray) -> np.ndarray:
        return -thermo.observables_grid(s, beta, grid)[:, _C_STAR_BETA]

    grid, y = _scan(var_on, lambda_range, grid_points)
    maxima = _interior_maxima(y)
    peaks: list[PeakEstimate] = []
    for i in maxima[y[maxima] > _PEAK_FLOOR * y.max()]:
        lam_star = _golden_min(
            lambda x: -var_at(x), float(grid[i - 1]), float(grid[i + 1]), xtol=1e-8
        )
        height = var_at(lam_star)
        width = _fwhm(var_at, grid, y, i, lam_star, height)
        peaks.append(
            PeakEstimate(lambda_at_peak=lam_star, height=height, width=width, beta=beta)
        )

    # a flat-topped maximum sampled twice refines to the same point; keep one
    deduped: list[PeakEstimate] = []
    for pk in sorted(peaks, key=lambda p: p.lambda_at_peak):
        if deduped and abs(pk.lambda_at_peak - deduped[-1].lambda_at_peak) < 2e-8:
            if pk.height > deduped[-1].height:
                deduped[-1] = pk
        else:
            deduped.append(pk)
    return deduped


def _fwhm(var_at, grid, y, i_peak: int, lam_star: float, height: float) -> float:
    half = 0.5 * height

    def above_half(x: float) -> bool:
        return var_at(x) >= half

    def flank(step: int) -> float:
        k = i_peak
        if y[k] < half:
            # a peak narrower than the grid has its top sample below half
            # height already: bisect from the refined top to the first
            # sample past it
            past = k if (grid[k] - lam_star) * step > 0 else k + step
            a, b = _bisect(above_half, lam_star, float(grid[past]), xtol=1e-10)
            return 0.5 * (a + b)
        # walk the samples away from the peak while they stay at or above
        # half height, then bisect the cell where they drop below it
        while 0 <= k + step < len(grid) and y[k + step] >= half:
            k += step
        if not 0 <= k + step < len(grid):
            return float(grid[k])  # the flank never drops that far: clamp
        a, b = _bisect(above_half, float(grid[k]), float(grid[k + step]), xtol=1e-10)
        return 0.5 * (a + b)

    return flank(+1) - flank(-1)


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
    if len(schedule) < 3:
        raise ValueError("beta schedule needs at least 3 values")
    if any(b2 <= b1 for b1, b2 in zip(schedule, schedule[1:])):
        raise ValueError("beta schedule must be strictly increasing")
    crit = [cp.lambda_c for cp in critical_points]
    if not crit:
        raise ValueError("no crossings to track; the model needs at least 2 particles")

    tracked: list[TrackedPeak] = []
    warnings: list[str] = []
    for beta in schedule:
        for pk in find_peaks(s, beta, lambda_range, grid_points):
            nearest = min(crit, key=lambda c: abs(pk.lambda_at_peak - c))
            offset = abs(pk.lambda_at_peak - nearest)
            tracked.append(
                TrackedPeak(beta=beta, peak=pk, nearest_critical=nearest, offset=offset)
            )
            gap = min((abs(nearest - c) for c in crit if c != nearest), default=math.inf)
            if offset > 0.25 * gap:
                warnings.append(
                    f"beta={beta:g}: peak at lambda={pk.lambda_at_peak:.6f} is not "
                    f"resolved (offset {offset:.4f} from nearest crossing {nearest:.6f})"
                )
    return TrackingResult(peaks=tuple(tracked), warnings=tuple(warnings))


def detect_jumps(
    s: Spectrum, lambda_range, grid_points: int = 512, jump_threshold: float = 0.5
) -> list[JumpPoint]:
    """Discontinuities of the zero-temperature slope staircase.

    The staircase is sampled on a uniform grid; cells where it moves are
    merged into regions (a grid point landing exactly on a crossing
    reports the averaged value and splits one jump across two cells),
    and each region is refined by bisection to a coupling resolution of
    1e-10, then polished to the exact intersection of the two crossing
    levels.  Regions holding several jumps, as happens on coarse grids,
    are peeled left to right.  Only jumps whose plateau gap exceeds the
    threshold are returned.
    """
    if not jump_threshold > 0:
        raise ValueError("jump_threshold must be positive")

    def zt(x):
        return thermo.zero_t_c_star_lambda(s, x)

    # one kernel call for the scan; the bisection probes are its 0-d case
    grid, g = _scan(zt, lambda_range, grid_points)
    # half the threshold so a split jump flags both of its cells
    flagged = np.abs(np.diff(g)) >= 0.5 * jump_threshold

    def plateau_tol(value: float) -> float:
        return 1e-9 * max(1.0, abs(value))

    jumps: list[JumpPoint] = []
    # each run of flagged cells i..j-1 is one region, from grid point i to j
    runs = np.flatnonzero(np.diff(np.concatenate(([0], flagged.astype(np.int8), [0]))))
    for i, j in runs.reshape(-1, 2):
        a, b, ga, gb = float(grid[i]), float(grid[j]), float(g[i]), float(g[j])
        if not abs(gb - ga) > jump_threshold:
            continue
        # peel plateau changes off (a, b) left to right until the right
        # plateau gb is reached
        while True:
            lo_, hi_ = _bisect(lambda x: abs(zt(x) - ga) <= plateau_tol(ga), a, b, xtol=1e-10)
            lam_star = _polish_crossing(s, lo_, hi_)
            probe = hi_ + 1e-8 * max(1.0, abs(hi_))
            right_value = float(zt(probe))
            jumps.append(
                JumpPoint(
                    lam=lam_star,
                    left_value=ga,
                    right_value=right_value,
                    midpoint_value=float(zt(lam_star)),
                )
            )
            if not (probe < b and abs(right_value - gb) > plateau_tol(gb)):
                break
            a, ga = probe, right_value

    jumps.sort(key=lambda jp: jp.lam)
    return [jp for jp in jumps if abs(jp.left_value - jp.right_value) > jump_threshold]


def _polish_crossing(s: Spectrum, lo: float, hi: float) -> float:
    """Exact intersection of the two levels that swap ground status in [lo, hi].

    Bisection alone stops at 1e-10; intersecting the two affine levels
    recovers the crossing to full precision (the paired intercepts and
    slopes are exact).
    """
    i = int(np.argmin(s.energies(lo)))
    e_hi = np.array(s.energies(hi))
    e_hi[i] = np.inf  # the new ground level must differ from the old one
    j = int(np.argmin(e_hi))
    denom = s.slopes[i] - s.slopes[j]
    mid = 0.5 * (lo + hi)
    if denom == 0.0:
        return mid
    lam = float((s.intercepts[j] - s.intercepts[i]) / denom)
    if abs(lam - mid) > 1e-6 * max(1.0, abs(mid)):
        return mid
    return lam


def qpt_from_ceq(beta: float, search_interval=(0.5, 1.5), grid_points: int = 257) -> CeqSearchResult:
    """Crossing coupling of the two-particle system from the scaled residual.

    The scaled zero-variance residual never changes sign; at large beta
    it forms a deep dip at xi = 1 flanked by two humps a few 1/beta
    away.  When both humps show up on the scan grid the dip between them
    is golden-sectioned directly, which keeps the search robust to grid
    alignment; otherwise the plain grid minimum is refined, and a
    minimum on the interval boundary is flagged as unconverged (at small
    beta the residual is monotone and there is nothing to find).

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

    def f(x: float) -> float:
        return thermo.ceq_scaled_residual(x, beta)

    grid, vals = _scan(_pointwise(f), (lo, hi), grid_points)
    maxima = _interior_maxima(vals)
    if len(maxima) >= 2:
        left_hump, right_hump = sorted(sorted(maxima, key=lambda i: vals[i])[-2:])
        a, b = float(grid[left_hump]), float(grid[right_hump])
        if a < 1.0 < b:
            xi = _golden_min(f, a, b, xtol=1e-8)
            return CeqSearchResult(xi=float(xi), converged=True, residual=float(f(xi)))

    i = int(np.argmin(vals))
    if i == 0 or i == len(grid) - 1:
        return CeqSearchResult(xi=float(grid[i]), converged=False, residual=float(vals[i]))
    xi = _golden_min(f, float(grid[i - 1]), float(grid[i + 1]), xtol=1e-8)
    return CeqSearchResult(xi=float(xi), converged=True, residual=float(f(xi)))


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
