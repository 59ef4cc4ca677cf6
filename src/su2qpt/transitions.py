"""Critical-point location by three independent routes, plus sweep tables.

The same crossings are found from finite-temperature remnants (peak
tracking in |d<E>/d(beta)|), from the zero-temperature staircase of the
ground-state slope (jump detection), and, for the two-particle system,
from the scaled zero-variance residual.  Agreement between the routes is
the package's main correctness argument, so none of them is allowed to
peek at the closed-form answer while searching.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import model, thermo
from .model import CriticalPoint, Spectrum
from .spin_algebra import Multiplet
from .thermo import ThermalObservables

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


def _bisect_root(f, a: float, b: float, xtol: float) -> float:
    """Plain bisection; the caller guarantees a sign change on [a, b]."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        return 0.5 * (a + b)
    while b - a > xtol:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _check_interval(lambda_range) -> tuple[float, float]:
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    return lo, hi


def find_peaks(
    s: Spectrum, beta: float, lambda_range, grid_points: int = 512
) -> list[PeakEstimate]:
    """Local maxima of |d<E>/d(beta)| on a coupling window, refined.

    Scans the magnitude (equal to the energy variance) on a uniform
    grid, keeps the strict interior local maxima, and polishes each one
    by golden-section search to a coupling resolution of 1e-8.  The
    width is the full width at half maximum, found by bisecting the
    half-height crossings on both flanks (clamped at the window edge if
    a flank never drops that far).

    Returns an empty list when no interior maximum exists, e.g. when
    beta is too small and the remnant structure is washed out.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    lo, hi = _check_interval(lambda_range)

    def var_at(x: float) -> float:
        return thermo.observables(s, beta, x).energy_variance

    grid = np.linspace(lo, hi, grid_points)
    y = np.array([var_at(x) for x in grid])

    peaks: list[PeakEstimate] = []
    for i in range(1, grid_points - 1):
        if not (y[i] > y[i - 1] and y[i] > y[i + 1]):
            continue
        lam_star = _golden_min(
            lambda x: -var_at(x), float(grid[i - 1]), float(grid[i + 1]), xtol=1e-8
        )
        height = var_at(lam_star)
        width = _fwhm(var_at, grid, y, i, height)
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


def _fwhm(var_at, grid, y, i_peak: int, height: float) -> float:
    half = 0.5 * height

    def crossing(x: float) -> float:
        return var_at(x) - half

    k = i_peak
    while k + 1 < len(grid) and y[k + 1] >= half:
        k += 1
    if k + 1 == len(grid):
        right = float(grid[-1])
    else:
        right = _bisect_root(crossing, float(grid[k]), float(grid[k + 1]), xtol=1e-10)

    k = i_peak
    while k - 1 >= 0 and y[k - 1] >= half:
        k -= 1
    if k == 0:
        left = float(grid[0])
    else:
        left = _bisect_root(crossing, float(grid[k - 1]), float(grid[k]), xtol=1e-10)
    return right - left


def _default_critical_points(s: Spectrum) -> list[CriticalPoint]:
    # infer the gap from the topmost level, intercept = e_gap * J; valid
    # for spectra built by analytic_spectrum, not for shifted variants
    e_gap = float(s.intercepts[-1] / s.m_values[-1])
    return model.critical_couplings(Multiplet(s.n_particles), e_gap=e_gap)


def track_peaks_to_zero_t(
    s: Spectrum,
    beta_schedule,
    lambda_range,
    grid_points: int = 512,
    critical_points: list[CriticalPoint] | None = None,
) -> TrackingResult:
    """Follow remnant peaks along an increasing beta schedule.

    Each refined peak is assigned to the nearest analytic crossing and
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
    if critical_points is None:
        critical_points = _default_critical_points(s)
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
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    if not jump_threshold > 0:
        raise ValueError("jump_threshold must be positive")
    lo, hi = _check_interval(lambda_range)

    def zt(x: float) -> float:
        return thermo.zero_t_c_star_lambda(s, x)

    grid = np.linspace(lo, hi, grid_points)
    g = np.array([zt(x) for x in grid])
    # half the threshold so a split jump flags both of its cells
    flagged = np.abs(np.diff(g)) >= 0.5 * jump_threshold

    jumps: list[JumpPoint] = []

    def plateau_tol(value: float) -> float:
        return 1e-9 * max(1.0, abs(value))

    def refine(a: float, b: float, ga: float, gb: float) -> None:
        # peel off the leftmost plateau change inside (a, b)
        lo_, hi_ = a, b
        while hi_ - lo_ > 1e-10:
            mid = 0.5 * (lo_ + hi_)
            if abs(zt(mid) - ga) <= plateau_tol(ga):
                lo_ = mid
            else:
                hi_ = mid
        lam_star = _polish_crossing(s, lo_, hi_)
        probe = hi_ + 1e-8 * max(1.0, abs(hi_))
        right_value = zt(probe)
        jumps.append(
            JumpPoint(
                lam=lam_star,
                left_value=ga,
                right_value=right_value,
                midpoint_value=zt(lam_star),
            )
        )
        if probe < b and abs(right_value - gb) > plateau_tol(gb):
            refine(probe, b, right_value, gb)

    i = 0
    n_cells = len(flagged)
    while i < n_cells:
        if not flagged[i]:
            i += 1
            continue
        j = i
        while j + 1 < n_cells and flagged[j + 1]:
            j += 1
        total = g[j + 1] - g[i]
        if abs(total) > jump_threshold:
            refine(float(grid[i]), float(grid[j + 1]), float(g[i]), float(g[j + 1]))
        i = j + 1

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
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    lo, hi = _check_interval(search_interval)
    if not lo < 1.0 < hi:
        raise ValueError("search interval must contain the crossing coupling 1 strictly")

    def f(x: float) -> float:
        return thermo.ceq_scaled_residual(x, beta)

    grid = np.linspace(lo, hi, grid_points)
    vals = np.array([f(x) for x in grid])

    maxima = [
        i for i in range(1, grid_points - 1) if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]
    ]
    if len(maxima) >= 2:
        left_hump, right_hump = sorted(sorted(maxima, key=lambda i: vals[i])[-2:])
        a, b = float(grid[left_hump]), float(grid[right_hump])
        if a < 1.0 < b:
            xi = _golden_min(f, a, b, xtol=1e-8)
            return CeqSearchResult(xi=float(xi), converged=True, residual=float(f(xi)))

    i = int(np.argmin(vals))
    if i == 0 or i == grid_points - 1:
        return CeqSearchResult(xi=float(grid[i]), converged=False, residual=float(vals[i]))
    xi = _golden_min(f, float(grid[i - 1]), float(grid[i + 1]), xtol=1e-8)
    return CeqSearchResult(xi=float(xi), converged=True, residual=float(f(xi)))


CSV_HEADER = "beta,lambda,log_z,mean_energy,entropy,c_star_beta,c_star_lambda,specific_heat"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class SweepTable:
    """Grid of thermal observables, row order outer beta then inner lam."""

    rows: tuple[ThermalObservables, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def to_csv(self, stream) -> None:
        stream.write(CSV_HEADER + "\n")
        for r in self.rows:
            fields = (
                r.beta,
                r.lam,
                r.log_z,
                r.mean_energy,
                r.entropy,
                r.c_star_beta,
                r.c_star_lambda,
                r.specific_heat,
            )
            stream.write(",".join(_fmt(v) for v in fields) + "\n")

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def phase_diagram(s: Spectrum, beta_grid, lambda_grid) -> SweepTable:
    """Thermal observables at every (beta, lam) grid point."""
    betas = list(beta_grid)
    lams = list(lambda_grid)
    if not betas or not lams:
        raise ValueError("grids must be non-empty")
    rows = tuple(thermo.observables(s, b, x) for b in betas for x in lams)
    return SweepTable(rows=rows)
