"""Exactly solvable N-particle two-level model with a pairing-type coupling.

The Hamiltonian is e_gap*J_z - lam*(J^2 - J_z^2 - N/2).  Both terms are
diagonal in the working basis, so each eigenenergy is affine in the
coupling: intercept e_gap*M, slope M^2 - J^2 (never positive), and a
``Spectrum`` of those three arrays is the package's only form of the
Hamiltonian; ``Spectrum.energies(lam)`` is its diagonal.  Adjacent
levels cross at the couplings e_gap/(N - (2n-1)); at each of those the
ground state switches branch, which is where the zero-temperature
physics turns non-analytic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spin_algebra import Multiplet

__all__ = [
    "Spectrum",
    "CriticalPoint",
    "analytic_spectrum",
    "critical_couplings",
    "ground_level",
]

# Relative tolerance for calling two level energies degenerate.  The
# model's crossings sit at exact rationals, so this only has to absorb
# float evaluation noise, not physics: each level energy is one product
# and one sum, and near the ground both terms share a sign, so two
# levels that truly cross differ by a few ulp of |E0|.  It must stay
# that tight because |E0| grows like N^2 while the level spacing near
# the ground does not: at N = 3e5 real neighbours can sit only 8e-13*|E0|
# apart.
DEGENERACY_RTOL = 8 * np.finfo(float).eps

# Level x point elements per block of the batched kernels (``ground_level``
# here, ``thermo.observables_grid``).  A block's temporaries then stay a
# few tens of kB whatever the grid length; at large N a block is one point.
# It is also the floor on a point's window of levels (``_levels``): up to
# N+1 = _BLOCK_ELEMENTS every window is the whole spectrum, so small
# spectra always take the full sum, and past it every block is one point,
# so no block mixes windows.
_BLOCK_ELEMENTS = 4096


def _check_e_gap(e_gap: float) -> None:
    if not 0.0 < e_gap < math.inf:
        raise ValueError("e_gap must be positive and finite")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The full set of affine levels as three arrays, ordered by ascending M.

    Level i has J_z label ``m_values[i]`` and energy
    ``intercepts[i] + slopes[i]*lam``.  The arrays are copied to float and
    frozen on construction, so a spectrum can be shared freely and
    repeated thermodynamic evaluations stay cheap.
    """

    m_values: np.ndarray
    intercepts: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        arrays = [np.array(a, dtype=float) for a in (self.m_values, self.intercepts, self.slopes)]
        if any(a.ndim != 1 for a in arrays):
            raise ValueError("spectrum arrays must be one-dimensional")
        if arrays[0].size == 0:
            raise ValueError("a spectrum needs at least one level")
        if any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError("spectrum arrays must have equal length")
        for name, a in zip(("m_values", "intercepts", "slopes"), arrays):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def energies(self, lam: float) -> np.ndarray:
        """All level energies at one coupling."""
        return self.intercepts + self.slopes * lam

    @cached_property
    def _convex(self) -> bool:
        """Whether every level energy is convex in the level index at lam >= 0.

        True when the second differences of the intercepts and of the
        slopes are non-negative, to within 4 ulp of the largest entry
        nearby: ``analytic_spectrum``'s intercepts e_gap*M are a straight
        line only up to their rounding.  Checked once, on the first call
        that could use a window, in chunks of 16384 levels, so it adds no
        level-sized temporary.
        """
        chunk = 4 * _BLOCK_ELEMENTS
        tol = 4 * np.finfo(float).eps
        for a in (self.intercepts, self.slopes):
            for start in range(0, a.size - 2, chunk):
                x = a[start : start + chunk + 2]
                if np.diff(x, 2).min() < -tol * max(x.max(), -x.min()):
                    return False
        return True


@dataclass(frozen=True)
class CriticalPoint:
    """The nth ground-state crossing: coupling and the pair of levels that meet."""

    n: int
    lambda_c: float
    lower_m: float
    upper_m: float


def analytic_spectrum(m: Multiplet, e_gap: float = 1.0) -> Spectrum:
    """Closed-form eigenlevels: intercept e_gap*M, slope M^2 - J^2.

    The slope equals -(J(J+1) - M^2 - N/2); with J = N/2 the offset
    terms cancel to J^2 - M^2, which also makes the extremal levels'
    slope a clean +0.0 instead of -0.0.
    """
    _check_e_gap(e_gap)
    ms = m.m_values()
    return Spectrum(ms, e_gap * ms, ms * ms - m.j * m.j)


def critical_couplings(m: Multiplet, e_gap: float = 1.0) -> list[CriticalPoint]:
    """All couplings where the ground state switches branch, ascending.

    The nth crossing pairs M = -J+n-1 with M = -J+n at
    lam = e_gap/(N - (2n-1)); enumeration stops once the denominator is
    no longer positive.  Below N = 2 there is no crossing at positive
    coupling and the list is empty.
    """
    _check_e_gap(e_gap)
    points = []
    n_p = m.n_particles
    j = m.j
    n = 1
    while n_p - (2 * n - 1) > 0:
        points.append(
            CriticalPoint(
                n=n,
                lambda_c=e_gap / (n_p - (2 * n - 1)),
                lower_m=-j + (n - 1),
                upper_m=-j + n,
            )
        )
        n += 1
    return points


def _first(pred, lo: int, hi: int) -> int:
    """The first i in [lo, hi) with pred(i), else hi, for pred false then true."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _levels(s: Spectrum, lam: np.ndarray, reach) -> slice:
    """The window of levels a kernel sums over at the one point ``lam``.

    It holds every level whose excitation e - e_min is at most
    ``reach(e_min)``, so a kernel loses only levels it would weigh with
    an exact zero (or, in ``ground_level``, find non-degenerate).  For
    lam >= 0 the energies of a ``Spectrum._convex`` spectrum fall and
    then rise along the level index, so those levels are one run around
    the minimum: bisection finds the minimum and, where the run reaches
    past the floor, its ends, in O(log N) energy evaluations.

    The floor widens the run to at least ``_BLOCK_ELEMENTS`` levels
    centred on the minimum.  It covers the levels within float noise of
    the minimum, where the evaluated energies need not be unimodal, and
    up to N+1 = ``_BLOCK_ELEMENTS`` (the only case where a block can hold
    several points) it makes the window the whole spectrum.  The window
    is the whole spectrum too at a negative or non-finite lam, for a
    spectrum that is not convex and where the minimum overflows.  It is
    a pure function of the spectrum, lam and ``reach``.
    """
    n = s.slopes.size
    if n <= _BLOCK_ELEMENTS:
        return slice(None)
    lam = lam.item()
    if not 0.0 <= lam < math.inf or not s._convex:
        return slice(None)
    slopes, intercepts = s.slopes, s.intercepts

    def energy(i: int) -> float:
        # the kernel's float operations, so the same bits
        return slopes.item(i) * lam + intercepts.item(i)

    low = _first(lambda i: energy(i + 1) >= energy(i), 0, n - 1)
    e_min = energy(low)
    if not math.isfinite(e_min):
        return slice(None)
    bound = reach(e_min)
    start = min(max(low - _BLOCK_ELEMENTS // 2, 0), n - _BLOCK_ELEMENTS)
    stop = start + _BLOCK_ELEMENTS
    if start > 0 and energy(start - 1) - e_min <= bound:
        start = _first(lambda i: energy(i) - e_min <= bound, 0, start - 1)
    if stop < n and energy(stop) - e_min <= bound:
        stop = _first(lambda i: energy(i) - e_min > bound, stop + 1, n)
    return slice(start, stop)


def _excitations(s: Spectrum, lam: np.ndarray, levels: slice = slice(None)):
    """Excitations e - e_min of ``levels`` (on a new last axis) and the ground energy e_min."""
    # in place: at large N each fresh level-sized temporary costs measurably
    d = s.slopes[levels] * lam[..., None]
    d += s.intercepts[levels]
    e_min = np.minimum.reduce(d, axis=-1)
    d -= e_min[..., None]
    return d, e_min


def _degeneracy_tol(e_min):
    return DEGENERACY_RTOL * np.maximum(1.0, np.abs(e_min))


def _ground(s: Spectrum, lam: np.ndarray):
    """Ground energy, mean ground slope and degeneracy at every point of lam."""
    levels = _levels(s, lam, _degeneracy_tol)
    d, e_min = _excitations(s, lam, levels)
    tol = _degeneracy_tol(e_min)
    # a flat index runs point-major, so each point's ground levels form one
    # run in level order; bincount counts them and sums their slopes
    point, level = np.divmod(np.flatnonzero(d <= tol[..., None]), d.shape[-1])
    degeneracy = np.bincount(point, minlength=lam.size).reshape(lam.shape)
    slope_sum = np.bincount(point, s.slopes[levels][level], lam.size).reshape(lam.shape)
    return e_min, slope_sum / degeneracy, degeneracy


def ground_level(s: Spectrum, lam):
    """Ground energy, ground slope d(E0)/d(lam) and degeneracy at each coupling.

    The one zero-temperature kernel, for lam >= 0.  The results take the
    shape of ``lam`` (numpy scalars when it is 0-d).  Levels within a
    relative DEGENERACY_RTOL of the minimum are degenerate, and the slope
    is their equal-weight mean, the infinite-beta limit of the Boltzmann
    occupations.  Levels sit on a new last axis, couplings go in blocks
    of at most ``_BLOCK_ELEMENTS`` elements, and every reduction runs
    along one point's levels, so a point gets the same bits alone or in
    a grid.

    Past N+1 = ``_BLOCK_ELEMENTS`` a point reads only its window of levels
    (``_levels``, reaching the degeneracy tolerance past the minimum, at
    least ``_BLOCK_ELEMENTS`` wide), and the whole spectrum at lam < 0 or
    for a spectrum that is not convex.  The window holds every level the
    tolerance test accepts, so the minimum, that test and the in-order
    slope sum see the same levels as over the whole spectrum: the results
    are bit-identical to the full sum at every N.
    """
    lam = np.asarray(lam, dtype=float)
    rows = max(1, _BLOCK_ELEMENTS // s.slopes.size)
    if lam.size <= rows:
        energy, slope, degeneracy = _ground(s, lam)
    else:
        flat = lam.ravel()
        blocks = [_ground(s, flat[i : i + rows]) for i in range(0, flat.size, rows)]
        energy, slope, degeneracy = (np.concatenate(c).reshape(lam.shape) for c in zip(*blocks))
    return energy[()], slope[()], degeneracy[()]
