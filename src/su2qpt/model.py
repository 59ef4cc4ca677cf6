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


def _excitations(s: Spectrum, lam: np.ndarray):
    """Excitations e - e_min (levels on a new last axis) and the ground energy e_min."""
    # in place: at large N each fresh level-sized temporary costs measurably
    d = s.slopes * lam[..., None]
    d += s.intercepts
    e_min = np.minimum.reduce(d, axis=-1)
    d -= e_min[..., None]
    return d, e_min


def _ground(s: Spectrum, lam: np.ndarray):
    """Ground energy, mean ground slope and degeneracy at every point of lam."""
    d, e_min = _excitations(s, lam)
    tol = DEGENERACY_RTOL * np.maximum(1.0, np.abs(e_min))
    # a flat index runs point-major, so each point's ground levels form one
    # run in level order; bincount counts them and sums their slopes
    point, level = np.divmod(np.flatnonzero(d <= tol[..., None]), s.slopes.size)
    degeneracy = np.bincount(point, minlength=lam.size).reshape(lam.shape)
    slope_sum = np.bincount(point, s.slopes[level], lam.size).reshape(lam.shape)
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
