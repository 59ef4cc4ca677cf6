"""Exactly solvable N-particle two-level model with a pairing-type coupling.

The Hamiltonian is e_gap*J_z - lam*(J^2 - J_z^2 - N/2).  Both terms are
diagonal in the working basis, so each eigenenergy is affine in the
coupling: intercept e_gap*M, slope M^2 - J^2 (never positive).  Adjacent
levels cross at the couplings e_gap/(N - (2n-1)); at each of those the
ground state switches branch, which is where the zero-temperature
physics turns non-analytic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spin_algebra
from .spin_algebra import Multiplet, OperatorMatrix

__all__ = [
    "ModelParams",
    "Spectrum",
    "CriticalPoint",
    "build_hamiltonian",
    "analytic_spectrum",
    "critical_couplings",
    "ground_state_energy",
    "ground_slope",
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


@dataclass(frozen=True)
class ModelParams:
    """Input bundle for building the Hamiltonian matrix."""

    multiplet: Multiplet
    e_gap: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if not self.e_gap > 0:
            raise ValueError("e_gap must be positive")


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


def build_hamiltonian(p: ModelParams) -> OperatorMatrix:
    """Hamiltonian matrix e_gap*J_z - lam*(J^2 - J_z^2 - (N/2)*I).

    Diagonal in this basis; the diagonal reproduces
    analytic_spectrum(...).energies(lam) bit-exactly because every
    coefficient is a dyadic rational and both paths round only the final
    slope*lam product.
    """
    m = p.multiplet
    jz = spin_algebra.build_jz(m).entries
    j2 = spin_algebra.build_j2(m).entries
    jz_sq = jz @ jz
    half_n = m.n_particles / 2
    h = p.e_gap * jz - p.lam * (j2 - jz_sq - half_n * np.eye(m.dim))
    return OperatorMatrix(h, m.m_values())


def analytic_spectrum(m: Multiplet, e_gap: float = 1.0) -> Spectrum:
    """Closed-form eigenlevels: intercept e_gap*M, slope M^2 - J^2.

    The slope equals -(J(J+1) - M^2 - N/2); with J = N/2 the offset
    terms cancel to J^2 - M^2, which also makes the extremal levels'
    slope a clean +0.0 instead of -0.0.
    """
    if not e_gap > 0:
        raise ValueError("e_gap must be positive")
    ms = m.m_values()
    return Spectrum(ms, e_gap * ms, ms * ms - m.j * m.j)


def critical_couplings(m: Multiplet, e_gap: float = 1.0) -> list[CriticalPoint]:
    """All couplings where the ground state switches branch, ascending.

    The nth crossing pairs M = -J+n-1 with M = -J+n at
    lam = e_gap/(N - (2n-1)); enumeration stops once the denominator is
    no longer positive.  Below N = 2 there is no crossing at positive
    coupling and the list is empty.
    """
    if not e_gap > 0:
        raise ValueError("e_gap must be positive")
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


def _ground_mask(s: Spectrum, lam: float) -> tuple[np.ndarray, float]:
    e = s.energies(lam)
    e_min = float(e.min())
    tol = DEGENERACY_RTOL * max(1.0, abs(e_min))
    return e - e_min <= tol, e_min


def ground_state_energy(s: Spectrum, lam: float) -> tuple[float, list[float]]:
    """Minimum level energy and the M values achieving it.

    Meaningful for lam >= 0 (the model's domain); levels within a
    relative DEGENERACY_RTOL of the minimum count as degenerate.
    """
    e_min, ms, _ = ground_level(s, lam)
    return e_min, ms


def ground_slope(s: Spectrum, lam: float) -> float:
    """d(ground energy)/d(lam); the equal-weight mean over a degenerate set.

    Averaging at a crossing matches the infinite-beta limit of the
    Boltzmann occupations, which split evenly across the crossing pair.
    """
    mask, _ = _ground_mask(s, lam)
    return float(s.slopes[mask].mean())


def ground_level(s: Spectrum, lam: float) -> tuple[float, list[float], float]:
    """Ground energy, the M values achieving it and their mean slope.

    One pass over the levels; the slope equals ``ground_slope(s, lam)``.
    """
    mask, e_min = _ground_mask(s, lam)
    return e_min, [float(x) for x in s.m_values[mask]], float(s.slopes[mask].mean())
