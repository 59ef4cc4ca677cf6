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
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spin_algebra import Multiplet

__all__ = [
    "DEGENERACY_RTOL",
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

# Level x point elements per block of ``_blocks``, the one place that
# blocks and windows the sums of both kernels (``ground_level`` and
# ``thermo._kernel``).  A block's temporaries then stay a few tens of kB
# whatever the grid length; at large N a block is one point.  It is also
# the floor on a point's window of levels (``_levels``): up to
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
    lam = e_gap/(N - (2n-1)), for n = 1 .. N // 2, the n whose
    denominator is positive.  Below N = 2 there is no crossing at positive
    coupling and the list is empty.
    """
    _check_e_gap(e_gap)
    n_p, j = m.n_particles, m.j
    return [
        CriticalPoint(
            n=n,
            lambda_c=e_gap / (n_p - (2 * n - 1)),
            lower_m=-j + (n - 1),
            upper_m=-j + n,
        )
        for n in range(1, n_p // 2 + 1)
    ]


def _levels(s: Spectrum, lam: float, reach) -> slice:
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
    the minimum, where the evaluated energies need not be unimodal; it
    needs N+1 > ``_BLOCK_ELEMENTS``, the only spectra ``_blocks`` windows.
    The window is the whole spectrum at a negative or non-finite lam, for
    a spectrum that is not convex and where the minimum overflows.  It is
    a pure function of the spectrum, lam and ``reach``.
    """
    if not 0.0 <= lam < math.inf or not s._convex:
        return slice(None)
    n = s.slopes.size
    slopes, intercepts = s.slopes, s.intercepts

    def energy(i: int) -> float:
        # the kernel's float operations, so the same bits
        return slopes.item(i) * lam + intercepts.item(i)

    # bisect_left over the indices finds the first i in [lo, hi) whose key
    # turns true (else hi), for a key that is false and then true
    low = bisect_left(range(n), True, 0, n - 1, key=lambda i: energy(i + 1) >= energy(i))
    e_min = energy(low)
    if not math.isfinite(e_min):
        return slice(None)
    bound = reach(e_min)
    start = min(max(low - _BLOCK_ELEMENTS // 2, 0), n - _BLOCK_ELEMENTS)
    stop = start + _BLOCK_ELEMENTS
    if start > 0 and energy(start - 1) - e_min <= bound:
        start = bisect_left(range(n), True, 0, start - 1, key=lambda i: energy(i) - e_min <= bound)
    if stop < n and energy(stop) - e_min <= bound:
        stop = bisect_left(range(n), True, stop + 1, n, key=lambda i: energy(i) - e_min > bound)
    return slice(start, stop)


def _excitations(s: Spectrum, lam: np.ndarray, levels: slice):
    """Excitations e - e_min of ``levels`` (on a new last axis) and the ground energy e_min."""
    # in place: at large N each fresh level-sized temporary costs measurably
    d = s.slopes[levels] * lam[..., None]
    d += s.intercepts[levels]
    e_min = np.minimum.reduce(d, axis=-1)
    d -= e_min[..., None]
    return d, e_min


def _blocks(s: Spectrum, lam: np.ndarray, reach):
    """The one evaluation driver: how every kernel blocks and windows its sums.

    Reads ``lam`` flat and yields ``(points, levels, d, e_min)`` for each
    block of at most ``_BLOCK_ELEMENTS`` level x point elements: the
    block's slice of ``lam.ravel()``, the slice of levels it sums over,
    their excitations (``_excitations``) and the block's ground energies.
    Up to N+1 = ``_BLOCK_ELEMENTS`` a block sums every level; past it a
    block is one point, summed over that point's window (``_levels``,
    with ``reach``), so no block mixes windows.
    """
    n = s.slopes.size
    rows = max(1, _BLOCK_ELEMENTS // n)
    flat = lam.ravel()
    for start in range(0, flat.size, rows):
        block = flat[start : start + rows]
        levels = slice(None) if n <= _BLOCK_ELEMENTS else _levels(s, block.item(), reach)
        yield (slice(start, start + rows), levels, *_excitations(s, block, levels))


def _degeneracy_tol(e_min):
    return DEGENERACY_RTOL * np.maximum(1.0, np.abs(e_min))


def _ties(s: Spectrum, lam: np.ndarray):
    """The levels tied for ground at every point of ``lam``, block by block.

    Tied means within a relative DEGENERACY_RTOL of the minimum.  Yields
    ``(points, e_min, point, level)`` per block of ``_blocks``: ``point``
    indexes the block and ``level`` the spectrum.  A flat index runs
    point-major, so each point's tied levels form one run in level order.
    """
    for points, levels, d, e_min in _blocks(s, lam, _degeneracy_tol):
        start, stop, _ = levels.indices(s.slopes.size)
        tied = np.flatnonzero(d <= _degeneracy_tol(e_min)[..., None])
        del d  # free the block's excitations before the next block is built
        point, level = np.divmod(tied, stop - start)
        yield points, e_min, point, level + start


def ground_level(s: Spectrum, lam):
    """Ground energy, ground slope d(E0)/d(lam) and degeneracy at each coupling.

    The one zero-temperature kernel, for lam >= 0.  The results take the
    shape of ``lam`` (numpy scalars when it is 0-d).  Levels within a
    relative DEGENERACY_RTOL of the minimum are degenerate, and the slope
    is their equal-weight mean, the infinite-beta limit of the Boltzmann
    occupations.  Couplings go through ``_blocks`` and every reduction
    runs along one point's levels, so a point gets the same bits alone or
    in a grid.

    Past N+1 = ``_BLOCK_ELEMENTS`` a point reads only its window of levels
    (``_levels``, reaching the degeneracy tolerance past the minimum, at
    least ``_BLOCK_ELEMENTS`` wide), and the whole spectrum at lam < 0 or
    for a spectrum that is not convex.  The window holds every level the
    tolerance test accepts, so the minimum, that test and the in-order
    slope sum see the same levels as over the whole spectrum: the results
    are bit-identical to the full sum at every N.
    """
    lam = np.asarray(lam, dtype=float)
    energy, slope = np.empty(lam.size), np.empty(lam.size)
    degeneracy = np.empty(lam.size, dtype=np.intp)
    for points, e_min, point, level in _ties(s, lam):
        # bincount counts each point's tied levels and sums their slopes in level order
        energy[points] = e_min
        degeneracy[points] = np.bincount(point, minlength=e_min.size)
        slope[points] = np.bincount(point, s.slopes[level], e_min.size) / degeneracy[points]
    return tuple(a.reshape(lam.shape)[()] for a in (energy, slope, degeneracy))
