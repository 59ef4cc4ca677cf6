"""Canonical-ensemble engine for affine level spectra.

Every sum of Boltzmann factors is evaluated after shifting by the ground
energy, so all quantities stay finite for inverse temperatures far past
the overflow point of the raw partition function.  Derivative
observables come from exact moment identities of the Gibbs distribution,
never from numerical differencing: at the large beta values of interest
the curves are so flat that finite differences lose every digit.

Infinite beta is never represented as a float.  Zero-temperature
quantities come from the model module's ground-level kernel
(``model.ground_level``), which avoids inf*0 indeterminacy exactly where
the interesting limits live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import model
from .model import Spectrum

__all__ = [
    "ThermalObservables",
    "N2ClosedForms",
    "COLUMNS",
    "observables",
    "observables_grid",
    "n2_closed_forms",
    "ceq_scaled_residual",
]


@dataclass(frozen=True)
class ThermalObservables:
    """All canonical-ensemble outputs at one (beta, lam) point.

    The fields are a row of ``observables_grid``, under the names and in
    the order of ``COLUMNS`` (``lam`` for ``lambda``), then the occupations.

    Attributes
    ----------
    beta : float
        Inverse temperature, >= 0.
    lam : float
        Coupling constant.
    log_z : float
        Log partition function ln Tr exp(-beta*H).
    mean_energy : float
        Ensemble average <E>.
    entropy : float
        Gibbs entropy beta*<E> + ln Z, computed in shifted form so it is
        structurally non-negative.
    c_star_beta : float
        d<E>/d(beta) = -(<E^2> - <E>^2), the energy variance from centered
        moments, negated; never positive.
    c_star_lambda : float
        d<E>/d(lam) at fixed beta, from the exact moment identity
        <e'> - beta*(<e e'> - <e><e'>) with e'_i the level slopes.
    specific_heat : float
        The thermodynamic heat capacity -beta^2 * c_star_beta, >= 0.
    occupations : numpy.ndarray
        Boltzmann probability of each level, basis order; exactly 0
        outside the levels the kernel summed.
    """

    beta: float
    lam: float
    log_z: float
    mean_energy: float
    entropy: float
    c_star_beta: float
    c_star_lambda: float
    specific_heat: float
    occupations: np.ndarray


# Past this beta*(e - e_min) a Boltzmann weight exp(-beta*(e - e_min)) is
# an exact zero: exp underflows to 0 beyond 1075*ln(2) = 745.13.
_UNDERFLOW = 746.0


def _check_beta(beta) -> None:
    # a scalar or an array of them
    if not np.all((0 <= beta) & (beta < math.inf)):
        raise ValueError("beta must be non-negative and finite")


# The columns of ``observables_grid``, in the order of the ``sweep`` CSV.
COLUMNS = (
    "beta",
    "lambda",
    "log_z",
    "mean_energy",
    "entropy",
    "c_star_beta",
    "c_star_lambda",
    "specific_heat",
)


def _kernel(s: Spectrum, beta: np.ndarray, lam: np.ndarray):
    """The six computed columns of ``COLUMNS``, the occupations and their levels.

    The one thermodynamic kernel.  ``lam`` may have any shape and is read
    flat, in the blocks of ``model._blocks``; for each block this yields
    ``(points, columns, p, levels)``.  ``beta`` is each point's inverse
    temperature, of the shape of ``lam`` and read flat with it.  The
    levels sit on a new last axis and every reduction runs along it, one
    point at a time, and a block reads its points' beta as a column whose
    every element goes through the operations a scalar beta would: a
    point gets the same bits whether it comes alone or inside a block,
    beside points of any beta.

    Past N+1 = 4096, where a block is one point, it sums only that
    point's window of levels: those with its own beta*(e - e_min) up to
    ``_UNDERFLOW``, whose Boltzmann weight is not an exact zero, widened
    to at least 4096 levels.  The occupations are then those of the
    window's levels, ``levels``.  The levels left out would add exact
    zeros, so the columns differ from the full sum only by the grouping
    of the sums, within 8 ulp.  At beta = 0, at lam < 0 and for a
    spectrum that is not convex the window is every level, and below the
    floor it always is: there the bits are the full sum's.

    The second moment is centered before squaring, which keeps the
    variance accurate even when it is fifteen orders of magnitude below
    the mean energy.  The entropy is assembled from shifted quantities,
    beta*(<E> - e_min) + ln(shifted Z), an algebraically identical form
    that cannot go negative through cancellation.
    """
    beta = beta.reshape(-1)  # a broadcast beta stays a view, where ravel copies it

    def reach(point: int, e_min) -> float:
        # every weight is positive at beta = 0, so every level is in reach
        b = beta.item(point)
        return _UNDERFLOW / b if b > 0 else math.inf

    # Excitations d_i = e_i - e_min and their Boltzmann weights.  The
    # shift keeps every exponent non-positive, so the weights live in
    # (0, 1] and their sum in [1, dim] no matter how large beta gets.
    # Level-sized arrays are updated in place wherever a value is not
    # read again: at large N each fresh temporary costs measurably.
    for points, levels, d, e_min in model._blocks(s, lam, reach):
        b = beta[points]
        w = -b[:, None] * d
        np.exp(w, out=w)
        w_sum = np.add.reduce(w, axis=-1)
        # ln(shifted Z) = log1p(w_sum - 1), with w_sum - 1 formed as the
        # weights of exactly 1 beyond the first (the rest of a degenerate
        # ground level, or every level at beta = 0) plus the excited
        # weights, those below 1, summed apart: w_sum - 1 itself would lose
        # the digits that make up a small entropy.  w_sum - w_excited is
        # the count of ones to within a few ulp, so rint recovers it exactly.
        w_excited = np.vecdot(w, w < 1.0)
        log_w_sum = np.log1p(np.rint(w_sum - w_excited) - 1.0 + w_excited)
        p = w
        p /= w_sum[..., None]

        delta = np.vecdot(p, d)  # mean excitation above the ground level
        centered = np.subtract(d, delta[..., None], out=d)
        slopes = s.slopes[levels]
        mean_slope = np.vecdot(p, slopes)
        product = slopes - mean_slope[..., None]
        product *= centered
        cov = np.vecdot(p, product)
        centered *= centered
        var = np.vecdot(p, centered)

        columns = (
            -b * e_min + log_w_sum,  # log_z
            e_min + delta,  # mean_energy
            b * delta + log_w_sum,  # entropy
            -var,  # c_star_beta
            mean_slope - b * cov,  # c_star_lambda
            b * b * var,  # specific_heat
        )
        yield points, columns, p, levels
        # free the block's level-sized arrays before the next block is built
        del d, centered, w, p, product


def observables_grid(s: Spectrum, beta, lams) -> np.ndarray:
    """The ``COLUMNS`` of every point (beta, lam) for lam in ``lams``.

    ``beta`` is one inverse temperature for every point, or one per
    coupling: an array the length of ``lams``.  Returns a (len(lams), 8)
    float array, one row per coupling, whose ``beta`` column holds each
    point's beta.  Each row equals, bit for bit, the same fields of
    ``observables(s, b, lam)`` at its own beta b: both evaluate one
    kernel, here on blocks of points.
    """
    beta = np.asarray(beta, dtype=float)
    _check_beta(beta)
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1:
        raise ValueError("lams must be one-dimensional")
    if beta.ndim and beta.shape != lams.shape:
        raise ValueError("beta must be a scalar or one value per coupling")
    beta = np.broadcast_to(beta, lams.shape)
    out = np.empty((lams.size, len(COLUMNS)))
    out[:, 0] = beta
    out[:, 1] = lams
    for points, columns, p, _ in _kernel(s, beta, lams):
        # the occupations are dropped at once: at large N they are the size
        # of every other temporary of the block
        del p
        for k, column in enumerate(columns, start=2):
            out[points, k] = column
    return out


def observables(s: Spectrum, beta: float, lam: float) -> ThermalObservables:
    """Full set of canonical observables at one (beta, lam) point.

    The one-point case of the kernel behind ``observables_grid``, which
    takes many couplings.

    Raises
    ------
    ValueError
        When beta or lam is not a scalar, or beta is negative or not finite.
    """
    beta, lam = np.asarray(beta, dtype=float), np.asarray(lam, dtype=float)
    if beta.ndim or lam.ndim:
        raise ValueError("observables takes one (beta, lam) point; use observables_grid for many")
    _check_beta(beta)
    [(_, columns, p_levels, levels)] = _kernel(s, beta, lam)
    p = np.zeros(s.slopes.size)
    p[levels] = p_levels[0]
    p.setflags(write=False)
    return ThermalObservables(beta.item(), lam.item(), *(c.item() for c in columns), p)


class N2ClosedForms(NamedTuple):
    z: float
    dz_dbeta: float
    mean_e: float
    g_xi: float


def n2_closed_forms(xi: float, beta: float) -> N2ClosedForms:
    """Closed forms for the two-particle spectrum {-1, -xi, +1}.

    Returns the partition function, its beta derivative, the mean energy
    and g_xi = d<E>/d(xi).  Everything is evaluated literally in the
    linear domain, so the admissible range is beta*max(1, xi) <= 700;
    past that the factors themselves overflow and the log-domain generic
    path (``observables`` on the N=2 spectrum) must be used instead.

    Raises
    ------
    OverflowError
        When beta*max(1, xi) exceeds 700.
    """
    _check_beta(beta)
    if beta * max(1.0, xi) > 700.0:
        raise OverflowError(
            "beta*max(1, xi) too large for the linear-domain closed forms; "
            "use observables() on the N=2 spectrum instead"
        )
    eb = math.exp(beta)
    emb = math.exp(-beta)
    ex = math.exp(beta * xi)
    z = emb + ex + eb
    dz_dbeta = eb + xi * ex - emb
    mean_e = (-eb - xi * ex + emb) / z
    # quotient rule on mean_e; dz/dxi = beta*ex
    g_xi = (-(1.0 + beta * xi) * ex - mean_e * beta * ex) / z
    return N2ClosedForms(z=z, dz_dbeta=dz_dbeta, mean_e=mean_e, g_xi=g_xi)


def ceq_scaled_residual(xi, beta: float):
    """Scaled residual of the zero-variance condition for the N=2 model, at each xi.

    The condition <E^2> = <E>^2 for the three-level spectrum {-1, -xi, +1}
    reads, after multiplying through by Z^2,

        [2cosh(b) + e^(b*xi)] [2cosh(b) + xi^2 e^(b*xi)]
            = [2sinh(b) + xi e^(b*xi)]^2.

    The left-minus-right difference expands exactly to

        4 + (xi-1)^2 e^(b(1+xi)) + (xi+1)^2 e^(b(xi-1)),

    a sum of non-negative terms: the variance never truly vanishes at
    finite beta.  Multiplying by e^(-2b*max(1, xi)) makes every exponent
    non-positive, so no exponential overflows; only (xi +- 1)^2 can, past
    xi ~ 1.3e154, and that raises an OverflowError naming the first such
    xi.  For large beta the scaled residual dips toward zero precisely at
    xi = 1, which is how the crossing coupling is located from
    finite-temperature data alone.  The result takes the shape of ``xi``
    (a numpy scalar when it is 0-d).
    """
    _check_beta(beta)
    xi = np.asarray(xi, dtype=float)
    if not np.all(xi >= 0):
        raise ValueError("xi must be non-negative")
    m = np.maximum(1.0, xi)
    # an exponent past the float range is -inf, whose exp is the exact 0 it stands for
    with np.errstate(over="ignore"):
        sq_up, sq_down = np.square(xi - 1.0), np.square(xi + 1.0)
        if (over := np.isinf(sq_down)).any():
            raise OverflowError(f"the scaled residual overflows at xi = {xi[over][0].item()!r}")
        t_const = 4.0 * np.exp(-2.0 * beta * m)
        t_up = sq_up * np.exp(beta * (1.0 + xi - 2.0 * m))
        t_down = sq_down * np.exp(beta * (xi - 1.0 - 2.0 * m))
        return (t_const + t_up + t_down)[()]
