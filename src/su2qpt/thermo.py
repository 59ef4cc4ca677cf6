"""Canonical-ensemble engine for affine level spectra.

Every sum of Boltzmann factors is evaluated after shifting by the ground
energy, so all quantities stay finite for inverse temperatures far past
the overflow point of the raw partition function.  Derivative
observables come from exact moment identities of the Gibbs distribution,
never from numerical differencing: at the large beta values of interest
the curves are so flat that finite differences lose every digit.

Infinite beta is never represented as a float.  Zero-temperature
quantities have dedicated analytic operations (``zero_t_c_star_lambda``
here, ``ground_slope`` in the model module), which avoids inf*0
indeterminacy exactly where the interesting limits live.
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
    "observables",
    "zero_t_c_star_lambda",
    "n2_closed_forms",
    "ceq_scaled_residual",
]


@dataclass(frozen=True)
class ThermalObservables:
    """All canonical-ensemble outputs at one (beta, lam) point.

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
    energy_variance : float
        <E^2> - <E>^2, computed from centered moments (always >= 0).
    c_star_beta : float
        d<E>/d(beta) = -energy_variance, never positive.
    c_star_lambda : float
        d<E>/d(lam) at fixed beta, from the exact moment identity
        <e'> - beta*(<e e'> - <e><e'>) with e'_i the level slopes.
    specific_heat : float
        The thermodynamic heat capacity -beta^2 * c_star_beta, >= 0.
    entropy : float
        Gibbs entropy beta*<E> + ln Z, computed in shifted form so it is
        structurally non-negative.
    occupations : numpy.ndarray
        Boltzmann probability of each level, basis order.
    """

    beta: float
    lam: float
    log_z: float
    mean_energy: float
    energy_variance: float
    c_star_beta: float
    c_star_lambda: float
    specific_heat: float
    entropy: float
    occupations: np.ndarray


def _check_beta(beta: float) -> None:
    if beta < 0:
        raise ValueError("beta must be non-negative")


def observables(s: Spectrum, beta: float, lam: float) -> ThermalObservables:
    """Full set of canonical observables at one (beta, lam) point.

    The second moment is centered before squaring, which keeps the
    variance accurate even when it is fifteen orders of magnitude below
    the mean energy.  The entropy is assembled from shifted quantities,
    beta*(<E> - e_min) + ln(shifted Z), an algebraically identical form
    that cannot go negative through cancellation.
    """
    _check_beta(beta)
    # Excitations d_i = e_i - e_min and their Boltzmann weights.  The
    # shift keeps every exponent non-positive, so the weights live in
    # (0, 1] and their sum in [1, dim] no matter how large beta gets.
    e = s.energies(lam)
    e_min = float(e.min())
    d = e - e_min
    w = np.exp(-beta * d)
    w_sum = float(w.sum())
    p = w / w_sum
    p.setflags(write=False)
    log_w_sum = math.log(w_sum)

    delta = float(p @ d)  # mean excitation above the ground level
    mean_energy = e_min + delta
    centered = d - delta
    var = float(p @ (centered * centered))

    slopes = s.slopes
    mean_slope = float(p @ slopes)
    cov = float(p @ (centered * (slopes - mean_slope)))

    return ThermalObservables(
        beta=beta,
        lam=lam,
        log_z=-beta * e_min + log_w_sum,
        mean_energy=mean_energy,
        energy_variance=var,
        c_star_beta=-var,
        c_star_lambda=mean_slope - beta * cov,
        specific_heat=beta * beta * var,
        entropy=beta * delta + log_w_sum,
        occupations=p,
    )


def zero_t_c_star_lambda(s: Spectrum, lam: float) -> float:
    """Infinite-beta limit of d<E>/d(lam): the ground level's slope.

    Right at a crossing this is the equal-weight mean over the
    degenerate pair, matching the limit of the Boltzmann occupations.
    Between crossings it is a constant, so the curve is a staircase
    that steps down at every critical coupling.
    """
    return model.ground_slope(s, lam)


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


def ceq_scaled_residual(xi: float, beta: float) -> float:
    """Scaled residual of the zero-variance condition for the N=2 model.

    The condition <E^2> = <E>^2 for the three-level spectrum {-1, -xi, +1}
    reads, after multiplying through by Z^2,

        [2cosh(b) + e^(b*xi)] [2cosh(b) + xi^2 e^(b*xi)]
            = [2sinh(b) + xi e^(b*xi)]^2.

    The left-minus-right difference expands exactly to

        4 + (xi-1)^2 e^(b(1+xi)) + (xi+1)^2 e^(b(xi-1)),

    a sum of non-negative terms: the variance never truly vanishes at
    finite beta.  Multiplying by e^(-2b*max(1, xi)) makes every exponent
    non-positive, so each term can be evaluated directly with no
    overflow.  For large beta the scaled residual dips toward zero
    precisely at xi = 1, which is how the crossing coupling is located
    from finite-temperature data alone.
    """
    _check_beta(beta)
    if xi < 0:
        raise ValueError("xi must be non-negative")
    m = max(1.0, xi)
    t_const = 4.0 * math.exp(-2.0 * beta * m)
    t_up = (xi - 1.0) ** 2 * math.exp(beta * (1.0 + xi - 2.0 * m))
    t_down = (xi + 1.0) ** 2 * math.exp(beta * (xi - 1.0 - 2.0 * m))
    return t_const + t_up + t_down
