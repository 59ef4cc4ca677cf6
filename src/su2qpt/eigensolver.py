"""Cyclic Jacobi eigenvalue solver for small real symmetric matrices.

Serves as an independent check on the model's closed-form spectrum.  The
matrices here are (N+1)-dimensional, so a textbook sweep method is
plenty, converges quadratically, and calls no LAPACK.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["EigenResult", "NonConvergenceError", "jacobi_eigenvalues"]

# Full cyclic sweeps allowed before giving up; the model's matrices take 4 to 6.
_MAX_SWEEPS = 30


@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray  # ascending
    sweeps_used: int
    off_norm: float


class NonConvergenceError(RuntimeError):
    """Sweep budget exhausted before the off-diagonal norm met its tolerance.

    The best result reached so far is attached as ``partial``.
    """

    def __init__(self, message: str, partial: EigenResult):
        super().__init__(message)
        self.partial = partial


def jacobi_eigenvalues(a) -> EigenResult:
    """Eigenvalues of a real symmetric matrix by cyclic-by-rows rotations.

    Sweeps run until the off-diagonal Frobenius norm is at most 1e-12
    times the Frobenius norm of the input, for at most 30 sweeps.

    Parameters
    ----------
    a : array_like
        Square matrix, symmetric to within 1e-12 (relative to its
        largest entry).  A private copy is worked on.

    Returns
    -------
    EigenResult
        Ascending eigenvalues, sweeps used, and the final off-norm.

    Raises
    ------
    ValueError
        If the input is not square or not symmetric.
    NonConvergenceError
        If the off-norm is still above the tolerance after 30 sweeps;
        carries the partial result.
    """
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("need a square matrix")
    scale = float(np.abs(mat).max()) if mat.size else 0.0
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * max(1.0, scale)):
        raise ValueError("matrix is not symmetric to 1e-12; Jacobi rotations need symmetry")

    w = 0.5 * (mat + mat.T)  # the private copy; folds sub-tolerance asymmetry away
    tol = 1e-12 * float(np.linalg.norm(w))
    for sweeps in itertools.count():
        off = float(np.linalg.norm(w - np.diag(np.diag(w))))
        result = EigenResult(values=np.sort(np.diag(w)), sweeps_used=sweeps, off_norm=off)
        if off <= tol:
            return result
        if sweeps >= _MAX_SWEEPS:
            msg = f"off-norm {off:.3e} above tol {tol:.3e} after {sweeps} sweeps"
            raise NonConvergenceError(msg, result)
        for p, q in itertools.combinations(range(len(w)), 2):
            apq = w[p, q]
            if apq == 0.0:
                continue
            # stable rotation tangent; the sign choice keeps the
            # angle small, and huge theta short-circuits overflow
            theta = (w[q, q] - w[p, p]) / (2.0 * apq)
            if abs(theta) > 1e150:
                t = 1.0 / (2.0 * theta)
            else:
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            w[:, p], w[:, q] = c * w[:, p] - s * w[:, q], s * w[:, p] + c * w[:, q]
            w[p, :], w[q, :] = c * w[p, :] - s * w[q, :], s * w[p, :] + c * w[q, :]
            # the angle was chosen to annihilate this pair exactly
            w[p, q] = w[q, p] = 0.0
