"""Cyclic Jacobi eigenvalue solver for small real symmetric matrices.

Serves as an independent check on the model's closed-form spectrum.  The
matrices here are (N+1)-dimensional, so a textbook sweep method is
plenty, converges quadratically, and pulls in no dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["EigenResult", "NonConvergenceError", "jacobi_eigenvalues"]


@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray  # ascending
    sweeps_used: int
    off_norm: float


class NonConvergenceError(RuntimeError):
    """Sweep budget exhausted before the off-diagonal norm met tol.

    The best result reached so far is attached as ``partial``.
    """

    def __init__(self, message: str, partial: EigenResult):
        super().__init__(message)
        self.partial = partial


def _off_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def jacobi_eigenvalues(a, tol: float | None = None, max_sweeps: int = 30) -> EigenResult:
    """Eigenvalues of a real symmetric matrix by cyclic-by-rows rotations.

    Parameters
    ----------
    a : array_like
        Square matrix, symmetric to within 1e-12 (relative to its
        largest entry).  A private copy is worked on.
    tol : float, optional
        Absolute bound on the final off-diagonal Frobenius norm.
        Defaults to 1e-12 times the Frobenius norm of the input.
    max_sweeps : int
        Full cyclic sweeps allowed before giving up.

    Returns
    -------
    EigenResult
        Ascending eigenvalues, sweeps used, and the final off-norm.

    Raises
    ------
    ValueError
        If the input is not square or not symmetric.
    NonConvergenceError
        If the off-norm is still above tol after max_sweeps; carries the
        partial result.
    """
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("need a square matrix")
    scale = float(np.abs(mat).max()) if mat.size else 0.0
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * max(1.0, scale)):
        raise ValueError("matrix is not symmetric to 1e-12; Jacobi rotations need symmetry")
    if tol is not None and not tol > 0.0:
        raise ValueError("tol must be positive")

    w = np.array(mat, dtype=float)
    w = 0.5 * (w + w.T)  # fold sub-tolerance asymmetry away
    d = w.shape[0]
    if tol is None:
        tol = 1e-12 * float(np.linalg.norm(w))

    sweeps = 0
    while True:
        off = _off_norm(w)
        if off <= tol:
            return EigenResult(values=np.sort(np.diag(w)), sweeps_used=sweeps, off_norm=off)
        if sweeps >= max_sweeps:
            partial = EigenResult(values=np.sort(np.diag(w)), sweeps_used=sweeps, off_norm=off)
            raise NonConvergenceError(
                f"off-norm {off:.3e} above tol {tol:.3e} after {sweeps} sweeps", partial
            )
        for p in range(d - 1):
            for q in range(p + 1, d):
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
                col_p = c * w[:, p] - s * w[:, q]
                col_q = s * w[:, p] + c * w[:, q]
                w[:, p] = col_p
                w[:, q] = col_q
                row_p = c * w[p, :] - s * w[q, :]
                row_q = s * w[p, :] + c * w[q, :]
                w[p, :] = row_p
                w[q, :] = row_q
                # the angle was chosen to annihilate this pair exactly
                w[p, q] = 0.0
                w[q, p] = 0.0
        sweeps += 1
