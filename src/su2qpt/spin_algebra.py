"""Angular momentum operators on a single maximal-spin multiplet.

All matrices act in the ordered eigenbasis of the z component, quantum
number M running from -J up to +J, with J = N/2 for N two-level
particles.  J_z and the Casimir J^2 are diagonal there (``m_values`` and
``casimir`` give them); the one matrix provided is the ladder operator
J_+, from which J_x = (J_+ + J_+^T)/2 follows.  The model never needs it:
its Hamiltonian is diagonal, and only the acceptance suite builds a
non-diagonal form of it, with the quantisation axis turned to x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Multiplet", "raising"]


@dataclass(frozen=True)
class Multiplet:
    """Representation context: N particles in the symmetric sector J = N/2.

    Parameters
    ----------
    n_particles : int
        Number of two-level particles, at least 1.  The dimension of the
        multiplet is N + 1 and the Casimir eigenvalue is N(N+2)/4, both
        exact in floating point.
    """

    n_particles: int

    def __post_init__(self):
        n = self.n_particles
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError("n_particles must be an integer")
        if n < 1:
            raise ValueError("n_particles must be at least 1")
        object.__setattr__(self, "n_particles", int(n))

    @property
    def j(self) -> float:
        """Total spin J = N/2, a half-integer."""
        return self.n_particles / 2

    @property
    def dim(self) -> int:
        """Matrix dimension 2J + 1 = N + 1."""
        return self.n_particles + 1

    @property
    def casimir(self) -> float:
        """J(J+1) = N(N+2)/4."""
        return self.n_particles * (self.n_particles + 2) / 4

    def m_values(self) -> np.ndarray:
        """J_z quantum numbers in basis order, -J first."""
        return -self.j + np.arange(self.dim)


def raising(m: Multiplet) -> np.ndarray:
    """J_+ in the ascending-M basis: amplitude sqrt(J(J+1) - M(M+1)) one
    place below the diagonal, the position [J_z, J_+] = +J_+ pins."""
    below = m.m_values()[:-1]
    return np.diag(np.sqrt(m.casimir - below * (below + 1.0)), k=-1)
