"""Angular momentum operators on a single maximal-spin multiplet.

All matrices act in the ordered eigenbasis of the z component, quantum
number M running from -J up to +J, with J = N/2 for N two-level
particles.  Only the two operators the Hamiltonian is built from are
provided, J_z and the Casimir J^2; both are diagonal in this basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Multiplet",
    "OperatorMatrix",
    "build_jz",
    "build_j2",
]


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


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense real operator together with its basis labels (ascending M).

    The entries are copied and frozen on construction so instances can be
    shared across concurrent callers.
    """

    entries: np.ndarray
    m_values: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        m = np.array(self.m_values, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must form a square matrix")
        if m.shape != (e.shape[0],):
            raise ValueError("basis labels must match the matrix dimension")
        e.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "m_values", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_symmetric(self) -> bool:
        """Bit-exact symmetry check, no tolerance."""
        return bool(np.array_equal(self.entries, self.entries.T))


def build_jz(m: Multiplet) -> OperatorMatrix:
    """Diagonal z component, entries -J, -J+1, ..., +J."""
    ms = m.m_values()
    return OperatorMatrix(np.diag(ms), ms)


def build_j2(m: Multiplet) -> OperatorMatrix:
    """Quadratic Casimir J(J+1) times the identity."""
    return OperatorMatrix(m.casimir * np.eye(m.dim), m.m_values())
