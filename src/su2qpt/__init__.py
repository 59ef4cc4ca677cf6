"""Thermodynamics and quantum phase transitions of an N-body two-level
model with an SU(2) pairing interaction.

The Hamiltonian is diagonal in the collective-spin basis, so every level
is affine in the coupling; the package exploits that to give exact
spectra, a stable canonical-ensemble engine, and three independent ways
of locating the ground-state level crossings.

The package republishes each library module's ``__all__``.  The CLI
front end (``su2qpt.cli``) and the acceptance suite (``su2qpt.validation``,
which loads mpmath) stay in their own modules.
"""

from . import eigensolver, model, spin_algebra, thermo, transitions
from .eigensolver import *  # noqa: F403
from .model import *  # noqa: F403
from .spin_algebra import *  # noqa: F403
from .thermo import *  # noqa: F403
from .transitions import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *eigensolver.__all__,
    *model.__all__,
    *spin_algebra.__all__,
    *thermo.__all__,
    *transitions.__all__,
]
