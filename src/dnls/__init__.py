"""Periodic discrete nonlinear Schrodinger lattice toolkit.

Numerical companion to a degree-theoretic existence argument for
(T, K)-periodic solutions of the cubic lattice equation with forcing:
certificate constants, boundary sampling of the homotopy inequality,
Newton and homotopy solvers, steady states, and small-instance Brouwer
degree estimates.

The package exports exactly the names in each module's ``__all__``.
"""

from . import certificate, degree, errors, lattice, operators, potentials, solver
from .certificate import *  # noqa: F403
from .degree import *  # noqa: F403
from .errors import *  # noqa: F403
from .lattice import *  # noqa: F403
from .operators import *  # noqa: F403
from .potentials import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (certificate, degree, errors, lattice, operators, potentials, solver)
    for name in module.__all__
]
