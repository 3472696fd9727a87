"""Doubly periodic lattice fields: the problem constants and the stencil.

A field assigns a complex value to every node (t, k) of the integer lattice
and repeats with period T in time and K in space, so it is stored densely as
a (T, K) complex array, and a stack of fields as a (..., T, K) array.  The
flat ordering used everywhere downstream (matrices, CSV files, realified
vectors) is row-major: node (t, k) sits at flat index t*K + k.

The linear part of the lattice equation is the stencil ``_linear``; the
solver's ``residual_direct`` adds the cubic term and the forcing node by node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PeriodMismatch

__all__ = ["LatticeParams", "sup_norm", "check_period"]


@dataclass(frozen=True)
class LatticeParams:
    """Problem constants: periods (T, K) and coefficients (beta, epsilon, gamma).

    T >= 1 and K >= 2 are the time and space periods; beta > 0 and epsilon > 0
    scale the time difference and the spatial Laplacian; gamma != 0 scales the
    cubic term.  All five are finite; a bool is not a period.
    """

    T: int
    K: int
    beta: float
    epsilon: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("T", "K"):
            value = getattr(self, name)
            try:
                whole = not isinstance(value, bool) and int(value) == value
            except (OverflowError, ValueError):  # int() of inf, nan or a non-numeric string
                whole = False
            if not whole:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("beta", "epsilon", "gamma"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.K < 2:
            raise ValueError(f"K must be >= 2, got {self.K}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")

    @property
    def dim(self) -> int:
        """Number of lattice nodes, T*K."""
        return self.T * self.K


def sup_norm(values) -> float:
    """Largest modulus over all nodes of a field (or of any array)."""
    return float(np.abs(values).max())


def _linear(v: np.ndarray, params: LatticeParams) -> np.ndarray:
    """Linear part of the equation on a (..., T, K) stack of fields: i*beta
    times the centered time difference phi(t+1, k) - phi(t-1, k) plus
    epsilon times the periodic Laplacian phi(t, k+1) - 2 phi(t, k) +
    phi(t, k-1).

    Wrapping makes the time difference vanish identically for T = 1 (both
    neighbours are the node itself) and T = 2 (both neighbours coincide);
    for K = 2 the Laplacian collapses to 2*(phi(t, k+1) - phi(t, k)).  The
    neighbours are gathered by index, with the bits of ``np.roll`` at a
    fraction of its per-call cost on small lattices.
    """
    # indices -1, 0, ..., n modulo n: [:-2] are the previous, [2:] the next
    t = np.arange(-1, params.T + 1) % params.T
    k = np.arange(-1, params.K + 1) % params.K
    tdiff = v.take(t[2:], axis=-2) - v.take(t[:-2], axis=-2)
    lap = v.take(k[2:], axis=-1) - 2.0 * v + v.take(k[:-2], axis=-1)
    return 1j * params.beta * tdiff + params.epsilon * lap


def check_period(T: int, potential) -> None:
    """Raise PeriodMismatch unless the forcing period divides the time period T.

    Only then is a forcing of that period a T-periodic problem; the solver,
    certificate and degree entry points check this before doing any work.
    """
    if T % potential.period != 0:
        raise PeriodMismatch(
            f"forcing period {potential.period} does not divide the lattice time period {T}"
        )
