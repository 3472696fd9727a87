"""Doubly periodic lattice fields and the pointwise operators acting on them.

A field assigns a complex value to every node (t, k) of the integer lattice
and repeats with period T in time and K in space, so it is stored densely as
a T x K array and indexed modulo the periods.  The flat ordering used
everywhere downstream (matrices, CSV files, realified vectors) is row-major:
node (t, k) sits at flat index t*K + k.

The three pointwise operators of the lattice equation live here:

* ``apply_linear``   -- i*beta times the centered time difference plus
  epsilon times the periodic spatial Laplacian,
* ``apply_cubic``    -- the odd cubic nonlinearity -gamma*|phi|^2*phi,
* ``apply_forcing``  -- nodewise application of a forcing family g(t, z).

The equation itself reads  apply_linear(phi) = apply_cubic(phi) + apply_forcing(phi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PeriodMismatch

__all__ = [
    "LatticeParams",
    "LatticeField",
    "sup_norm",
    "central_time_diff",
    "spatial_laplacian",
    "apply_linear",
    "apply_cubic",
    "apply_forcing",
    "check_period",
]


@dataclass(frozen=True)
class LatticeParams:
    """Problem constants: periods (T, K) and coefficients (beta, epsilon, gamma).

    T >= 1 and K >= 2 are the time and space periods; beta > 0 and epsilon > 0
    scale the time difference and the spatial Laplacian; gamma != 0 scales the
    cubic term.
    """

    T: int
    K: int
    beta: float
    epsilon: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("T", "K"):
            value = getattr(self, name)
            if int(value) != value:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("beta", "epsilon", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))
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


class LatticeField:
    """Immutable complex field on the T x K periodic lattice.

    Reads wrap around both periods, so ``at(t + T, k)`` and ``at(t, k + K)``
    return the same value as ``at(t, k)``.  The backing array is read-only;
    arithmetic returns new fields.
    """

    __slots__ = ("_values",)

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=complex, copy=True, order="C")
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"field values must be a nonempty T x K array, got shape {arr.shape}")
        arr.flags.writeable = False
        self._values = arr

    @classmethod
    def zeros(cls, T: int, K: int) -> "LatticeField":
        return cls(np.zeros((T, K), dtype=complex))

    @classmethod
    def from_flat(cls, flat, T: int, K: int) -> "LatticeField":
        """Rebuild a field from its row-major flattening."""
        vec = np.asarray(flat, dtype=complex)
        if vec.shape != (T * K,):
            raise ValueError(f"expected {T * K} flat entries, got shape {vec.shape}")
        return cls(vec.reshape(T, K))

    @property
    def values(self) -> np.ndarray:
        """Read-only (T, K) complex array of node values."""
        return self._values

    @property
    def T(self) -> int:
        return self._values.shape[0]

    @property
    def K(self) -> int:
        return self._values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape

    def at(self, t: int, k: int) -> complex:
        """Value at node (t, k), indices taken modulo the periods."""
        return complex(self._values[t % self.T, k % self.K])

    def flatten(self) -> np.ndarray:
        """Row-major copy of the values, flat index t*K + k."""
        return self._values.ravel().copy()

    def __add__(self, other: "LatticeField") -> "LatticeField":
        return LatticeField(self._values + self._as_array(other))

    def __sub__(self, other: "LatticeField") -> "LatticeField":
        return LatticeField(self._values - self._as_array(other))

    def __neg__(self) -> "LatticeField":
        return LatticeField(-self._values)

    def __mul__(self, scalar) -> "LatticeField":
        return LatticeField(self._values * complex(scalar))

    __rmul__ = __mul__

    def _as_array(self, other: "LatticeField") -> np.ndarray:
        if not isinstance(other, LatticeField):
            raise TypeError(f"expected LatticeField, got {type(other).__name__}")
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return other._values

    def __repr__(self) -> str:
        return f"LatticeField(T={self.T}, K={self.K}, sup={sup_norm(self):.6g})"


def _check_shape(phi: LatticeField, params: LatticeParams) -> None:
    if phi.shape != (params.T, params.K):
        raise ValueError(f"field shape {phi.shape} does not match lattice ({params.T}, {params.K})")


def sup_norm(phi: LatticeField) -> float:
    """Largest modulus over all nodes."""
    return float(np.abs(phi._values).max())


def central_time_diff(phi: LatticeField) -> LatticeField:
    """Centered time difference phi(t+1, k) - phi(t-1, k).

    Wrapping makes this vanish identically for T = 1 (both neighbours are the
    node itself) and T = 2 (both neighbours coincide).
    """
    v = phi._values
    return LatticeField(np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0))


def spatial_laplacian(phi: LatticeField) -> LatticeField:
    """Periodic second difference in k: phi(t, k+1) - 2 phi(t, k) + phi(t, k-1).

    For K = 2 the two neighbours coincide and the stencil collapses to
    2*(phi(t, k+1) - phi(t, k)).
    """
    v = phi._values
    return LatticeField(np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1))


def apply_linear(phi: LatticeField, params: LatticeParams) -> LatticeField:
    """Linear part of the equation: i*beta*(time difference) + epsilon*(Laplacian)."""
    _check_shape(phi, params)
    tdiff = central_time_diff(phi)._values
    lap = spatial_laplacian(phi)._values
    return LatticeField(1j * params.beta * tdiff + params.epsilon * lap)


def apply_cubic(phi: LatticeField, params: LatticeParams) -> LatticeField:
    """Odd cubic term -gamma * |phi|^2 * phi.

    Its sup norm is exactly |gamma| * sup_norm(phi)**3 because modulus and
    cube are both attained at the same node.
    """
    _check_shape(phi, params)
    v = phi._values
    return LatticeField(-params.gamma * (v.real * v.real + v.imag * v.imag) * v)


def check_period(T: int, potential) -> None:
    """Raise PeriodMismatch unless the forcing period divides the time period T.

    Only then is a forcing of that period a T-periodic problem; the solver,
    certificate and degree entry points check this before doing any work.
    """
    if T % potential.period != 0:
        raise PeriodMismatch(
            f"forcing period {potential.period} does not divide the lattice time period {T}"
        )


def apply_forcing(phi: LatticeField, potential) -> LatticeField:
    """Nodewise forcing (t, k) -> g(t, phi(t, k)); see ``check_period``."""
    check_period(phi.T, potential)
    return LatticeField(potential.on_lattice(phi._values))

