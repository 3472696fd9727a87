"""Forcing families g(t, z) for the lattice equation.

Each family packages the map itself together with the metadata that the
certificate and solver consume:

* ``period``             -- periodicity in t,
* ``evaluate``           -- (t, z) -> g(t, z), elementwise; ``t`` is an int or
  an integer array that broadcasts against the complex array ``z``, and the
  coefficient at ``t`` is the one at ``t % period``,
* ``derivative``         -- realified Jacobian of z = x + i*y -> g(t, z) with
  the same broadcasting, as blocks of shape ``z.shape + (2, 2)`` (the
  broadcast shape of t and z, if t adds axes): rows (Re g, Im g), columns
  (d/dx, d/dy),
* ``threshold_formula``  -- closed form mapping the certificate's
  cubic-threshold coefficient to a radius beyond which |g(t, z)| <= coef*|z|^3;
  raises NoThresholdFound when no radius exists,
* ``sup_formula``        -- closed form for sup |g| over a disk,
* ``phase_equivariant``  -- whether g(t, e^{ia} z) = e^{ia} g(t, z) for
  every real a, so that every tau-slice commutes with a global phase
  rotation (the degree count of the origin rests on it).

Every field is required, so a family always carries its Jacobian, the
two certificate bounds and its symmetry.

``Potential.on_lattice`` applies g at every node of a (..., T, K) stack of
fields in one call, so no caller loops over time slices or nodes.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyCoefficients, InvalidExponent, NoThresholdFound

__all__ = [
    "Potential",
    "power_law",
    "bounded_potential",
    "zero_potential",
    "constant_potential",
]

@dataclass(frozen=True)
class Potential:
    """One forcing family; see the module docstring for field semantics."""

    period: int
    evaluate: Callable[[int | np.ndarray, np.ndarray], np.ndarray]
    kind: str
    derivative: Callable[[int | np.ndarray, np.ndarray], np.ndarray]
    threshold_formula: Callable[[float], float]
    sup_formula: Callable[[float], float]
    coefficients: tuple[complex, ...]
    phase_equivariant: bool

    def on_lattice(self, values) -> np.ndarray:
        """g(t, phi(t, k)) at every node of a (..., T, K) stack of fields."""
        v = np.asarray(values, dtype=complex)
        return np.asarray(self.evaluate(np.arange(v.shape[-2])[:, None], v), dtype=complex)


def _coefficients(f) -> tuple[tuple[complex, ...], Callable, float]:
    """Set-up of a coefficient family: the coefficients of f, one per time of
    the period; the lookup t -> f(t mod period), elementwise over an integer
    array of times; and max|f|."""
    coeffs = tuple(complex(c) for c in np.atleast_1d(np.asarray(f, dtype=complex)))
    if len(coeffs) == 0:
        raise EmptyCoefficients("coefficient list must contain at least one entry")
    table = np.asarray(coeffs)
    return coeffs, lambda t: table[np.asarray(t) % len(table)], max(abs(c) for c in coeffs)


def _coefficient_family(
    coeffs: tuple[complex, ...], kind: str, evaluate, derivative, formulas,
    phase_equivariant: bool,
) -> Potential:
    """The family with the given coefficients, one per time of the period,
    and its (threshold_formula, sup_formula) pair."""
    threshold_formula, sup_formula = formulas
    return Potential(
        period=len(coeffs),
        evaluate=evaluate,
        kind=kind,
        derivative=derivative,
        threshold_formula=threshold_formula,
        sup_formula=sup_formula,
        coefficients=coeffs,
        phase_equivariant=phase_equivariant,
    )


def _power_formulas(fmax: float, r: float):
    """Closed forms for a forcing of modulus |f(t)| * |z|^r with max|f| = fmax:
    the radius beyond which |g| <= coef*|z|^3, and sup |g| over a disk.

    For r = 3 the bound holds at every radius when fmax < coef (the strict
    form is the one taken), so the radius is 0, and for r > 3 with f != 0 it
    fails on every large enough circle; without a radius NoThresholdFound
    is raised."""

    def threshold_formula(coef: float) -> float:
        if fmax == 0.0:
            return 1.0
        if r < 3.0:
            return float((fmax / coef) ** (1.0 / (3.0 - r)))
        if r == 3.0 and fmax < coef:
            return 0.0
        raise NoThresholdFound(
            f"|g| = |f(t)| |z|^{r:g} with max|f| = {fmax:.6g} never stays below "
            f"{coef:.6g} |z|^3 beyond any radius; the forcing is not subcubic"
        )

    def sup_formula(radius: float) -> float:
        return float(fmax * radius**r)

    return threshold_formula, sup_formula


def _blocks(a, b, c, d) -> np.ndarray:
    """Real 2x2 blocks [[a, b], [c, d]], stacked over the entries' common shape."""
    out = np.empty(np.shape(a) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _rotation(c) -> np.ndarray:
    # multiplication by the complex scalars c, as real 2x2 blocks
    c = np.asarray(c)
    return _blocks(c.real, -c.imag, c.imag, c.real)


def power_law(f, r: float) -> Potential:
    """Family g(t, z) = f(t) * |z|^(r-1) * z with exponent r > 0.

    The modulus is |f(t)| * |z|^r and the map is phase-equivariant, odd and
    continuous in z, including at z = 0.  Exponents r <= 0 are rejected
    with InvalidExponent, since they would make the map discontinuous at
    the origin.  The
    certificate's growth hypothesis holds for every r < 3, for r = 3 when
    max|f| < coef, and for r > 3 only when f = 0; otherwise
    ``threshold_formula`` raises NoThresholdFound.
    """
    coeffs, coeff, fmax = _coefficients(f)  # an empty f raises before the exponent is checked
    if not float(r) > 0.0:
        raise InvalidExponent(f"growth exponent must be positive, got {r}")
    r = float(r)

    def evaluate(t, z):
        zz = np.asarray(z, dtype=complex)
        az = np.abs(zz)
        mag = np.zeros_like(az)
        nz = az > 0.0
        mag[nz] = az[nz] ** (r - 1.0)
        return coeff(t) * mag * zz

    def derivative(t, z) -> np.ndarray:
        zz = np.asarray(z, dtype=complex)
        x, y = zz.real, zz.imag
        rho2 = x * x + y * y
        origin = rho2 == 0.0
        # an array even for scalar z, so that ** takes the same path either way
        rho = np.asarray(np.sqrt(np.where(origin, 1.0, rho2)))
        scale = (rho ** (r - 1.0))[..., None, None]
        quad = ((r - 1.0) * rho ** (r - 3.0))[..., None, None]
        inner = scale * np.eye(2) + quad * _blocks(x * x, x * y, x * y, y * y)
        # the derivative of |z|^(r-1) z at 0 is the identity for r = 1,
        # zero for r > 1, and does not exist for r < 1; use the continuous
        # extension where there is one and zero otherwise
        inner[origin] = np.eye(2) if r == 1.0 else 0.0
        return _rotation(coeff(t)) @ inner

    return _coefficient_family(
        coeffs, "power_law", evaluate, derivative, _power_formulas(fmax, r), True
    )


def bounded_potential(f) -> Potential:
    """Family g(t, z) = f(t) * z / (1 + |z|^2), globally bounded by max|f| / 2.

    The bound is attained at |z| = 1.  The map is phase-equivariant.
    """
    coeffs, coeff, fmax = _coefficients(f)

    def evaluate(t, z):
        zz = np.asarray(z, dtype=complex)
        # |z| * |z|, not |z| ** 2: a float64 scalar's ** 2 can differ from
        # an array's in the last bit
        size = np.abs(zz)
        return coeff(t) * zz / (1.0 + size * size)

    def derivative(t, z) -> np.ndarray:
        zz = np.asarray(z, dtype=complex)
        x, y = zz.real, zz.imag
        denom = (1.0 + x * x + y * y)[..., None, None] ** 2
        inner = (
            _blocks(1.0 + y * y - x * x, -2.0 * x * y, -2.0 * x * y, 1.0 + x * x - y * y)
            / denom
        )
        return _rotation(coeff(t)) @ inner

    def threshold_formula(coef: float) -> float:
        # beyond rho the inequality fmax*rho/(1+rho^2) <= coef*rho^3 holds,
        # i.e. coef*rho^2*(1+rho^2) >= fmax; the quadratic's root in rho^2,
        # (-1 + sqrt(1 + 4a)) / 2, in the form that does not cancel for a << 1
        if fmax == 0.0:
            return 1.0
        a = fmax / coef
        return float(np.sqrt(2.0 * a / (1.0 + np.sqrt(1.0 + 4.0 * a))))

    def sup_formula(radius: float) -> float:
        if radius >= 1.0:
            return float(fmax / 2.0)
        return float(fmax * radius / (1.0 + radius * radius))

    return _coefficient_family(
        coeffs, "bounded", evaluate, derivative, (threshold_formula, sup_formula), True
    )


def constant_potential(f) -> Potential:
    """z-independent forcing g(t, z) = f(t): modulus |f(t)| * |z|^0, so the
    power-law closed forms at r = 0.

    Neither odd nor phase-equivariant in z (unless f = 0), so it breaks the
    symmetry that pins the trivial solution at the origin; the steady-state
    pipeline relies on it.
    """
    coeffs, coeff, fmax = _coefficients(f)

    def evaluate(t, z):
        return np.broadcast_to(coeff(t), np.broadcast_shapes(np.shape(t), np.shape(z))).copy()

    def derivative(t, z) -> np.ndarray:
        return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(z)) + (2, 2))

    return _coefficient_family(
        coeffs, "constant", evaluate, derivative, _power_formulas(fmax, 0.0), not any(coeffs)
    )


def zero_potential(period: int = 1) -> Potential:
    """The unforced equation: g identically zero, the constant family on
    ``period`` zero coefficients (so its closed forms are those at f = 0,
    and it is phase-equivariant)."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    return replace(constant_potential([0.0] * period), kind="zero", coefficients=())
