"""Dense reference versions of what the package computes without dense
matrices, for the tests only: nothing under ``src/`` imports this module.

The package applies the shifted operator A = L - sI through its stencil
kernel and FFT, so the n x n matrices of L and A, the sup-induced matrix
norm and the realified 2n x 2n form of a complex matrix live here, where
the tests check the package's kernels, norms and Jacobians against them.
The exact plane-wave solutions of ``plane_waves`` are ground truth for the
residual at any lattice size.
"""

import numpy as np

from dnls import LatticeParams, Potential, ShiftedOperator
from dnls.operators import _circulant, _stencil


def linear_matrix(params: LatticeParams) -> np.ndarray:
    """Dense matrix of the linear operator on row-major flattened fields."""
    return _circulant(_stencil(params))


def shifted(op: ShiftedOperator) -> np.ndarray:
    """Dense A = L - sI of a shifted operator."""
    kernel = _stencil(op.params)
    kernel[0, 0] -= op.shift
    return _circulant(kernel)


def operator_norm_sup(matrix: np.ndarray) -> float:
    """Operator norm induced by the entrywise sup norm: max row sum of moduli.

    For the sup norm on complex vectors the induced norm of a matrix is the
    maximum over rows of the sum of entry moduli (the max-row-sum formula,
    attained by aligning the input phases against one row).
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return float(np.abs(mat).sum(axis=1).max())


def realified_matrix(mat: np.ndarray) -> np.ndarray:
    """Complex n x n matrix -> real 2n x 2n matrix in the interleaved layout
    (Re z_0, Im z_0, Re z_1, ...) of ``dnls.realify``."""
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = mat.real
    out[0::2, 1::2] = -mat.imag
    out[1::2, 0::2] = mat.imag
    out[1::2, 1::2] = mat.real
    return out


def random_field(T: int, K: int, rng: np.random.Generator, radius: float = 1.0) -> np.ndarray:
    """(T, K) field with independent entries of modulus uniform in [0, radius]
    and uniform phase."""
    moduli = rng.uniform(0.0, radius, size=(T, K))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(T, K))
    return moduli * np.exp(1j * phases)


def tile_steady(u: np.ndarray, T: int) -> np.ndarray:
    """Lift a K-entry spatial profile to a time-constant (T, K) field."""
    return np.tile(np.asarray(u, dtype=complex), (T, 1))


def circle_moduli(g: Potential, radii, phases: int = 64) -> np.ndarray:
    """|g(t, rho e^{i theta})| over the times of one period, the radii and
    ``phases`` equally spaced phases from 0: shape (period, radii, phases)."""
    circle = np.exp(2j * np.pi * np.arange(phases) / phases)
    grid = np.asarray(radii)[:, None] * circle[None, :]
    return np.abs(np.asarray(g.evaluate(np.arange(g.period)[:, None, None], grid)))


def _real_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a x^2 + b x + c = 0 (a != 0), in the form that does not
    cancel: q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2, roots q/a and c/q."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def plane_waves(
    params: LatticeParams, g: Potential, radius: float
) -> list[tuple[int, int, float]]:
    """Every plane wave rho e^{i(omega t + theta k)} with 0 < rho < radius
    that solves the lattice equation exactly, as (j, m, rho) with
    omega = 2 pi j / T and theta = 2 pi m / K.

    For a forcing g(t, z) = f h(|z|) z with one real coefficient f the
    stencil multiplies the wave by -c, c = 2 beta sin(omega) +
    2 epsilon (1 - cos(theta)), so the wave solves the equation when
    gamma rho^2 - f h(rho) = c.  That is a quadratic in closed form for
    ``power_law`` with r = 2 (gamma rho^2 - f rho = c) and for ``bounded``
    ((gamma rho^2 - c)(1 + rho^2) = f, a quadratic in rho^2); other
    forcings raise ValueError.
    """
    if len(g.coefficients) != 1 or g.coefficients[0].imag != 0.0:
        raise ValueError(f"plane waves need one real coefficient, got {g.coefficients}")
    f, gamma = g.coefficients[0].real, params.gamma
    # sup_formula is max|f| rho^r, so r = 2 exactly when doubling rho quadruples it
    if g.kind == "power_law" and g.sup_formula(2.0) == 4.0 * g.sup_formula(1.0):
        def moduli(c):
            return _real_roots(gamma, -f, -c)
    elif g.kind == "bounded":
        def moduli(c):
            squares = _real_roots(gamma, gamma - c, -(c + f))
            return [np.sqrt(u) for u in squares if u > 0.0]
    else:
        raise ValueError(f"no closed form for plane waves of a {g.kind!r} forcing")
    waves = []
    for j in range(params.T):
        for m in range(params.K):
            omega, theta = 2.0 * np.pi * j / params.T, 2.0 * np.pi * m / params.K
            c = 2.0 * params.beta * np.sin(omega) + 2.0 * params.epsilon * (1.0 - np.cos(theta))
            waves += [(j, m, float(rho)) for rho in moduli(c) if 0.0 < rho < radius]
    return waves


def plane_wave(params: LatticeParams, j: int, m: int, rho: float) -> np.ndarray:
    """The (T, K) field rho e^{i(2 pi j t / T + 2 pi m k / K)}."""
    t, k = np.arange(params.T)[:, None], np.arange(params.K)[None, :]
    return rho * np.exp(2j * np.pi * (j * t / params.T + m * k / params.K))
