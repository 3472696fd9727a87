"""Dense reference versions of what the package computes without dense
matrices, for the tests only: nothing under ``src/`` imports this module.

The package applies the shifted operator A = L - sI through its stencil
kernel and FFT, so the n x n matrices of L and A, the sup-induced matrix
norm and the realified 2n x 2n form of a complex matrix live here, where
the tests check the package's kernels, norms and Jacobians against them.
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
