"""The linear lattice operator as a circulant stencil, and its invertible shift.

The linear part has constant coefficients, so on the T x K torus it is a
circulant: node (t, k) couples to node (t + dt, k + dk) with the weight
``kernel[dt, dk]`` of one (T, K) kernel, indices modulo T and K.  The shift s
exceeds the sup-induced norm, so the symbol (2-D DFT of the kernel) of
A = L - sI has no zero, and A^-1 is the circulant whose kernel is the inverse
DFT of the reciprocal symbol.  Each row of a circulant permutes its kernel,
so the sup-induced norms are l1 norms of kernels.  A^-1 has one apply, by
FFT (``ShiftedOperator.solve``), on one vector or a block of them; no dense
n x n matrix is held.  Newton needs no A^-1: it solves with the realified
A minus the nodewise blocks, assembled from the five stencil weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularShift
from .lattice import LatticeParams

__all__ = ["ShiftedOperator", "build_shifted"]


def _stencil(params: LatticeParams) -> np.ndarray:
    """(T, K) kernel of the linear operator.  The offsets accumulate, so those
    that wrap onto one another merge: the time part cancels to zero for
    T in {1, 2}, and K = 2 doubles the space neighbour."""
    T = params.T
    kernel = np.zeros((T, params.K), dtype=complex)
    ib = 1j * params.beta
    eps = params.epsilon
    kernel[1 % T, 0] += ib
    kernel[-1, 0] -= ib
    kernel[0, 1] += eps
    kernel[0, -1] += eps
    kernel[0, 0] += -2.0 * eps
    return kernel


def _reversed(kernel: np.ndarray) -> np.ndarray:
    """``kernel`` at negated offsets (indices modulo T and K)."""
    return np.roll(kernel[::-1, ::-1], (1, 1), axis=(0, 1))


@dataclass
class ShiftedOperator:
    """The shifted operator A = L - sI, its inverse, and the certificate norms.

    Treated as immutable after ``build_shifted`` returns.  ``shift`` exceeds
    ``norm_linear`` strictly, which keeps A invertible.  The norms are the l1
    norms of the kernels of L, A and A^-1: actual values, not bounds, because
    the certificate constants need them.  ``inverse_symbol`` multiplies the
    2-D DFT of a field to apply A^-1 (``solve``).
    """

    params: LatticeParams
    dim: int
    shift: float
    inverse_symbol: np.ndarray
    norm_linear: float
    norm_shifted: float
    norm_shifted_inv: float

    def solve(self, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply A^-1 by FFT to one vector or to an (n, m) stack of column
        vectors; each column gets the same bits whatever columns share it.

        ``out``, a complex array of rhs's shape, receives the result, and then
        a complex ``rhs`` is scratch that the FFT overwrites: its transforms
        alternate between the two, because one with its input as ``out``
        copies the input.  Each transform runs along one axis of the (m, T, K)
        view, in the order of ``numpy.fft.fft2``, with the same bits.  A
        broadcast multiply allocates a ufunc buffer, where a same-shape or a
        scalar one does not, so the symbol multiplies the spectra field by
        field or node by node, whichever loop is shorter, with the same bits.
        """
        T, K = self.params.T, self.params.K

        def fields(a: np.ndarray) -> np.ndarray:
            return a.reshape(T, K, -1).transpose(2, 0, 1)

        src = fields(rhs)
        if out is None:
            # laid out so that every transform runs along contiguous memory
            out, work = np.empty(rhs.shape[::-1], complex).T, np.empty(src.shape, complex)
        else:
            work = src
        dst = fields(out)
        np.fft.fft(src, axis=2, out=dst)
        np.fft.fft(dst, axis=1, out=work)
        if len(work) <= self.dim:
            for spectrum, result in zip(work, dst):
                np.multiply(spectrum, self.inverse_symbol, out=result)
        else:
            for t, k in np.ndindex(T, K):
                np.multiply(work[:, t, k], self.inverse_symbol[t, k], out=dst[:, t, k])
        np.fft.ifft(dst, axis=2, out=work)
        np.fft.ifft(work, axis=1, out=dst)
        return out


def build_shifted(params: LatticeParams, shift_factor: float = 1.5) -> ShiftedOperator:
    """Build the shifted operator from the stencil kernel of the linear part.

    The shift is ``shift_factor * norm_linear`` (or ``shift_factor`` itself in
    the degenerate case of a zero linear norm), so any factor > 1 places the
    shift strictly beyond the operator norm and the spectrum: every entry of
    A's symbol has modulus between shift - norm_linear > 0 and
    shift + norm_linear, however small beta and epsilon are.  What can fail
    is the floating-point range: for subnormal beta and epsilon the
    reciprocal symbol overflows.  Raises SingularShift exactly when A^-1's
    symbol or kernel is not finite.
    """
    if not shift_factor > 1.0:
        raise ValueError(f"shift_factor must exceed 1, got {shift_factor}")
    norm_linear = float(np.abs(_stencil(params)).sum())
    return _build_shifted(params, shift_factor * norm_linear if norm_linear > 0.0
                          else float(shift_factor))


def _build_shifted(params: LatticeParams, shift: float) -> ShiftedOperator:
    """The shifted operator at a given shift, which must exceed the l1 norm of
    the stencil (``build_shifted`` picks it).  Raises SingularShift exactly
    when A^-1's symbol or kernel is not finite."""
    shifted_kernel = _stencil(params)
    norm_linear = float(np.abs(shifted_kernel).sum())
    shifted_kernel[0, 0] -= shift
    symbol = np.fft.fft2(shifted_kernel)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        reciprocal = 1.0 / symbol
        inverse_kernel = np.fft.ifft2(reciprocal)
    # the kernel's entry at offset 0 is the mean of the reciprocal symbol, so
    # a non-finite symbol leaves the kernel non-finite too
    if not np.isfinite(inverse_kernel).all():
        raise SingularShift(
            f"A^-1 overflows the floating-point range at shift {shift!r}: its symbol or "
            "kernel is not finite"
        )
    return ShiftedOperator(
        params=params,
        dim=params.dim,
        shift=float(shift),
        # A^-1 correlates a field with its kernel (entry (t*K + k, t'*K + k')
        # is kernel[t' - t, k' - k]), so a field's DFT meets the symbol at
        # negated frequencies
        inverse_symbol=_reversed(reciprocal),
        norm_linear=norm_linear,
        norm_shifted=float(np.abs(shifted_kernel).sum()),
        norm_shifted_inv=float(np.abs(inverse_kernel).sum()),
    )
