"""Matrix form of the linear part, sup operator norms, and the shifted solve."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dnls import (
    LatticeParams,
    ShiftedOperator,
    build_shifted,
    power_law,
    sup_norm,
    zero_potential,
)
from dnls.lattice import _linear
from dnls.solver import _slice_blocks, _slice_jacobian
from oracles import (
    linear_matrix,
    operator_norm_sup,
    random_field,
    realified_matrix,
    shifted,
    slice_jacobian,
)

RNG = np.random.default_rng(42)


def _params(T=4, K=4, beta=1.0, epsilon=1.0, gamma=1.0):
    return LatticeParams(T=T, K=K, beta=beta, epsilon=epsilon, gamma=gamma)


# ---------------------------------------------------------------------------
# matrix assembly


def test_matrix_frozen_smallest_lattice():
    # T = 1, K = 2: time differences cancel, laplacian doubles up
    mat = linear_matrix(_params(T=1, K=2))
    assert_allclose(mat, np.array([[-2.0, 2.0], [2.0, -2.0]]))


def test_matrix_agrees_with_apply_linear_on_basis():
    params = _params(T=3, K=4)
    mat = linear_matrix(params)
    n = params.dim
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        col = _linear(e.reshape(3, 4), params).ravel()
        assert_allclose(mat[:, j], col, atol=1e-15)


def test_matrix_agrees_with_apply_linear_on_random_fields():
    params = _params(T=5, K=3, beta=0.7, epsilon=1.3)
    mat = linear_matrix(params)
    for _ in range(100):
        phi = random_field(5, 3, RNG, 2.0)
        via_matrix = mat @ phi.flatten()
        via_stencil = _linear(phi, params).ravel()
        scale = max(np.max(np.abs(via_matrix)), 1.0)
        assert np.max(np.abs(via_matrix - via_stencil)) <= 1e-13 * scale


def test_matrix_is_sparse_stencil():
    mat = linear_matrix(_params(T=5, K=5))
    nonzeros_per_row = np.count_nonzero(mat, axis=1)
    assert np.all(nonzeros_per_row <= 5)

    # with T <= 2 the time couplings vanish entirely
    mat_short = linear_matrix(_params(T=2, K=5))
    assert np.all(np.count_nonzero(mat_short, axis=1) <= 3)


def test_matrix_annihilates_constants():
    mat = linear_matrix(_params(T=4, K=3))
    assert np.max(np.abs(mat @ np.ones(12))) <= 1e-14


def test_matrix_is_hermitian():
    mat = linear_matrix(_params(T=5, K=4, beta=0.3, epsilon=2.0))
    assert_allclose(mat, mat.conj().T, atol=1e-15)


# ---------------------------------------------------------------------------
# sup operator norm


def test_operator_norm_identity():
    assert operator_norm_sup(np.eye(7)) == pytest.approx(1.0)


def test_operator_norm_is_max_abs_row_sum():
    mat = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
    expected = np.max(np.sum(np.abs(mat), axis=1))
    assert operator_norm_sup(mat) == pytest.approx(expected)


def test_operator_norm_attained_by_aligned_phases():
    # the norm is attained at a unit vector whose phases align one row's terms
    mat = RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5))
    row = int(np.argmax(np.sum(np.abs(mat), axis=1)))
    witness = np.exp(-1j * np.angle(mat[row]))
    attained = np.max(np.abs(mat @ witness))
    assert abs(attained - operator_norm_sup(mat)) <= 1e-13 * attained


@pytest.mark.parametrize(
    "T,K,expected",
    [
        (4, 4, 6.0),   # 2*beta + 4*epsilon
        (8, 8, 6.0),
        (2, 4, 4.0),   # time couplings cancel, leaving 4*epsilon
        (1, 2, 4.0),
    ],
)
def test_linear_norm_frozen_values(T, K, expected):
    # closed form: 2*beta + 4*epsilon once T >= 3; the time part cancels below
    params = _params(T=T, K=K)
    mat = linear_matrix(params)
    assert operator_norm_sup(mat) == pytest.approx(expected)


def test_linear_norm_never_exceeded_on_unit_fields():
    params = _params(T=3, K=5, beta=0.8, epsilon=1.1)
    bound = 2 * params.beta + 4 * params.epsilon
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(10_000):
        phi = random_field(3, 5, rng, 1.0)
        s = sup_norm(phi)
        if s == 0:
            continue
        out = sup_norm(_linear(phi, params)) / s
        worst = max(worst, out)
    assert worst <= bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# the shifted operator


def test_shifted_operator_frozen_values():
    op = build_shifted(_params(T=4, K=4), shift_factor=1.5)
    assert op.shift == pytest.approx(9.0)
    assert op.norm_linear == pytest.approx(6.0)
    assert op.norm_shifted == pytest.approx(15.0)
    # frozen from an independent inverse: max row sum of |(L - 9I)^-1| is 1/7
    assert op.norm_shifted_inv == pytest.approx(1.0 / 7.0, rel=1e-9)
    indep = operator_norm_sup(np.linalg.inv(shifted(op)))
    assert op.norm_shifted_inv == pytest.approx(indep, rel=1e-12)


def test_shifted_solve_roundtrip():
    op = build_shifted(_params(T=5, K=3, beta=0.6, epsilon=0.9), shift_factor=2.0)
    dense = shifted(op)
    for _ in range(20):
        b = RNG.normal(size=15) + 1j * RNG.normal(size=15)
        x = op.solve(b)
        back = dense @ x
        assert np.max(np.abs(back - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))


def test_shifted_norms_are_consistent():
    op = build_shifted(_params(T=3, K=4), shift_factor=1.5)
    assert op.norm_shifted <= op.norm_linear + op.shift + 1e-12
    # ||A|| * ||A^-1|| >= 1 always
    assert op.norm_shifted * op.norm_shifted_inv >= 1.0 - 1e-12


def test_shifted_operator_bounded_below():
    # ||A phi|| >= ||phi|| / ||A^-1|| for every field
    op = build_shifted(_params(T=3, K=3, beta=0.5, epsilon=1.5), shift_factor=1.7)
    rng = np.random.default_rng(5)
    floor = 1.0 / op.norm_shifted_inv
    dense = shifted(op)
    for _ in range(1000):
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        lhs = np.max(np.abs(dense @ psi))
        rhs = floor * np.max(np.abs(psi))
        assert lhs >= rhs * (1 - 1e-12)


def test_shifted_triangle_bound():
    # ||A phi|| <= (||L|| + s) ||phi||
    op = build_shifted(_params(T=4, K=5), shift_factor=1.5)
    rng = np.random.default_rng(6)
    cap = op.norm_linear + op.shift
    dense = shifted(op)
    for _ in range(1000):
        phi = rng.normal(size=20) + 1j * rng.normal(size=20)
        assert np.max(np.abs(dense @ phi)) <= cap * np.max(np.abs(phi)) * (1 + 1e-12)


@pytest.mark.parametrize("factor", [1.0, 0.5, 0.0, -2.0])
def test_shift_factor_must_exceed_one(factor):
    with pytest.raises(ValueError):
        build_shifted(_params(), shift_factor=factor)


@settings(deadline=None, max_examples=60)
@given(shape=st.sampled_from([(4, 4), (3, 5), (24, 24)]), exponent=st.floats(-300.0, 300.0))
@example(shape=(4, 4), exponent=-14.0)
@example(shape=(24, 24), exponent=-300.0)
@example(shape=(3, 5), exponent=300.0)
def test_norm_product_is_invariant_when_beta_and_epsilon_scale(shape, exponent):
    # scaling beta and epsilon by lam scales A by lam and A^-1 by 1 / lam, so
    # ||A|| ||A^-1|| stays put, and no scale in the float range is singular
    T, K = shape
    lam = 10.0**exponent
    ref = build_shifted(_params(T=T, K=K))
    op = build_shifted(_params(T=T, K=K, beta=lam, epsilon=lam))
    assert op.norm_shifted * op.norm_shifted_inv == pytest.approx(
        ref.norm_shifted * ref.norm_shifted_inv, rel=1e-12
    )


def test_dense_matrices_are_gathered_on_demand():
    # the operator holds its symbol and norms, nothing of size n x n; the
    # dense A and A^-1 are the tests' oracles
    op = build_shifted(_params(T=3, K=4), shift_factor=1.5)
    for name in ("shifted", "inverse", "solve_rows"):
        assert not hasattr(ShiftedOperator, name)
    assert all(np.size(value) <= op.dim for value in vars(op).values())
    assert np.array_equal(shifted(op), linear_matrix(op.params) - op.shift * np.eye(12))
    assert_allclose(op.solve(np.eye(12)) @ shifted(op), np.eye(12), atol=1e-12)


@pytest.mark.parametrize("m,T,K", [(256, 8, 8), (28, 24, 24), (512, 4, 8), (3, 1, 2)])
def test_fft_apply_into_buffers_allocates_nothing(m, T, K):
    # with ``out`` the FFT apply works in its two buffers alone: the symbol
    # multiply, by field or by node, takes no ufunc buffer, and the result
    # has the bits of fft2, a broadcast multiply by the symbol and ifft2
    op = build_shifted(_params(T=T, K=K), shift_factor=1.5)
    rng = np.random.default_rng(m)
    rows = rng.normal(size=(m, op.dim)) + 1j * rng.normal(size=(m, op.dim))
    spectrum = np.fft.fft2(rows.reshape(m, T, K)) * op.inverse_symbol
    expected = np.fft.ifft2(spectrum).reshape(m, op.dim)
    block = np.empty_like(rows)
    op.solve(rows.copy().T, out=block.T)  # builds the FFT plans
    scratch = rows.copy()
    tracemalloc.start()
    try:
        applied = op.solve(scratch.T, out=block.T).T
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**12
    assert applied.tobytes() == expected.tobytes()


def test_slice_jacobian_from_inverse_parts_matches_realified_inverse():
    # J = I - A_r^-1 blockdiag(B), built from the real and imaginary parts of
    # A^-1 (gathered by the FFT apply) and the blocks B, is A_r^-1 M with M
    # the direct Jacobian, for one field and for each row of a stack: the
    # step M dx = -d_tau is the fixed-point step J dx = -r_tau
    op = build_shifted(_params(T=2, K=3), shift_factor=1.5)
    g = power_law([0.5, 0.2 + 0.3j], 2.5)
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(3, op.dim)) + 1j * rng.normal(size=(3, op.dim))
    n = op.dim
    dense_inv = realified_matrix(np.linalg.inv(shifted(op)))
    inverse = realified_matrix(op.solve(np.eye(n, dtype=complex)))
    assert_allclose(inverse, dense_inv, atol=1e-12)
    inv = inverse.reshape(2 * n, n, 2)
    for flat, jac in zip(stack, _slice_jacobian(stack, op, g, 1.0)):
        blocks = _slice_blocks(flat, op, g, 1.0)
        product = inv[:, :, :1] * blocks[:, 0] + inv[:, :, 1:] * blocks[:, 1]
        expected = np.eye(2 * n) - product.reshape(2 * n, 2 * n)
        assert_allclose(slice_jacobian(flat, op, g, 1.0), expected, atol=1e-12)
        assert_allclose(dense_inv @ _slice_jacobian(flat, op, g, 1.0), expected, atol=1e-12)
        assert_allclose(dense_inv @ jac, expected, atol=1e-12)


@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_slice_jacobian_is_realified_shifted_operator_minus_blocks(tau):
    # M = A_r - blockdiag(B) is assembled from the five stencil weights,
    # merged where neighbours wrap onto one another (T <= 2, K = 2), and the
    # nodewise blocks, on stacks whose zero nodes and zero forcing give +0
    # and -0 blocks; each row of a stack has the bits of a one-field M
    rng = np.random.default_rng(11)
    for T, K in ((2, 3), (1, 2), (4, 2)):
        op = build_shifted(_params(T=T, K=K), shift_factor=1.5)
        n = op.dim
        dense = realified_matrix(shifted(op))
        forcings = [power_law([0.5, 0.2 + 0.3j], 2.5), zero_potential(2)]
        for g in (g for g in forcings if T % g.period == 0):
            stack = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
            stack[rng.random(stack.shape) < 0.4] = 0.0
            stack[0] = 0.0
            stack[1, ::2] = -0.0
            for flat, jac in zip(stack, _slice_jacobian(stack, op, g, tau)):
                blocks = _slice_blocks(flat, op, g, tau)
                expected = dense.copy()
                for j in range(n):
                    expected[2 * j:2 * j + 2, 2 * j:2 * j + 2] -= blocks[j]
                assert np.array_equal(jac, expected)
                assert _slice_jacobian(flat, op, g, tau).tobytes() == jac.tobytes()


#: lattices up to 7 x 7, including the wrap cases T in {1, 2} and K = 2
_LATTICES = dict(
    T=st.integers(1, 7),
    K=st.integers(2, 7),
    beta=st.floats(0.1, 3.0),
    epsilon=st.floats(0.1, 3.0),
    factor=st.floats(1.01, 4.0),
)


@settings(deadline=None, max_examples=60)
@given(**_LATTICES)
@example(T=1, K=2, beta=1.0, epsilon=1.0, factor=1.5)
@example(T=2, K=2, beta=0.7, epsilon=1.3, factor=2.0)
@example(T=2, K=5, beta=1.1, epsilon=0.4, factor=1.2)
@example(T=6, K=2, beta=2.0, epsilon=0.3, factor=3.0)
def test_circulant_operator_matches_dense_oracles(T, K, beta, epsilon, factor):
    # the kernel-built operator against dense matrices, including the wrap
    # cases T in {1, 2} and K = 2 where stencil offsets merge
    params = _params(T=T, K=K, beta=beta, epsilon=epsilon)
    op = build_shifted(params, shift_factor=factor)
    mat = linear_matrix(params)
    rng = np.random.default_rng(10 * T + K)
    phi = random_field(T, K, rng, 2.0)
    via_stencil = _linear(phi, params).ravel()
    assert np.max(np.abs(mat @ phi.flatten() - via_stencil)) <= 1e-13 * max(
        1.0, np.max(np.abs(via_stencil))
    )

    assert op.norm_linear == pytest.approx(operator_norm_sup(mat), rel=1e-12)
    dense = shifted(op)
    assert op.norm_shifted == pytest.approx(operator_norm_sup(dense), rel=1e-12)
    dense_inv = np.linalg.inv(dense)
    assert op.norm_shifted_inv == pytest.approx(operator_norm_sup(dense_inv), rel=1e-12)

    # the one apply, by FFT, on a vector and on a block of columns
    stack = rng.normal(size=(params.dim, 3)) + 1j * rng.normal(size=(params.dim, 3))
    for rhs in (stack[:, 0], stack):
        applied = op.solve(rhs)
        back = dense @ applied
        assert back.shape == rhs.shape
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(back - rhs)) <= 1e-12 * scale
        assert np.max(np.abs(applied - dense_inv @ rhs)) <= 1e-12 * scale


@settings(deadline=None, max_examples=60)
@given(**_LATTICES)
def test_shifted_inverse_norm_within_neumann_bound(T, K, beta, epsilon, factor):
    # A = -s (I - L/s) with ||L|| < s, so the Neumann series bounds
    # ||A^-1|| by 1 / (s - ||L||) without any inverse
    op = build_shifted(_params(T=T, K=K, beta=beta, epsilon=epsilon), shift_factor=factor)
    assert op.norm_shifted_inv <= (1.0 + 1e-12) / (op.shift - op.norm_linear)
