"""Residual maps, realified Jacobians, Newton, continuation, steady states."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from dnls import (
    CertificateInvalid,
    LatticeField,
    LatticeParams,
    MissingDerivative,
    apply_cubic,
    apply_forcing,
    apply_linear,
    bounded_potential,
    build_certificate,
    build_shifted,
    complexify,
    constant_potential,
    homotopy_solve,
    multi_start,
    newton_solve,
    power_law,
    random_field,
    realified_jacobian,
    realify,
    residual_direct,
    residual_precond,
    steady_state_solve,
    sup_norm,
    tile_steady,
    zero_potential,
)
from dnls import operators, solver
from dnls.solver import _newton_step, _slice_jacobian, _slice_residual, realified_matrix

RNG = np.random.default_rng(2024)


def _setup(T=1, K=2, gamma=1.0, g=None, samples=2000, seed=0):
    params = LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=gamma)
    op = build_shifted(params, shift_factor=1.5)
    g = g if g is not None else zero_potential()
    cert = build_certificate(op, g, samples=samples, seed=seed)
    return params, op, g, cert


# ---------------------------------------------------------------------------
# realification helpers


@settings(deadline=None, max_examples=40)
@given(arrays(np.complex128, 6,
              elements=st.complex_numbers(max_magnitude=100.0, allow_nan=False,
                                          allow_infinity=False)))
def test_realify_complexify_roundtrip(z):
    x = realify(z)
    assert x.shape == (12,)
    assert x.dtype == np.float64
    assert np.array_equal(complexify(x), z)
    # interleaved layout: (Re z0, Im z0, Re z1, Im z1, ...)
    assert x[0] == z[0].real and x[1] == z[0].imag


def test_realified_matrix_reproduces_complex_action():
    mat = RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5))
    z = RNG.normal(size=5) + 1j * RNG.normal(size=5)
    direct = realify(mat @ z)
    via_real = realified_matrix(mat) @ realify(z)
    assert_allclose(via_real, direct, atol=1e-13)


# ---------------------------------------------------------------------------
# residuals


def test_residual_direct_is_the_equation():
    params, _, _, _ = _setup(T=3, K=4, g=power_law([0.5], 2.0), samples=0)
    g = power_law([0.5], 2.0)
    phi = random_field(3, 4, RNG, 2.0)
    res = residual_direct(phi, params, g)
    rebuilt = apply_linear(phi, params) - apply_cubic(phi, params) - apply_forcing(phi, g)
    assert_allclose(res.values, rebuilt.values, atol=1e-15)


def test_residual_direct_zero_field_unforced():
    params, _, g, _ = _setup(T=2, K=3, samples=0)
    res = residual_direct(LatticeField.zeros(2, 3), params, g)
    assert sup_norm(res) == 0.0


def test_residual_precond_is_preconditioned_direct():
    params, op, _, _ = _setup(T=2, K=3, g=bounded_potential([1.0]), samples=0)
    g = bounded_potential([1.0])
    for _ in range(100):
        phi = random_field(2, 3, RNG, 3.0)
        pre = residual_precond(phi, op, g).flatten()
        direct = residual_direct(phi, params, g).flatten()
        expected = op.solve(direct)
        scale = max(np.max(np.abs(expected)), 1.0)
        assert np.max(np.abs(pre - expected)) <= 1e-11 * scale


# ---------------------------------------------------------------------------
# Jacobians


def _fd_jacobian(phi, op, g, h=1e-7):
    # central differences of the preconditioned residual in realified space
    base = realify(phi.flatten())
    n = base.size
    jac = np.empty((n, n))
    T, K = phi.shape
    for j in range(n):
        bump = np.zeros(n)
        bump[j] = h
        fp = residual_precond(LatticeField.from_flat(complexify(base + bump), T, K), op, g)
        fm = residual_precond(LatticeField.from_flat(complexify(base - bump), T, K), op, g)
        jac[:, j] = (realify(fp.flatten()) - realify(fm.flatten())) / (2 * h)
    return jac


@pytest.mark.parametrize(
    "make_g",
    [
        lambda: zero_potential(),
        lambda: power_law([0.5], 2.0),
        lambda: bounded_potential([1.0, -0.5]),
        lambda: constant_potential([2.0]),
    ],
    ids=["zero", "quadratic", "bounded", "constant"],
)
def test_realified_jacobian_matches_finite_differences(make_g):
    g = make_g()
    T = 2 if g.period == 2 else 1
    params, op, _, _ = _setup(T=T, K=3, g=g, samples=0)
    phi = random_field(T, 3, np.random.default_rng(77), 1.5)
    analytic = realified_jacobian(phi, op, g, mode="analytic")
    fd = _fd_jacobian(phi, op, g)
    denom = max(np.max(np.abs(fd)), 1.0)
    assert np.max(np.abs(analytic - fd)) / denom <= 1e-6


def test_realified_jacobian_internal_fd_mode_agrees():
    g = power_law([1.0], 2.0)
    params, op, _, _ = _setup(T=1, K=3, g=g, samples=0)
    phi = random_field(1, 3, np.random.default_rng(8), 1.0)
    analytic = realified_jacobian(phi, op, g, mode="analytic")
    numeric = realified_jacobian(phi, op, g, mode="finite_diff")
    assert np.max(np.abs(analytic - numeric)) <= 1e-6 * max(1.0, np.max(np.abs(analytic)))


def test_realified_jacobian_requires_derivative_in_analytic_mode():
    g = power_law([1.0], 2.0)
    params, op, _, _ = _setup(T=1, K=2, g=g, samples=0)
    stripped = replace(g, derivative=None)
    phi = random_field(1, 2, RNG, 1.0)
    with pytest.raises(MissingDerivative):
        realified_jacobian(phi, op, stripped, mode="analytic")
    # finite-diff mode shrugs it off
    realified_jacobian(phi, op, stripped, mode="finite_diff")


@pytest.mark.parametrize("T,K", [(1, 2), (2, 3), (3, 4)])
def test_slice_jacobian_matches_dense_oracle(T, K):
    # I - A_r^-1 D with a dense inverse and a dense block-diagonal D, where D
    # holds the cubic and forcing derivative blocks minus the shift
    params = LatticeParams(T=T, K=K, beta=0.7, epsilon=1.3, gamma=-1.2)
    op = build_shifted(params, shift_factor=1.7)
    g = power_law([0.5], 2.0)
    flat = random_field(T, K, np.random.default_rng(T * K), 1.5).flatten()
    x, y = flat.real, flat.imag
    cubic = -params.gamma * np.array([[3 * x * x + y * y, 2 * x * y],
                                      [2 * x * y, x * x + 3 * y * y]])
    forcing = g.derivative(np.arange(T)[:, None], flat.reshape(T, K)).reshape(-1, 2, 2)
    blocks = cubic.transpose(2, 0, 1) + forcing - op.shift * np.eye(2)
    n = flat.size
    diag = np.zeros((2 * n, 2 * n))
    for j in range(n):
        diag[2 * j:2 * j + 2, 2 * j:2 * j + 2] = blocks[j]
    oracle = np.eye(2 * n) - realified_matrix(np.linalg.inv(op.shifted)) @ diag
    jac = _slice_jacobian(flat, op, g, tau=1.0)
    assert np.max(np.abs(jac - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


@pytest.mark.parametrize("T,K", [(8, 10), (12, 12)])
@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("shifted", [False, True], ids=["plain", "shift_vec"])
@pytest.mark.parametrize("mode", ["analytic", "finite_diff"])
def test_sparse_newton_step_matches_dense_solve(T, K, tau, shifted, mode):
    # above the crossover the step solves (A_r - B) dx = -A_r r by sparse LU,
    # which must agree with the dense solve of J dx = -r
    assert 2 * T * K > solver.DENSE_STEP_MAX_DIM
    params = LatticeParams(T=T, K=K, beta=0.7, epsilon=1.3, gamma=-1.2)
    op = build_shifted(params, shift_factor=1.7)
    g = power_law([0.5, 0.2 + 0.3j], 2.5)
    if mode == "finite_diff":
        g = replace(g, derivative=None)
    rng = np.random.default_rng(T * K)
    flat = random_field(T, K, rng, 1.5).flatten()
    shift_vec = random_field(T, K, rng, 0.5).flatten() if shifted else None
    res = _slice_residual(flat, op, g, tau, shift_vec)
    dense = complexify(np.linalg.solve(_slice_jacobian(flat, op, g, tau), -realify(res)))
    step = _newton_step(flat, res, op, g, tau)
    assert np.max(np.abs(step - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_large_lattice_builds_no_dense_operator_matrix():
    # above both crossovers the certificate applies A^-1 by FFT and Newton
    # takes sparse steps, so no dense n x n matrix is gathered
    params = LatticeParams(T=12, K=24, beta=1.0, epsilon=1.0, gamma=1.0)
    assert params.dim > operators.DENSE_APPLY_MAX_DIM
    assert 2 * params.dim > solver.DENSE_STEP_MAX_DIM
    op = build_shifted(params, shift_factor=1.5)
    g = constant_potential([2.0, 1.0 + 1.0j])
    cert = build_certificate(op, g, samples=200, seed=0)
    report = homotopy_solve(op, g, cert)
    assert report.status == "converged"
    assert {"shifted", "inverse", "inverse_realified"}.isdisjoint(vars(op))


def test_odd_slice_jacobian_at_origin_is_identity():
    # at tau = 0 and phi = 0 the cubic's derivative vanishes, leaving I
    params, op, g, _ = _setup(T=2, K=2, samples=0)
    jac = _slice_jacobian(np.zeros(4, dtype=complex), op, g, tau=0.0, mode="analytic")
    assert_allclose(jac, np.eye(8), atol=1e-14)


# ---------------------------------------------------------------------------
# Newton


def test_newton_unforced_origin_is_instant():
    params, op, g, _ = _setup(samples=0)
    report = newton_solve(LatticeField.zeros(1, 2), op, g)
    assert report.status == "converged"
    assert report.newton_iterations == 0
    assert report.residual_direct == 0.0
    assert report.method == "newton"


def test_newton_converged_means_residual_below_tol():
    g = constant_potential([0.3])
    params, op, _, _ = _setup(T=1, K=3, g=g, samples=0)
    # the origin itself is a singular start here (the unshifted operator kills
    # constants), so begin from a nearby constant field
    start = LatticeField(np.full((1, 3), 0.5 + 0j))
    report = newton_solve(start, op, g, tol=1e-12)
    assert report.status == "converged"
    assert report.residual_direct <= 1e-12
    # the report's residual is really the lattice equation's, recomputed
    check = sup_norm(residual_direct(report.solution, params, g))
    assert check == pytest.approx(report.residual_direct, abs=1e-15)


# ---------------------------------------------------------------------------
# homotopy continuation


def test_homotopy_unforced_is_one_step():
    _, op, g, cert = _setup()
    report = homotopy_solve(op, g, cert)
    assert report.status == "converged"
    assert report.method == "homotopy"
    assert report.homotopy_steps == 1
    assert report.path == ((0.0, 0.0), (1.0, 0.0))
    assert sup_norm(report.solution) == 0.0


def test_homotopy_requires_valid_certificate():
    _, op, g, cert = _setup(samples=0)  # no boundary evidence -> invalid
    assert not cert.valid
    with pytest.raises(CertificateInvalid):
        homotopy_solve(op, g, cert)


def test_homotopy_constant_forcing_on_coupled_lattice():
    forcing = constant_potential([0.1])
    params, op, _, cert = _setup(T=3, K=2, g=forcing, samples=2000)
    # period-1 forcing on T = 3 still exercises genuine time coupling in L
    report = homotopy_solve(op, forcing, cert)
    assert report.status == "converged"
    assert report.residual_direct <= 1e-10
    assert sup_norm(report.solution) < cert.radius
    assert sup_norm(report.solution) > 0.0  # non-odd forcing kills the origin
    # endpoint of the recorded path is tau = 1 with the solution's norm
    tau_end, norm_end = report.path[-1]
    assert tau_end == 1.0
    assert norm_end == pytest.approx(sup_norm(report.solution))


def test_homotopy_solution_verifies_against_direct_residual():
    forcing = constant_potential([0.2 + 0.1j])
    params, op, _, cert = _setup(T=2, K=3, g=forcing)
    report = homotopy_solve(op, forcing, cert)
    assert report.status == "converged"
    res = sup_norm(residual_direct(report.solution, params, forcing))
    assert res <= 1e-10


# ---------------------------------------------------------------------------
# multi-start enumeration


def test_multi_start_small_ball_unforced_finds_only_origin():
    # inside a radius-1 ball the unforced problem has one zero: the origin
    _, op, g, cert = _setup(samples=2000)
    small = replace(cert, radius=1.0)
    reports = multi_start(op, g, small, n_starts=12, seed=3)
    assert len(reports) == 1
    assert sup_norm(reports[0].solution) <= 1e-12
    assert reports[0].method == "multi_start"


def test_multi_start_keeps_solutions_inside_ball():
    _, op, g, cert = _setup(samples=2000)
    reports = multi_start(op, g, cert, n_starts=24, seed=0)
    assert reports  # at least the tracked origin
    for rep in reports:
        assert rep.status == "converged"
        assert sup_norm(rep.solution) <= cert.radius
        assert rep.residual_direct <= 1e-10


def test_multi_start_deterministic():
    forcing = constant_potential([0.05])
    _, op, _, cert = _setup(T=1, K=3, g=forcing)
    a = multi_start(op, forcing, cert, n_starts=8, seed=11)
    b = multi_start(op, forcing, cert, n_starts=8, seed=11)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.solution.values, rb.solution.values)
        assert ra.residual_direct == rb.residual_direct
        assert ra.status == rb.status


def test_multi_start_requires_valid_certificate():
    _, op, g, cert = _setup(samples=0)
    with pytest.raises(CertificateInvalid):
        multi_start(op, g, cert)


# ---------------------------------------------------------------------------
# steady states


def test_tile_steady_shapes_and_values():
    u = np.array([1 + 1j, 2.0, -3j])
    phi = tile_steady(u, 4)
    assert phi.shape == (4, 3)
    for t in range(4):
        assert_allclose(phi.values[t], u)


@pytest.mark.parametrize("K", [2, 3, 5, 8])
def test_steady_constant_forcing_eight(K):
    # epsilon-coupling cancels on constant profiles, so gamma u^3 = h gives u = 2
    profile, report = steady_state_solve(
        K, epsilon=1.0, gamma=1.0, h=constant_potential([8.0]), full_output=True
    )
    assert_allclose(profile, 2.0, atol=1e-9)
    assert report.residual_direct <= 1e-10


def test_steady_profile_solves_spatial_equation():
    K = 5
    profile = steady_state_solve(K, epsilon=0.7, gamma=1.3, h=constant_potential([2.0]))
    # independent check: eps*(roll-2+roll) + gamma|u|^2 u = h at every node
    lap = np.roll(profile, -1) - 2.0 * profile + np.roll(profile, 1)
    res = 0.7 * lap + 1.3 * np.abs(profile) ** 2 * profile - 2.0
    assert np.max(np.abs(res)) <= 1e-10


def test_steady_unforced_is_zero():
    profile = steady_state_solve(3, epsilon=1.0, gamma=1.0, h=zero_potential())
    assert_allclose(profile, 0.0, atol=1e-12)


def test_steady_profile_lifts_to_periodic_solution():
    profile, report = steady_state_solve(
        4, epsilon=1.0, gamma=1.0, h=constant_potential([8.0]), full_output=True
    )
    lifted = tile_steady(profile, 5)
    params = LatticeParams(T=5, K=4, beta=1.0, epsilon=1.0, gamma=1.0)
    res = residual_direct(lifted, params, constant_potential([8.0]))
    # time differences vanish on time-constant fields, so the residual carries over
    assert sup_norm(res) <= 1e-10


def test_steady_rejects_time_varying_forcing():
    with pytest.raises(ValueError):
        steady_state_solve(3, 1.0, 1.0, constant_potential([1.0, 2.0]))
