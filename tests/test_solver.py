"""Residual maps, realified Jacobians, Newton, continuation, steady states."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from dnls import (
    CertificateInvalid,
    LatticeParams,
    PeriodMismatch,
    SolveFailed,
    bounded_potential,
    build_certificate,
    build_shifted,
    complexify,
    constant_potential,
    homotopy_solve,
    multi_start,
    power_law,
    realify,
    residual_direct,
    steady_state_solve,
    sup_norm,
    zero_potential,
)
from dnls import operators, solver
from dnls.solver import _newton_step, _slice_jacobian, _slice_residual
from oracles import (
    plane_wave,
    plane_waves,
    random_field,
    realified_matrix,
    shifted,
    slice_residual,
    tile_steady,
)

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


def _reference_residual(v, params, g):
    """The lattice equation's residual at one (T, K) field, as the five
    per-field operators once computed it: linear part, then minus the cubic
    term, then minus the forcing, each step a new array."""
    tdiff = np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)
    lap = np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)
    linear = np.array(1j * params.beta * tdiff + params.epsilon * lap)
    cubic = np.array(-params.gamma * (v.real * v.real + v.imag * v.imag) * v)
    forcing = np.array(g.on_lattice(v), dtype=complex)
    return (linear - cubic) - forcing


def test_residual_direct_is_the_equation():
    params, _, _, _ = _setup(T=3, K=4, g=power_law([0.5], 2.0), samples=0)
    g = power_law([0.5], 2.0)
    phi = random_field(3, 4, RNG, 2.0)
    res = residual_direct(phi, params, g)
    assert np.array_equal(res, _reference_residual(phi, params, g))


#: forcings of a given period from complex coefficients c
_KINDS = {
    "constant": lambda c: constant_potential(list(c)),
    "power_law": lambda c: power_law(list(0.25 * c), 2.0),
    "bounded": lambda c: bounded_potential(list(0.5 * c)),
}


@settings(deadline=None, max_examples=60)
@given(
    m=st.integers(1, 5),
    period=st.integers(1, 3),
    cells=st.integers(1, 3),
    K=st.integers(2, 7),
    beta=st.floats(0.1, 5.0),
    epsilon=st.floats(0.1, 5.0),
    gamma=st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-3),
    kind=st.sampled_from(sorted(_KINDS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_residual_direct_is_each_field_alone_bit_for_bit(
    m, period, cells, K, beta, epsilon, gamma, kind, seed
):
    T = period * cells
    params = LatticeParams(T=T, K=K, beta=beta, epsilon=epsilon, gamma=gamma)
    rng = np.random.default_rng(seed)
    g = _KINDS[kind](rng.standard_normal(period) + 1j * rng.standard_normal(period))
    stack = np.stack([random_field(T, K, rng, 3.0) for _ in range(m)])
    stacked = residual_direct(stack, params, g)
    assert stacked.shape == (m, T, K)
    for field, res in zip(stack, stacked):
        assert np.array_equal(res, residual_direct(field, params, g))
        assert np.array_equal(res, _reference_residual(field, params, g))


@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4), (4, 3, 2)])
def test_residual_direct_checks_the_trailing_shape(shape):
    params = LatticeParams(T=4, K=3, beta=1.0, epsilon=1.0, gamma=1.0)
    # the shape is checked before the forcing period
    period_three = constant_potential([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"field shape \(.*\) does not match lattice \(4, 3\)"):
        residual_direct(np.zeros(shape, dtype=complex), params, period_three)
    with pytest.raises(PeriodMismatch):
        residual_direct(np.zeros((2, 4, 3)), params, period_three)


def test_residual_direct_zero_field_unforced():
    params, _, g, _ = _setup(T=2, K=3, samples=0)
    res = residual_direct(np.zeros((2, 3), dtype=complex), params, g)
    assert sup_norm(res) == 0.0


#: one real coefficient each, so the plane-wave oracle has closed forms
_WAVE_FORCINGS = [power_law([0.3], 2.0), power_law([-0.7], 2.0), bounded_potential([0.5]),
                  bounded_potential([-2.0])]


@settings(deadline=None, max_examples=60)
@given(
    beta=st.floats(0.05, 5.0),
    epsilon=st.floats(0.05, 5.0),
    gamma=st.floats(0.05, 5.0) | st.floats(-5.0, -0.05),
    T=st.integers(1, 12),
    K=st.integers(2, 12),
    g=st.sampled_from(_WAVE_FORCINGS),
)
def test_plane_waves_solve_the_equation(beta, epsilon, gamma, T, K, g):
    # the oracle's waves are exact solutions: only rounding is left
    params = LatticeParams(T=T, K=K, beta=beta, epsilon=epsilon, gamma=gamma)
    for j, m, rho in plane_waves(params, g, 50.0):
        residual = sup_norm(residual_direct(plane_wave(params, j, m, rho), params, g))
        assert residual <= 1e-12 * max(1.0, rho**3), (j, m, rho)


@pytest.mark.parametrize("g,gamma,count", [
    (power_law([0.3], 2.0), 1.0, 65), (power_law([0.3], 2.0), -1.0, 15),
    (bounded_potential([0.5]), 1.0, 69), (bounded_potential([0.5]), -1.0, 11),
])
def test_plane_wave_counts_on_8x10(g, gamma, count):
    # every wave of the 8x10 lattice, and the largest power-law one, (j, m)
    # = (2, 5): c = 2 + 4, so rho solves rho^2 - 0.3 rho = 6
    params = LatticeParams(T=8, K=10, beta=1.0, epsilon=1.0, gamma=gamma)
    waves = plane_waves(params, g, np.inf)
    assert len(waves) == len(set(waves)) == count
    if g.kind == "power_law" and gamma > 0:
        assert max(waves, key=lambda w: w[2]) == (2, 5, (0.3 + np.sqrt(24.09)) / 2.0)


def test_residual_precond_is_preconditioned_direct():
    # the report's fixed-point residual is A^-1 of the direct one, which is
    # r_1 of the dense oracle
    params, op, _, _ = _setup(T=2, K=3, g=bounded_potential([1.0]), samples=0)
    g = bounded_potential([1.0])
    for _ in range(100):
        phi = random_field(2, 3, RNG, 3.0)
        direct = residual_direct(phi, params, g).flatten()
        pre = op.solve(direct)
        expected = slice_residual(phi.flatten(), op, g, 1.0)
        scale = max(np.max(np.abs(expected)), 1.0)
        assert np.max(np.abs(pre - expected)) <= 1e-11 * scale
        report = solver._report_at(phi.flatten(), op, g, 0, "converged", "newton")
        assert report.residual_precond == sup_norm(pre)


# ---------------------------------------------------------------------------
# Jacobians


def _fd_jacobian(phi, op, g, h=1e-7):
    # central differences of the direct residual d_1 in realified space
    base = realify(phi.flatten())
    n = base.size
    jac = np.empty((n, n))
    for j in range(n):
        bump = np.zeros(n)
        bump[j] = h
        fp = _slice_residual(complexify(base + bump), op, g, 1.0)
        fm = _slice_residual(complexify(base - bump), op, g, 1.0)
        jac[:, j] = (realify(fp) - realify(fm)) / (2 * h)
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
def test_slice_jacobian_matches_finite_differences(make_g):
    g = make_g()
    T = 2 if g.period == 2 else 1
    params, op, _, _ = _setup(T=T, K=3, g=g, samples=0)
    phi = random_field(T, 3, np.random.default_rng(77), 1.5)
    analytic = _slice_jacobian(phi.flatten(), op, g, 1.0)
    fd = _fd_jacobian(phi, op, g)
    denom = max(np.max(np.abs(fd)), 1.0)
    assert np.max(np.abs(analytic - fd)) / denom <= 1e-6


@pytest.mark.parametrize("T,K", [(1, 2), (2, 3), (3, 4)])
def test_slice_jacobian_matches_dense_oracle(T, K):
    # A_r - D with a dense A and a dense block-diagonal D, where D holds the
    # cubic and forcing derivative blocks minus the shift
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
    oracle = realified_matrix(shifted(op)) - diag
    jac = _slice_jacobian(flat, op, g, tau=1.0)
    assert np.max(np.abs(jac - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


def _quotient(op, period):
    """The operator of the period x 2 lattice with ``op``'s shift, on which
    ``homotopy_solve`` tracks."""
    return operators._build_shifted(replace(op.params, T=period, K=2), op.shift)


def _tiled(quotient_flat, period, T, K):
    """A flat field of the period x 2 quotient, constant in space, tiled to T x K."""
    return np.tile(quotient_flat.reshape(period, 2)[:, :1], (T // period, K)).ravel()


@pytest.mark.parametrize("T,K", [(8, 10), (12, 12)])
# the ids keep the "plain-" prefix these cases have had, so their names stay
@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0], ids=lambda tau: f"plain-{tau}")
def test_quotient_newton_step_tiles_to_the_full_lattice_step(T, K, tau):
    # at a field constant in space and periodic in time like the forcing,
    # the Newton step on the 2-node-per-period quotient, tiled, is the dense
    # step of the full lattice: J maps those fields to themselves and acts
    # on them as the quotient's J
    params = LatticeParams(T=T, K=K, beta=0.7, epsilon=1.3, gamma=-1.2)
    op = build_shifted(params, shift_factor=1.7)
    g = power_law([0.5, 0.2 + 0.3j], 2.5)
    quotient = _quotient(op, g.period)
    rng = np.random.default_rng(T * K)
    flat = np.repeat(random_field(g.period, 1, rng, 1.5).flatten(), 2)
    step = _newton_step(flat, _slice_residual(flat, quotient, g, tau), quotient, g, tau)
    full = _tiled(flat, g.period, T, K)
    dense = _newton_step(full, _slice_residual(full, op, g, tau), op, g, tau)
    assert np.max(np.abs(_tiled(step, g.period, T, K) - dense)) <= 1e-12 * np.max(np.abs(dense))


#: constant forcings whose quotient and full-lattice homotopy runs must
#: agree, with (Newton iterations, homotopy steps)
_PARITY = [
    ((12, 12, 1.0, 1.0), [3j, -1.0, 0.7], (19, 2)),
    ((6, 30, 1.0, 1.0), [3j, -1.0, 0.7], (19, 2)),
    ((16, 16, 1.0, 1.0), [2.0, 1.0 + 1.0j], (9, 2)),
    ((20, 12, 1.0, 1.0), [2.0, 1.0 + 1.0j], (9, 2)),
    ((16, 16, 1.0, 1.0), [0.5], (8, 2)),
    ((20, 12, 1.0, 1.0), [0.5], (8, 2)),
    ((6, 30, 0.5, 2.0), [3j, -1.0, 0.7], (21, 2)),
    ((6, 90, 0.5, 2.0), [3j, -1.0, 0.7], (21, 2)),
]


@pytest.mark.parametrize("lattice,coefficients,counts", _PARITY, ids=[
    f"{T}x{K}-beta{beta}-eps{eps}-period{len(c)}" for (T, K, beta, eps), c, _ in _PARITY])
def test_krylov_homotopy_matches_dense_outcome(lattice, coefficients, counts):
    # homotopy_solve tracks on the quotient; the same loop with dense steps
    # on the full lattice reaches the same zero with the same counts
    T, K, beta, epsilon = lattice
    params = LatticeParams(T=T, K=K, beta=beta, epsilon=epsilon, gamma=1.0)
    op = build_shifted(params, shift_factor=1.5)
    g = constant_potential(coefficients)
    cert = build_certificate(op, g, samples=200, seed=0)
    report = homotopy_solve(op, g, cert)
    x, iterations, status, path = solver._track(op, g, cert, solver.DEFAULT_TOL)
    assert (report.status, report.newton_iterations, report.homotopy_steps) == (
        "converged", *counts)
    assert (status, iterations, len(path) - 1) == ("converged", *counts)
    assert np.max(np.abs(report.solution.flatten() - x)) <= 1e-10


@settings(deadline=None, max_examples=30)
@given(
    period=st.integers(1, 4),
    cells=st.integers(1, 3),
    K=st.integers(2, 12),
    beta=st.floats(0.3, 3.0),
    epsilon=st.floats(0.3, 3.0),
    gamma=st.sampled_from([1.0, -1.0]),
    kind=st.sampled_from(sorted(_KINDS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_quotient_homotopy_matches_full_lattice_tracking(
    period, cells, K, beta, epsilon, gamma, kind, seed
):
    # the zero branch from the origin stays constant in space and periodic
    # in time like the forcing, so tracking it on the quotient and on the
    # full lattice finds the same field whenever both converge
    T = period * cells
    params = LatticeParams(T=T, K=K, beta=beta, epsilon=epsilon, gamma=gamma)
    op = build_shifted(params, shift_factor=1.5)
    rng = np.random.default_rng(seed)
    g = _KINDS[kind](rng.standard_normal(period) + 1j * rng.standard_normal(period))
    cert = build_certificate(op, g, samples=20, seed=0)
    assume(cert.valid)
    report = homotopy_solve(op, g, cert)
    values = report.solution
    assert np.array_equal(values, np.tile(values[:period, :1], (cells, K)))
    x, _, status, _ = solver._track(op, g, cert, solver.DEFAULT_TOL)
    if report.status == status == "converged":
        assert np.max(np.abs(values.ravel() - x)) <= 1e-10


@settings(deadline=None, max_examples=40)
@given(
    period=st.integers(1, 4),
    cells=st.integers(1, 3),
    K=st.integers(2, 12),
    gamma=st.sampled_from([1.0, -1.0]),
    kind=st.sampled_from(sorted(_KINDS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_direct_residual_of_a_tiled_field_is_the_tiled_quotient_residual(
    period, cells, K, gamma, kind, seed
):
    # the stencil and the nodewise terms meet the same operands at every
    # node of the tile, so the bits agree and the quotient's convergence
    # test holds on the full lattice
    T = period * cells
    params = LatticeParams(T=T, K=K, beta=0.8, epsilon=1.7, gamma=gamma)
    rng = np.random.default_rng(seed)
    g = _KINDS[kind](rng.standard_normal(period) + 1j * rng.standard_normal(period))
    row = random_field(period, 1, rng, 3.0).flatten()
    quotient = np.repeat(row, 2).reshape(period, 2)
    full = _tiled(np.repeat(row, 2), period, T, K).reshape(T, K)
    residual = residual_direct(quotient, replace(params, T=period, K=2), g)
    assert np.array_equal(residual_direct(full, params, g), np.tile(residual[:, :1], (cells, K)))


def test_large_lattice_builds_no_dense_operator_matrix():
    # the certificate and the report apply A^-1 by FFT, and the homotopy
    # tracks on the 2 x 2 quotient, so no dense n x n matrix is gathered,
    # and the tiled endpoint meets the tolerance on 65536 nodes
    params = LatticeParams(T=256, K=256, beta=1.0, epsilon=1.0, gamma=1.0)
    op = build_shifted(params, shift_factor=1.5)
    g = constant_potential([2.0, 1.0 + 1.0j])
    cert = build_certificate(op, g, samples=20, seed=0)
    report = homotopy_solve(op, g, cert)
    assert report.status == "converged"
    assert report.residual_direct <= solver.DEFAULT_TOL
    assert all(np.size(value) <= params.dim for value in vars(op).values())


def test_odd_slice_jacobian_at_origin_is_identity():
    # at tau = 0 and phi = 0 the cubic's derivative vanishes, so M = A_r and
    # the fixed-point Jacobian A_r^-1 M is I
    params, op, g, _ = _setup(T=2, K=2, samples=0)
    jac = _slice_jacobian(np.zeros(4, dtype=complex), op, g, tau=0.0)
    assert np.array_equal(jac, realified_matrix(shifted(op)))
    assert_allclose(np.linalg.solve(realified_matrix(shifted(op)), jac), np.eye(8), atol=1e-14)


# ---------------------------------------------------------------------------
# Newton


def _direct_newton(start, op, g, tol=solver.DEFAULT_TOL):
    """Damped Newton on the tau = 1 slice from one start, converged on the
    direct residual."""
    x, _, iterations, status = solver._damped_newton(start.flatten()[None], op, g, 1.0, tol, 100)
    return solver._report_at(x[0], op, g, iterations[0], status[0], "newton")


def test_newton_unforced_origin_is_instant():
    params, op, g, _ = _setup(samples=0)
    report = _direct_newton(np.zeros((1, 2), dtype=complex), op, g)
    assert report.status == "converged"
    assert report.newton_iterations == 0
    assert report.residual_direct == 0.0


def test_newton_converged_means_residual_below_tol():
    g = constant_potential([0.3])
    params, op, _, _ = _setup(T=1, K=3, g=g, samples=0)
    # the origin itself is a singular start here (the unshifted operator kills
    # constants), so begin from a nearby constant field
    start = np.full((1, 3), 0.5 + 0j)
    report = _direct_newton(start, op, g, tol=1e-12)
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


def test_homotopy_stops_when_an_accepted_step_leaves_the_ball():
    forcing = constant_potential([0.5])
    _, op, _, cert = _setup(T=3, K=2, g=forcing)
    full = homotopy_solve(op, forcing, cert)
    assert full.status == "converged" and len(full.path) == 3
    # a ball smaller than the first accepted point on the branch: tracking
    # stops there, before tau = 1
    small = replace(cert, radius=0.5 * full.path[1][1])
    report = homotopy_solve(op, forcing, small)
    assert report.status == "left_ball"
    assert report.method == "homotopy"
    assert report.path == full.path[:2]
    assert report.homotopy_steps == 1
    assert sup_norm(report.solution) == report.path[-1][1] > small.radius


def test_homotopy_stops_on_the_sphere_itself():
    # the certificate says nothing about the sphere, so an accepted point
    # with sup norm exactly the radius also ends tracking
    forcing = constant_potential([0.5])
    _, op, _, cert = _setup(T=3, K=2, g=forcing)
    full = homotopy_solve(op, forcing, cert)
    report = homotopy_solve(op, forcing, replace(cert, radius=full.path[1][1]))
    assert report.status == "left_ball"
    assert report.homotopy_steps == 1
    assert report.path == full.path[:2]


def test_homotopy_diverges_at_the_step_floor(monkeypatch):
    # a corrector with no iterations never converges on a forced slice, so
    # the step halves from 1 until it drops below STEP_FLOOR
    monkeypatch.setattr(solver, "CORRECTOR_ITER", 0)
    forcing = constant_potential([0.5])
    _, op, _, cert = _setup(T=3, K=2, g=forcing)
    report = homotopy_solve(op, forcing, cert)
    assert report.status == "diverged"
    assert report.method == "homotopy"
    assert report.homotopy_steps == 0 and report.newton_iterations == 0
    assert report.path == ((0.0, 0.0),)
    assert sup_norm(report.solution) == 0.0


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
        assert np.array_equal(ra.solution, rb.solution)
        assert ra.residual_direct == rb.residual_direct
        assert ra.status == rb.status


@pytest.mark.parametrize("T,K,potential,gamma,count", [
    (8, 10, power_law([0.3], 2.0), 1.0, 5),
    (12, 12, constant_potential([2.0, 1.0 + 1.0j]), 1.0, 2),
])
def test_multi_start_counts_match_exact_steps(T, K, potential, gamma, count):
    # counts found with exact dense Newton steps line-searched on the direct
    # residual; on the fixed-point residual they found 8 at 8x10, and
    # inexact Krylov steps 6
    params = LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=gamma)
    op = build_shifted(params, shift_factor=1.5)
    cert = build_certificate(op, potential, samples=100, seed=0)
    assert len(multi_start(op, potential, cert, n_starts=16, seed=1)) == count


@pytest.mark.parametrize("g,gamma,waves,others", [
    (power_law([0.3], 2.0), 1.0, 4, 0), (power_law([0.3], 2.0), -1.0, 10, 0),
    (bounded_potential([0.5]), 1.0, 4, 1), (bounded_potential([0.5]), -1.0, 12, 1),
])
def test_multi_start_uniform_modulus_zeros_are_oracle_plane_waves(g, gamma, waves, others):
    # every nonzero zero of uniform modulus that multi_start returns on 8x10
    # (16 starts, seed 1) is one of the oracle's plane waves times a global
    # phase, the best one arg <wave, zero>; ``others`` zeros are not uniform
    params = LatticeParams(T=8, K=10, beta=1.0, epsilon=1.0, gamma=gamma)
    op = build_shifted(params, shift_factor=1.5)
    cert = build_certificate(op, g, samples=100, seed=0)
    oracle = [plane_wave(params, j, m, rho) for j, m, rho in plane_waves(params, g, cert.radius)]
    matched, rest = 0, 0
    for report in multi_start(op, g, cert, n_starts=16, seed=1):
        field, size = report.solution, sup_norm(report.solution)
        if size <= 1e-12:
            continue  # the origin
        if np.ptp(np.abs(field)) > 1e-8 * size:
            rest += 1
            continue
        distance = min(sup_norm(field - wave * np.exp(1j * np.angle(np.vdot(wave, field))))
                       for wave in oracle)
        assert distance <= 1e-9, (report.residual_direct, distance)
        matched += 1
    assert (matched, rest) == (waves, others)


def test_multi_start_requires_valid_certificate():
    _, op, g, cert = _setup(samples=0)
    with pytest.raises(CertificateInvalid, match="failed its boundary check"):
        multi_start(op, g, cert)


# ---------------------------------------------------------------------------
# steady states


def test_tile_steady_shapes_and_values():
    u = np.array([1 + 1j, 2.0, -3j])
    phi = tile_steady(u, 4)
    assert phi.shape == (4, 3)
    for t in range(4):
        assert_allclose(phi[t], u)


def _steady(K, epsilon, gamma, h, n_starts=16):
    """steady_state_solve on the T = 1 operator and certificate of a config
    with K nodes and the CLI's defaults; returns the profile and report."""
    params = LatticeParams(T=1, K=K, beta=1.0, epsilon=epsilon, gamma=gamma)
    op = build_shifted(params, shift_factor=1.5)
    report = steady_state_solve(op, h, build_certificate(op, h), n_starts=n_starts)
    return report.solution[0], report


@pytest.mark.parametrize("K", [2, 3, 5, 8])
def test_steady_constant_forcing_eight(K):
    # epsilon-coupling cancels on constant profiles, so gamma u^3 = h gives u = 2
    profile, report = _steady(K, epsilon=1.0, gamma=1.0, h=constant_potential([8.0]))
    assert_allclose(profile, 2.0, atol=1e-9)
    assert report.residual_direct <= 1e-10


def test_steady_profile_solves_spatial_equation():
    K = 5
    profile, _ = _steady(K, epsilon=0.7, gamma=1.3, h=constant_potential([2.0]))
    # independent check: eps*(roll-2+roll) + gamma|u|^2 u = h at every node
    lap = np.roll(profile, -1) - 2.0 * profile + np.roll(profile, 1)
    res = 0.7 * lap + 1.3 * np.abs(profile) ** 2 * profile - 2.0
    assert np.max(np.abs(res)) <= 1e-10


def test_steady_unforced_is_zero():
    profile, _ = _steady(3, epsilon=1.0, gamma=1.0, h=zero_potential())
    assert_allclose(profile, 0.0, atol=1e-12)


def test_steady_profile_lifts_to_periodic_solution():
    profile, report = _steady(4, epsilon=1.0, gamma=1.0, h=constant_potential([8.0]))
    lifted = tile_steady(profile, 5)
    params = LatticeParams(T=5, K=4, beta=1.0, epsilon=1.0, gamma=1.0)
    res = residual_direct(lifted, params, constant_potential([8.0]))
    # time differences vanish on time-constant fields, so the residual carries over
    assert sup_norm(res) <= 1e-10


def test_steady_rejects_time_varying_forcing():
    _, op, _, cert = _setup(T=1, K=3, g=constant_potential([1.0]), samples=100)
    with pytest.raises(ValueError):
        steady_state_solve(op, constant_potential([1.0, 2.0]), cert)


def test_steady_rejects_an_operator_with_more_than_one_time_slice():
    _, op, g, cert = _setup(T=2, K=3, samples=100)
    with pytest.raises(ValueError, match="T = 1, got T = 2"):
        steady_state_solve(op, g, cert)


def _diverged_homotopy(op, g, cert, **kwargs):
    flat = np.zeros(op.dim, dtype=complex)
    return solver._report_at(flat, op, g, 0, "diverged", "homotopy", 0, ((0.0, 0.0),))


def test_steady_falls_back_to_multi_start(monkeypatch):
    monkeypatch.setattr(solver, "homotopy_solve", _diverged_homotopy)
    h = constant_potential([2.0])
    profile, report = _steady(6, epsilon=1.0, gamma=1.0, h=h, n_starts=8)
    assert report.method == "multi_start"
    assert report.status == "converged"
    params = LatticeParams(T=1, K=6, beta=1.0, epsilon=1.0, gamma=1.0)
    assert sup_norm(residual_direct(tile_steady(profile, 1), params, h)) <= 1e-10


def test_steady_without_starts_fails_when_homotopy_does(monkeypatch):
    monkeypatch.setattr(solver, "homotopy_solve", _diverged_homotopy)
    with pytest.raises(SolveFailed, match="diverged"):
        _steady(6, 1.0, 1.0, constant_potential([2.0]), n_starts=0)
