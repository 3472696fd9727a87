"""Lattice fields and the pointwise operators: stencils, periodicity, norms."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from dnls import (
    LatticeParams,
    PeriodMismatch,
    build_certificate,
    build_shifted,
    constant_potential,
    estimate_degree,
    homotopy_solve,
    power_law,
    residual_direct,
    sup_norm,
    zero_potential,
)
from dnls import certificate, solver
from dnls.lattice import _linear
from oracles import random_field

RNG = np.random.default_rng(20240817)


def _params(T=4, K=4, beta=1.0, epsilon=1.0, gamma=1.0):
    return LatticeParams(T=T, K=K, beta=beta, epsilon=epsilon, gamma=gamma)


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(T=0, K=2, beta=1.0, epsilon=1.0, gamma=1.0),
        dict(T=1, K=1, beta=1.0, epsilon=1.0, gamma=1.0),
        dict(T=1, K=2, beta=0.0, epsilon=1.0, gamma=1.0),
        dict(T=1, K=2, beta=-1.0, epsilon=1.0, gamma=1.0),
        dict(T=1, K=2, beta=1.0, epsilon=0.0, gamma=1.0),
        dict(T=1, K=2, beta=1.0, epsilon=1.0, gamma=0.0),
        dict(T=1.5, K=2, beta=1.0, epsilon=1.0, gamma=1.0),
    ],
)
def test_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        LatticeParams(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [("T", True), ("K", True), ("beta", np.inf), ("epsilon", np.inf), ("gamma", np.nan),
     ("gamma", -np.inf)],
)
def test_params_rejects_bool_periods_and_non_finite_coefficients(field, value):
    kwargs = dict(T=2, K=4, beta=1.0, epsilon=1.0, gamma=1.0)
    with pytest.raises(ValueError, match=f"{field} must be (an integer|finite)"):
        LatticeParams(**{**kwargs, field: value})


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("field", ["T", "K"])
def test_params_rejects_non_finite_periods(field, value):
    kwargs = dict(T=2, K=4, beta=1.0, epsilon=1.0, gamma=1.0)
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        LatticeParams(**{**kwargs, field: value})


def test_params_dim_and_normalization():
    p = LatticeParams(T=3, K=5, beta=2, epsilon=1, gamma=-1)
    assert p.dim == 15
    assert isinstance(p.beta, float) and isinstance(p.T, int)


# ---------------------------------------------------------------------------
# fields are read-only (T, K) arrays in reports and records


def test_field_values_are_immutable():
    op = build_shifted(_params(T=2, K=3), shift_factor=1.5)
    g = power_law([0.5], 2.0)
    cert = build_certificate(op, g, samples=10)
    report = homotopy_solve(op, g, cert)
    degree = estimate_degree("full", op, g, cert, n_starts=2)
    records = degree.zeros + degree.degenerate
    assert records
    for field in [report.solution] + [rec.field for rec in records]:
        assert field.shape == (2, 3) and field.dtype == complex
        with pytest.raises(ValueError):
            field[0, 0] = 1.0


def test_flat_roundtrip_is_row_major():
    flat = np.arange(6, dtype=float) + 0j
    field = solver._field(flat, _params(T=2, K=3))
    # node (t, k) lives at flat index t*K + k
    assert field[1, 2] == flat[1 * 3 + 2]
    assert np.array_equal(field.ravel(), flat)
    flat[0] = 9.0  # the field is a copy
    assert field[0, 0] == 0.0


# ---------------------------------------------------------------------------
# sup norm


def test_sup_norm_zero_field():
    assert sup_norm(np.zeros((5, 7), dtype=complex)) == 0.0


def test_sup_norm_single_entry():
    vals = np.zeros((2, 3), dtype=complex)
    vals[1, 2] = 3 + 4j
    assert sup_norm(vals) == pytest.approx(5.0)


def test_sup_norm_matches_bruteforce_max():
    phi = random_field(6, 5, RNG, 3.0)
    brute = max(abs(phi[t, k]) for t in range(6) for k in range(5))
    assert sup_norm(phi) == pytest.approx(brute, rel=0, abs=0)


# ---------------------------------------------------------------------------
# difference stencils, through the linear part ``lattice._linear``: a field
# constant in k has no Laplacian and one with T in {1, 2} no time difference


def test_central_time_diff_annihilates_constants():
    phi = np.full((5, 4), 2.5 - 1j)
    assert sup_norm(_linear(phi, _params(T=5))) == 0.0


@pytest.mark.parametrize("T", [1, 2])
def test_central_time_diff_vanishes_for_short_periods(T):
    # T = 1: t+1 and t-1 both wrap to t; T = 2: they wrap to the same slice,
    # so beta drops out bit for bit
    phi = random_field(T, 5, RNG, 2.0)
    params = _params(T=T, K=5)
    assert np.array_equal(_linear(phi, params), _linear(phi, replace(params, beta=3.0)))


def test_central_time_diff_matches_shifted_reads():
    phi = np.repeat(random_field(5, 1, RNG, 2.0), 3, axis=1)
    out = _linear(phi, _params(T=5, K=3))
    for t in range(5):
        for k in range(3):
            assert out[t, k] == 1j * (phi[(t + 1) % 5, k] - phi[(t - 1) % 5, k])


def test_spatial_laplacian_annihilates_constants():
    phi = np.full((3, 6), -0.5 + 2j)
    assert sup_norm(_linear(phi, _params(T=3, K=6))) == 0.0


def test_spatial_laplacian_stencil_exact():
    phi = random_field(1, 7, RNG, 2.0)
    out = _linear(phi, _params(T=1, K=7))
    for k in range(7):
        assert out[0, k] == phi[0, (k + 1) % 7] - 2 * phi[0, k] + phi[0, k - 1]


def test_spatial_laplacian_k2_collapse():
    # k+1 and k-1 are the same neighbor mod 2, so the stencil is 2(other - self)
    vals = np.array([[1 + 2j, -3 + 0.5j]])
    out = _linear(vals, _params(T=1, K=2))
    a, b = vals[0]
    assert out[0, 0] == 2 * (b - a)
    assert out[0, 1] == 2 * (a - b)


def test_spatial_laplacian_fourth_root_pattern():
    # phi(t, k) = i^k on K = 4 is an eigenvector with eigenvalue -2
    vals = np.tile(1j ** np.arange(4), (3, 1))
    assert_allclose(_linear(vals, _params(T=3, K=4)), -2.0 * vals, atol=1e-15)


# ---------------------------------------------------------------------------
# the linear operator


def test_apply_linear_annihilates_constants():
    phi = np.full((4, 4), 1.5 + 0.5j)
    assert sup_norm(_linear(phi, _params())) == 0.0


def test_apply_linear_delta_stencil():
    params = _params(T=4, K=4, beta=1.0, epsilon=1.0)
    vals = np.zeros((4, 4), dtype=complex)
    vals[0, 0] = 1.0
    out = _linear(vals, params)
    expect = np.zeros((4, 4), dtype=complex)
    # i*beta moves mass to the time neighbors of the source, with opposite signs
    expect[1, 0] = -1j
    expect[3, 0] = 1j
    expect[0, 1] = 1.0
    expect[0, 3] = 1.0
    expect[0, 0] = -2.0
    assert_allclose(out, expect, atol=1e-15)


def test_apply_linear_is_complex_linear():
    params = _params(T=3, K=5)
    scale_errs = []
    for _ in range(100):
        a = complex(RNG.normal(), RNG.normal())
        b = complex(RNG.normal(), RNG.normal())
        phi = random_field(3, 5, RNG, 2.0)
        psi = random_field(3, 5, RNG, 2.0)
        combo = _linear(a * phi + b * psi, params)
        split = a * _linear(phi, params) + b * _linear(psi, params)
        scale = max(sup_norm(combo), 1.0)
        scale_errs.append(sup_norm(combo - split) / scale)
    assert max(scale_errs) <= 1e-13


# ---------------------------------------------------------------------------
# the cubic term: the linear part annihilates a constant field, so without
# forcing its residual is minus the cubic term, gamma |c|^2 c


def _cubic(values, params):
    """-gamma |c|^2 c at each entry c, as minus the residual of the constant
    field c on the lattice of ``params`` without forcing (one stacked call)."""
    c = np.asarray(values, dtype=complex)
    stack = np.broadcast_to(c[..., None, None], c.shape + (params.T, params.K))
    return -residual_direct(stack, params, zero_potential())[..., 0, 0]


def test_apply_cubic_pointwise_value():
    params = _params(T=1, K=2, gamma=2.0)
    out = _cubic([1 + 1j, 0.0], params)
    assert out[0] == pytest.approx(-4 - 4j)
    assert out[1] == 0


@settings(deadline=None, max_examples=50)
@given(
    arrays(np.complex128, (3, 4),
           elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                       allow_infinity=False)),
    st.floats(min_value=-5.0, max_value=5.0).filter(lambda x: abs(x) > 1e-3),
)
def test_apply_cubic_is_odd_and_obeys_norm_law(vals, gamma):
    params = _params(T=3, K=4, gamma=gamma)
    plus = _cubic(vals, params)
    minus = _cubic(-vals, params)
    assert np.max(np.abs(plus + minus)) <= 1e-14 * max(1.0, sup_norm(plus))
    expected = abs(gamma) * sup_norm(vals) ** 3
    assert abs(sup_norm(plus) - expected) <= 1e-12 * max(expected, 1e-300)
    # without forcing the whole residual is odd too, bit for bit
    assert np.array_equal(residual_direct(-vals, params, zero_potential()),
                          -residual_direct(vals, params, zero_potential()))


# ---------------------------------------------------------------------------
# the forcing term: what it adds to the unforced residual


def _forcing(phi, g):
    params = _params(T=phi.shape[0], K=phi.shape[1])
    return residual_direct(phi, params, zero_potential()) - residual_direct(phi, params, g)


def test_apply_forcing_zero_potential():
    phi = random_field(4, 3, RNG, 2.0)
    assert sup_norm(_forcing(phi, zero_potential())) == 0.0


def test_apply_forcing_alternating_linear():
    # g(t, z) = f(t) * z with f = [1, -1]: flips the sign on odd time slices
    g = power_law([1.0, -1.0], 1.0)
    phi = random_field(4, 3, RNG, 2.0)
    out = _forcing(phi, g)
    assert_allclose(out[0], phi[0], atol=1e-14)
    assert_allclose(out[1], -phi[1], atol=1e-14)
    assert_allclose(out[2], phi[2], atol=1e-14)
    assert_allclose(out[3], -phi[3], atol=1e-14)


def test_apply_forcing_rejects_incompatible_period():
    g = power_law([1.0, -1.0], 1.0)  # period 2
    phi = random_field(3, 3, RNG, 1.0)
    with pytest.raises(PeriodMismatch):
        residual_direct(phi, _params(T=3, K=3), g)


def test_apply_forcing_accepts_dividing_period():
    g = power_law([2.0, 3.0], 1.0)  # period 2 divides T = 4
    phi = random_field(4, 2, RNG, 1.0)
    out = _forcing(phi, g)
    assert_allclose(out[2], 2.0 * phi[2], atol=1e-14)
    assert_allclose(out[3], 3.0 * phi[3], atol=1e-14)


@pytest.mark.parametrize("entry", ["build_certificate", "homotopy_solve", "estimate_degree"])
def test_period_mismatch_fails_before_any_work(entry, monkeypatch):
    op = build_shifted(_params(T=16, K=16), shift_factor=1.5)
    cert = build_certificate(op, constant_potential([2.0]), samples=10)
    assert cert.valid
    g = constant_potential([1.0, 2.0, 3.0])  # period 3 does not divide T = 16

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the period check")

    monkeypatch.setattr(solver, "_damped_newton", forbidden)
    monkeypatch.setattr(certificate, "sphere_samples", forbidden)
    calls = {
        "build_certificate": lambda: build_certificate(op, g, samples=10),
        "homotopy_solve": lambda: homotopy_solve(op, g, cert),
        "estimate_degree": lambda: estimate_degree("full", op, g, cert, n_starts=2),
    }
    with pytest.raises(PeriodMismatch, match="period 3 does not divide"):
        calls[entry]()


def test_random_field_respects_radius():
    phi = random_field(5, 5, np.random.default_rng(7), 0.75)
    assert sup_norm(phi) <= 0.75
