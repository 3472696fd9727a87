"""Forcing potentials: evaluation, bounds, derivatives."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dnls import (
    EmptyCoefficients,
    InvalidExponent,
    NoThresholdFound,
    Potential,
    bounded_potential,
    constant_potential,
    power_law,
    zero_potential,
)
from oracles import circle_moduli


# ---------------------------------------------------------------------------
# power-law evaluation


def test_power_law_linear_is_identity_times_coeff():
    g = power_law([1.0], 1.0)
    assert g.evaluate(0, 3 + 4j) == pytest.approx(3 + 4j)


def test_power_law_quadratic_value():
    g = power_law([1.0], 2.0)
    z = 1 + 1j
    assert g.evaluate(0, z) == pytest.approx(np.sqrt(2) * (1 + 1j))


def test_power_law_time_periodicity():
    g = power_law([1.0, 2.0, 3.0], 1.5)
    z = 0.3 - 0.8j
    for t in range(9):
        assert g.evaluate(t, z) == g.evaluate(t % 3, z)
    assert g.period == 3


def test_power_law_zero_input_is_safe_for_small_exponents():
    # |0|^r is fine for r > 0 but the naive 0**(r-1) * 0 form would blow up
    for r in (0.25, 0.5, 0.75):
        g = power_law([1.0], r)
        assert g.evaluate(0, 0j) == 0


@settings(deadline=None, max_examples=60)
@given(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=50.0,
                       allow_nan=False, allow_infinity=False),
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5]),
)
def test_power_law_modulus_and_oddness(z, r):
    g = power_law([0.7, -0.2 + 0.1j], r)
    for t in (0, 1):
        f = g.coefficients[t]
        val = complex(g.evaluate(t, z))
        assert abs(val) == pytest.approx(abs(f) * abs(z) ** r, rel=1e-12)
        # the modulus factor carries no phase, so g(-z) = -g(z)
        assert complex(g.evaluate(t, -z)) == pytest.approx(-val, rel=1e-12)


def test_power_law_threshold_beats_cubic_beyond_radius():
    g = power_law([1.0], 2.0)
    radius = g.threshold_formula(0.5)
    assert radius == pytest.approx(2.0)
    # at the threshold the sup of |g| on the disk equals coef * radius^3 ...
    assert g.sup_formula(radius) == pytest.approx(0.5 * radius**3)
    # ... and beyond it the cubic side wins
    assert g.sup_formula(3.0) < 0.5 * 27.0
    assert g.sup_formula(1.5) > 0.5 * 1.5**3


def test_power_law_sup_formula():
    g = power_law([0.5, 2.0], 2.0)
    assert g.sup_formula(3.0) == pytest.approx(2.0 * 9.0)


@pytest.mark.parametrize("r", [0.0, -1.0])
def test_power_law_rejects_bad_exponents(r):
    with pytest.raises(InvalidExponent):
        power_law([1.0], r)


def test_power_law_rejects_empty_coefficients():
    with pytest.raises(EmptyCoefficients):
        power_law([], 1.0)
    with pytest.raises(EmptyCoefficients):  # before the exponent is checked
        power_law([], 0.0)


# ---------------------------------------------------------------------------
# bounded potential


def test_bounded_zero_maps_to_zero():
    g = bounded_potential([2.0])
    assert g.evaluate(0, 0j) == 0


def test_bounded_value_and_sup():
    g = bounded_potential([2.0])
    # f * z / (1 + |z|^2): at z = 1 this is 2 * 1 / 2 = 1
    assert g.evaluate(0, 1.0 + 0j) == pytest.approx(1.0)
    assert g.sup_formula(np.inf) == pytest.approx(1.0)


def test_bounded_sup_dominates_grid():
    g = bounded_potential([1.5, -0.5])
    sup = g.sup_formula(np.inf)
    moduli = np.linspace(0, 40, 400)
    phases = np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
    grid_max = max(
        float(np.abs(g.evaluate(t, m * p)))
        for t in (0, 1) for m in moduli for p in phases
    )
    assert grid_max <= sup + 1e-12
    # the bound is tight: the response peaks at |z| = 1 with value max|f| / 2
    assert grid_max >= 0.99 * sup


def test_bounded_threshold_satisfies_defining_inequality():
    g = bounded_potential([2.0])
    coef = 0.3
    rho = g.threshold_formula(coef)
    # at the threshold, f*rho/(1+rho^2) = coef*rho^3 up to rounding
    lhs = 2.0 * rho / (1.0 + rho * rho)
    assert lhs == pytest.approx(coef * rho**3, rel=1e-12)


def test_bounded_is_odd():
    g = bounded_potential([1.0, 2.0])
    z = 0.4 + 1.1j
    assert complex(g.evaluate(1, -z)) == pytest.approx(-complex(g.evaluate(1, z)))


# ---------------------------------------------------------------------------
# constant and zero potentials


def test_constant_potential_values_and_derivative():
    g = constant_potential([8.0])
    assert g.evaluate(0, 123 + 4j) == 8.0
    assert_allclose(np.asarray(g.derivative(0, 2.0 + 1j)), 0.0)
    assert g.sup_formula(5.0) == pytest.approx(8.0)


def test_constant_threshold_uses_cube_root():
    # |F| <= coef * R^3 first holds at R = (F / coef)^(1/3)
    g = constant_potential([8.0])
    assert g.threshold_formula(1.0) == pytest.approx(2.0)


def test_zero_potential_formulas():
    g = zero_potential()
    assert g.evaluate(3, 5 + 5j) == 0
    assert g.threshold_formula(0.3) == pytest.approx(1.0)
    assert g.sup_formula(np.inf) == 0.0
    assert_allclose(g.derivative(0, 1.0 + 1j), np.zeros((2, 2)))


def test_zero_potential_rejects_empty_period():
    with pytest.raises(ValueError):
        zero_potential(0)


def test_zero_potential_is_zero_of_the_broadcast_shape():
    g = zero_potential(3)
    assert (g.kind, g.coefficients, g.period) == ("zero", (), 3)
    grid = np.array([[1 + 2j, -3j], [0j, 4.0]])
    cases = [
        (2, 1 + 1j, ()),
        (2, grid, (2, 2)),
        (np.array([0, 4]), grid, (2, 2)),
        (np.arange(3)[:, None, None], grid, (3, 2, 2)),
    ]
    for t, z, shape in cases:
        values = np.asarray(g.evaluate(t, z))
        assert values.dtype == complex and values.shape == shape
        assert not values.any()
        blocks = np.asarray(g.derivative(t, z))
        assert blocks.dtype == float and blocks.shape == shape + (2, 2)
        assert not blocks.any()


# ---------------------------------------------------------------------------
# closed forms, pinned exactly: |g| = |f(t)| * |z|^r gives the threshold
# (fmax / coef)^(1 / (3 - r)), or 1 when f = 0, and the sup fmax * R^r


_CLOSED_FORM_COEFFS = [[0.0], [0.0, 0.0], [2.0], [2.0, 1 + 1j], [-0.3j, 0.05], [8.0]]
_CLOSED_FORM_COEFS = [1e-3, 0.3, 1.0, 7.5]
_CLOSED_FORM_RADII = [0.0, 0.5, 1.0, 3.7, 1e3]


def _fmax(f):
    return max(abs(complex(c)) for c in f)


@pytest.mark.parametrize("f", _CLOSED_FORM_COEFFS)
def test_constant_closed_forms_are_exact(f):
    g = constant_potential(f)
    fmax = _fmax(f)
    for coef in _CLOSED_FORM_COEFS:
        expected = 1.0 if fmax == 0.0 else (fmax / coef) ** (1.0 / 3.0)
        assert g.threshold_formula(coef) == expected
    for radius in _CLOSED_FORM_RADII:
        assert g.sup_formula(radius) == fmax


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 2.5])
@pytest.mark.parametrize("f", _CLOSED_FORM_COEFFS)
def test_power_law_closed_forms_are_exact(f, r):
    g = power_law(f, r)
    fmax = _fmax(f)
    for coef in _CLOSED_FORM_COEFS:
        expected = 1.0 if fmax == 0.0 else (fmax / coef) ** (1.0 / (3.0 - r))
        assert g.threshold_formula(coef) == expected
    for radius in _CLOSED_FORM_RADII:
        assert g.sup_formula(radius) == fmax * radius**r


@pytest.mark.parametrize("r", [3.0, 3.5, 6.0])
@pytest.mark.parametrize("f", _CLOSED_FORM_COEFFS)
def test_cubic_and_steeper_power_law_closed_forms_are_exact(f, r):
    # beyond r = 3 only f = 0 has a threshold; at r = 3 every radius works
    # exactly when max|f| < coef, and none otherwise
    g = power_law(f, r)
    fmax = _fmax(f)
    for coef in _CLOSED_FORM_COEFS + [fmax]:
        if fmax == 0.0 or (r == 3.0 and fmax < coef):
            assert g.threshold_formula(coef) == (1.0 if fmax == 0.0 else 0.0)
        elif coef > 0.0:
            with pytest.raises(NoThresholdFound):
                g.threshold_formula(coef)
    for radius in _CLOSED_FORM_RADII:
        assert g.sup_formula(radius) == fmax * radius**r


@pytest.mark.parametrize("period", [1, 2, 5])
def test_zero_closed_forms_are_exact(period):
    g = zero_potential(period)
    for coef in _CLOSED_FORM_COEFS:
        assert g.threshold_formula(coef) == 1.0
    for radius in _CLOSED_FORM_RADII + [np.inf]:
        assert g.sup_formula(radius) == 0.0


# ---------------------------------------------------------------------------
# derivatives against finite differences


@pytest.mark.parametrize(
    "g",
    [
        power_law([1.0], 2.0),
        power_law([0.5, -0.25], 1.0),
        power_law([1.0], 0.5),
        bounded_potential([2.0]),
        bounded_potential([1.0, 3.0]),
        constant_potential([8.0]),
        zero_potential(2),
        # id kept from the constructor without closed forms that r = 3 once needed
        power_law([0.1], 3.0),
    ],
    ids=["quadratic", "linear-2period", "sqrt", "bounded", "bounded-2period",
         "constant", "zero-2period", "cubic-unchecked"],
)
def test_derivative_matches_central_differences(g):
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        if abs(z) < 0.3:
            z += 0.5  # keep away from the r < 1 kink at the origin
        t = int(rng.integers(0, g.period))
        block = np.asarray(g.derivative(t, z), dtype=float)
        h = 1e-6 * (1 + abs(z))
        fd = np.empty((2, 2))
        for j, dz in enumerate((h, 1j * h)):
            diff = complex(g.evaluate(t, z + dz) - g.evaluate(t, z - dz)) / (2 * h)
            fd[0, j] = diff.real
            fd[1, j] = diff.imag
        assert_allclose(block, fd, rtol=1e-5, atol=1e-7)


def test_potential_requires_a_derivative():
    # the Newton steps take the forcing's Jacobian from the family itself
    with pytest.raises(TypeError):
        Potential(period=1, evaluate=lambda t, z: np.zeros_like(z))


# ---------------------------------------------------------------------------
# whole-lattice evaluation


_COEFFS = st.lists(
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=3,
)


def _families(coeffs):
    return st.one_of(
        st.builds(power_law, coeffs, st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5])),
        st.builds(bounded_potential, coeffs),
        st.builds(zero_potential, st.integers(1, 3)),
        st.builds(constant_potential, coeffs),
    )


_FAMILIES = _families(_COEFFS)


@st.composite
def _lattices(draw):
    T, K = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    nodes = draw(st.lists(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                           allow_nan=False, allow_infinity=False),
        min_size=T * K, max_size=T * K,
    ))
    zeros = draw(st.lists(st.booleans(), min_size=T * K, max_size=T * K))
    grid = np.array(nodes, dtype=complex)
    grid[np.array(zeros)] = 0.0
    grid[0] = 0.0  # always include the origin
    return grid.reshape(T, K)


@settings(deadline=None, max_examples=80)
@given(_FAMILIES, _lattices())
# |z| ** 2 of a float64 scalar and of an array differed in the last bit here
@example(bounded_potential([1 + 0j]), np.array([[0j, -653.6189361759148 - 704.3761630187648j]]))
def test_lattice_calls_match_per_node_calls(g, grid):
    T, K = grid.shape
    times = np.arange(T)[:, None]
    values = np.asarray(g.evaluate(times, grid))
    nodewise = np.array([[complex(g.evaluate(t, grid[t, k])) for k in range(K)]
                         for t in range(T)])
    assert values.shape == (T, K)
    assert values.astype(complex).tobytes() == nodewise.tobytes()
    assert g.on_lattice(grid).tobytes() == nodewise.tobytes()

    blocks = np.asarray(g.derivative(times, grid))
    assert blocks.shape == (T, K, 2, 2)
    for t in range(T):
        for k in range(K):
            block = np.asarray(g.derivative(t, grid[t, k]), dtype=float)
            assert block.shape == (2, 2)
            scale = max(1.0, float(np.abs(block).max()))
            assert np.abs(blocks[t, k] - block).max() <= 1e-15 * scale


# magnitudes 0 or at least 1e-3 keep the compared moduli normal floats, where
# a relative slack means something (subnormals round in absolute terms)
_NORMAL_COEFFS = st.lists(
    st.just(0j) | st.complex_numbers(min_magnitude=1e-3, max_magnitude=5.0,
                                     allow_nan=False, allow_infinity=False),
    min_size=1, max_size=3,
)


@settings(deadline=None, max_examples=80)
@given(
    _families(_NORMAL_COEFFS)
    | st.builds(power_law, _NORMAL_COEFFS, st.sampled_from([3.0, 3.25, 3.5, 4.0, 5.0, 6.0])),
    st.floats(1e-2, 1e2),
    st.just(0.0) | st.floats(1e-3, 50.0),
)
def test_closed_forms_bound_sampled_moduli(g, coef, radius):
    # the sup over a disk dominates every sampled modulus in it, up to the
    # relative rounding of the two sides
    inside = circle_moduli(g, np.linspace(0.0, radius, 33)).max()
    assert inside <= g.sup_formula(radius) * (1 + 1e-12)
    try:
        threshold = g.threshold_formula(coef)
    except NoThresholdFound:
        # no radius exists: |g| reaches coef * rho^3 on some sampled circle
        rho = np.geomspace(1.0, 1e30, 61)
        reached = circle_moduli(g, rho).max(axis=(0, 2))
        assert np.any(reached >= coef * rho**3 * (1 - 1e-12))
        return
    # on circles beyond the threshold |g| stays below coef * rho^3; a
    # threshold of 0 claims every circle
    if threshold == 0.0:
        rho = np.geomspace(1e-3, 1e3, 16)
    else:
        rho = threshold * np.linspace(1.0, 16.0, 16)
    beyond = circle_moduli(g, rho).max(axis=(0, 2))
    assert np.all(beyond <= coef * rho**3 * (1 + 1e-12))


# ---------------------------------------------------------------------------
# phase equivariance


def _commutes_with_rotation(g, alpha, grid) -> bool:
    """Whether g(t, e^{ia} z) = e^{ia} g(t, z) at every node of ``grid``, up
    to a relative rounding slack."""
    rotation = np.exp(1j * alpha)
    rotated, expected = g.on_lattice(rotation * grid), rotation * g.on_lattice(grid)
    return bool(np.all(np.abs(rotated - expected) <= 1e-13 * np.abs(expected)))


@settings(deadline=None, max_examples=80)
@given(_families(_NORMAL_COEFFS), st.floats(0.0, 2.0 * np.pi), _lattices())
def test_declared_phase_equivariance_holds(g, alpha, grid):
    # power_law, bounded and zero declare the symmetry, constant only on
    # zero coefficients; every declaration holds to rounding
    assert g.phase_equivariant == (g.kind != "constant" or not any(g.coefficients))
    if g.phase_equivariant:
        assert _commutes_with_rotation(g, alpha, grid)


@settings(deadline=None, max_examples=40)
@given(_NORMAL_COEFFS.filter(any), st.floats(0.1, 2.0 * np.pi - 0.1), _lattices())
def test_constant_forcing_is_not_phase_equivariant(coefficients, alpha, grid):
    # g(t, e^{ia} z) = f(t), not e^{ia} f(t): the declaration is False and
    # the property fails on every lattice whose times meet a nonzero f(t)
    g = constant_potential(coefficients)
    assert not g.phase_equivariant
    if any(coefficients[t % g.period] for t in range(grid.shape[0])):
        assert not _commutes_with_rotation(g, alpha, grid)


def test_bounded_threshold_cancellation():
    # (-1 + sqrt(1 + 4a)) / 2 with a = max|f|/coef would cancel here and
    # give a radius 4e-6 (relative) too small; 2a / (1 + sqrt(1 + 4a)) does not
    g = bounded_potential([1e-10])
    rho = g.threshold_formula(11.0)
    assert float(np.abs(g.evaluate(0, rho))) <= 11.0 * rho**3
