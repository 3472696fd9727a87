"""Damped Newton on a stack of starts against a one-start reference.

``solver._damped_newton`` advances an (m, n) stack of starts together: one
stacked Jacobian and one stacked LAPACK solve per iteration, and a line
search in blocks of trial steps, one stacked residual per block.  The
reference (``oracles.reference_newton``) is the one-start dense-step loop it
replaced, with its own one-vector residual, its M from the realified dense
A and one trial step at a time.  Every row of a stacked run must end with
the reference's point, bit for bit, its iteration count and its status, and
with the direct residual of a fresh evaluation at that point.

The direct form's step M dx = -d_tau is the fixed-point form's J dx =
-r_tau (``oracles.slice_jacobian``, ``oracles.slice_residual``), its
determinant sign is J's, and no A^-1 is applied on the Newton path.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnls import (
    LatticeParams,
    bounded_potential,
    build_certificate,
    build_shifted,
    constant_potential,
    power_law,
    sup_norm,
)
from dnls import operators, solver
from dnls.degree import estimate_degree
from dnls.solver import _ball_starts
from oracles import (
    random_field,
    reference_jacobian,
    reference_newton,
    reference_residual,
    slice_jacobian,
    slice_residual,
)


def _banded(g, lo, hi):
    """``g``, but NaN at every z with lo < |z| < hi.

    With the package's forcings a non-finite trial comes first in its line
    search (a seed scan of the other cases found no other order):
    |x + lambda s| is convex in lambda, so no modulus on the way to a finite
    trial point is larger, and their residuals overflow at large moduli.  A
    forcing that is non-finite on a band of moduli puts a non-finite trial
    behind a finite one that did not decrease the residual."""

    def evaluate(t, z):
        size = np.abs(np.asarray(z, dtype=complex))
        return np.where((lo < size) & (size < hi), np.nan, g.evaluate(t, z))

    return replace(g, evaluate=evaluate)


def _op(T, K, gamma=1.0):
    return build_shifted(LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=gamma), 1.5)


def _degree_starts(op, g, seed, count):
    """The origin, then ``count`` ball starts, as ``estimate_degree`` draws them."""
    radius = build_certificate(op, g, samples=0).radius
    return np.vstack([np.zeros(op.dim, dtype=complex),
                      _ball_starts(op, np.random.default_rng(seed), radius, count)])


#: (lattice, gamma, forcing, tau, starts every stack includes).  2x4
#: bounded [[0.5, 0]] at seed 1, odd map: start 2 meets an exactly singular
#: M at iteration 18, start 4 is still running at iteration 30.  4x4
#: constant 1e300: every first trial residual overflows.  4x4 bounded
#: [[0.5, 0]], NaN on 0.5 < |z| < 0.52, at seed 8: its line searches stop in
#: every block of trials, stall through all of them, and meet a non-finite
#: trial behind a finite one of the same block
_CASES = {
    "banded-half-tau": ((4, 4), 1.0, _banded(bounded_potential([0.5]), 0.5, 0.52), 0.5,
                        ("degree", 8, 8)),
    "bounded-odd": ((2, 4), 1.0, bounded_potential([0.5]), 0.0, ("degree", 1, 6)),
    "huge-constant": ((4, 4), 1.0, constant_potential([1e300]), 1.0, ("ball", 0, 2)),
    "power-full": ((4, 8), 1.0, power_law([0.3], 2.0), 1.0, ("degree", 3001, 3)),
    "power15": ((2, 4), 1.0, power_law([0.3], 1.5), 1.0, ("degree", 4, 3)),
    "bounded-half-tau": ((2, 3), -1.0, bounded_potential([0.5, 0.2 + 0.1j]), 0.5,
                         ("degree", 7, 3)),
}


def _case_starts(name, seed, count):
    """The case's operator, forcing and tau, and a stack of ``count`` ball
    starts drawn from ``seed`` with the case's fixed starts in the middle."""
    (T, K), gamma, g, tau, (kind, fixed_seed, fixed_count) = _CASES[name]
    op = _op(T, K, gamma)
    if kind == "degree":
        fixed = _degree_starts(op, g, fixed_seed, fixed_count - 1)
    else:
        fixed = _ball_starts(op, np.random.default_rng(fixed_seed), 1.0, fixed_count)
    drawn = _ball_starts(op, np.random.default_rng(seed), 3.0, count)
    return op, g, tau, np.vstack([drawn[: count // 2], fixed, drawn[count // 2:]])


def _assert_rows_match_reference(op, g, tau, starts, max_iter):
    tol = 1e-11
    x, r, iterations, status = solver._damped_newton(starts, op, g, tau, tol, max_iter)
    why: list[str] = []
    stops: list[tuple[int, str]] = []
    outcomes = []
    for row, start in enumerate(starts):
        ref_x, ref_iterations, ref_status = reference_newton(
            start, op, g, tau, tol, max_iter, why=why, stops=stops
        )
        assert x[row].tobytes() == ref_x.tobytes(), row
        assert (iterations[row], status[row]) == (ref_iterations, ref_status), row
        assert r[row].tobytes() == reference_residual(x[row], op, g, tau).tobytes(), row
        outcomes.append(ref_status)
    return outcomes, why, stops


@settings(deadline=None, max_examples=25)
@given(
    name=st.sampled_from(sorted(_CASES)),
    seed=st.integers(0, 2**16),
    count=st.integers(0, 6),
    max_iter=st.sampled_from([3, 30, 100]),
)
@example(name="bounded-odd", seed=0, count=0, max_iter=30)
@example(name="huge-constant", seed=0, count=2, max_iter=100)
@example(name="power-full", seed=1, count=4, max_iter=3)
@example(name="banded-half-tau", seed=0, count=0, max_iter=100)
def test_stacked_newton_matches_one_start_reference(name, seed, count, max_iter):
    op, g, tau, starts = _case_starts(name, seed, count)
    _assert_rows_match_reference(op, g, tau, starts, max_iter)


def test_reference_stacks_cover_singular_non_finite_and_max_iter_rows():
    # the property's hard rows are really in its stacks: one stack that
    # converges, hits max_iter and meets a singular Jacobian, and one whose
    # trial residuals overflow
    op, g, tau, starts = _case_starts("bounded-odd", 0, 0)
    outcomes, why, _ = _assert_rows_match_reference(op, g, tau, starts, 30)
    assert outcomes == ["converged", "converged", "diverged", "converged", "max_iter", "converged"]
    assert why == ["singular"]
    op, g, tau, starts = _case_starts("huge-constant", 0, 2)
    outcomes, why, _ = _assert_rows_match_reference(op, g, tau, starts, 100)
    assert set(outcomes) == {"diverged"} and set(why) == {"non-finite"}


def _block(index):
    """The block, 0 to 4, in which the line search evaluates the trial
    lambda = 2^-index: the blocks are index 0 | 1-2 | 3-6 | 7-14 | 15-30."""
    return (index + 1).bit_length() - 1


def test_line_search_blocks_stop_where_the_one_trial_search_stops():
    # the pinned stack's rows stop in every block, one stalls through all
    # MAX_HALVINGS + 1 trials, and one meets a non-finite trial right behind
    # a finite one that did not decrease, in the same block; each row still
    # ends with the bits of the one-trial search
    op, g, tau, starts = _case_starts("banded-half-tau", 0, 0)
    outcomes, why, stops = _assert_rows_match_reference(op, g, tau, starts, 100)
    assert {_block(index) for index, how in stops if how == "decrease"} == {0, 1, 2, 3, 4}
    assert (solver.MAX_HALVINGS, "stalled") in stops
    assert any(how == "non-finite" and _block(index - 1) == _block(index)
               for index, how in stops)
    assert {"converged", "diverged"} <= set(outcomes) and {"stalled", "non-finite"} <= set(why)


def test_line_search_takes_one_residual_per_block(monkeypatch):
    # the residual calls pin the mechanism: a line search that stops at
    # trial i takes one stacked residual per block up to i's, so at most 5
    # per iteration however deep it halves
    events = []
    residual, newton_step = solver._slice_residual, solver._newton_step

    def counted_residual(*args):
        events.append("residual")
        return residual(*args)

    def counted_step(*args):
        events.append("step")
        return newton_step(*args)

    monkeypatch.setattr(solver, "_slice_residual", counted_residual)
    monkeypatch.setattr(solver, "_newton_step", counted_step)
    op, g, tau, starts = _case_starts("banded-half-tau", 0, 0)
    for start in starts:
        events.clear()
        stops: list[tuple[int, str]] = []
        reference_newton(start, op, g, tau, 1e-11, 100, stops=stops)
        solver._damped_newton(start[None], op, g, tau, 1e-11, 100)
        assert events.count("residual") == 1 + sum(_block(index) + 1 for index, _ in stops)
    events.clear()
    solver._damped_newton(starts, op, g, tau, 1e-11, 100)
    # the first residual is the starts', then each step's line search follows
    searches = [len(calls.split()) for calls in " ".join(events).split("step")[1:]]
    assert max(searches) == 5


@pytest.mark.parametrize("T,K", [(4, 8), (16, 16), (12, 24)])
@pytest.mark.parametrize("tau", [0.0, 0.7, 1.0])
def test_stacked_residual_rows_match_one_vector_residual(T, K, tau):
    # the stencil and the nodewise terms give each row of a stack the bits
    # of the one-vector residual
    op = _op(T, K)
    g = power_law([0.3, 0.2j], 2.0)
    rng = np.random.default_rng(T * K)
    stack = 2.0 * (rng.standard_normal((5, op.dim)) + 1j * rng.standard_normal((5, op.dim)))
    rows = solver._slice_residual(stack, op, g, tau)
    for row, flat in zip(rows, stack):
        assert row.tobytes() == solver._slice_residual(flat, op, g, tau).tobytes()
        assert row.tobytes() == reference_residual(flat, op, g, tau).tobytes()


def _collect(starts, op, g):
    return solver._collect_zeros(starts, op, g, tol=1e-11, radius=4.0)


def test_collect_zeros_records_do_not_depend_on_the_stack_size(monkeypatch):
    # stacked SVDs and Newton runs give each record the bits of runs from
    # one start at a time, and its residual is Newton's measure at its point
    op, g = _op(4, 8), power_law([0.3], 2.0)
    starts = _degree_starts(op, g, 4, 40)
    stacked = _collect(starts, op, g)
    monkeypatch.setattr(solver, "JACOBIAN_STACK_BYTES", 1)
    assert solver._stack_rows(op.dim) == 1
    single = _collect(starts, op, g)
    assert len(stacked) == len(single) > 1
    for a, b in zip(stacked, single):
        assert a.flat.tobytes() == b.flat.tobytes()
        assert (a.iterations, a.residual, a.uncertainty, a.sigma_ratio, a.sign) == (
            b.iterations, b.residual, b.uncertainty, b.sigma_ratio, b.sign)
        assert a.residual == sup_norm(solver._slice_residual(a.flat, op, g, 1.0))


def test_collect_zeros_memory_is_flat_in_the_start_count():
    # the stacks hold at most JACOBIAN_STACK_BYTES of Jacobians, so 576
    # starts on 4x8 peak like 64; one unbounded stack of 576 Jacobians
    # alone would take 18.9 MB
    op, g = _op(4, 8), power_law([0.3], 2.0)
    rows = solver._stack_rows(op.dim)
    assert rows == 64
    peaks = []
    for count in (rows, 9 * rows):
        starts = _degree_starts(op, g, 4, count - 1)
        tracemalloc.start()
        _collect(starts, op, g)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1_000_000, peaks


# ---------------------------------------------------------------------------
# the direct form against the fixed-point form


#: forcings of period 1, so that every T fits
_FORCINGS = {
    "power": lambda c: power_law([c], 2.5),
    "bounded": lambda c: bounded_potential([c]),
    "constant": lambda c: constant_potential([c]),
}


@settings(deadline=None, max_examples=60)
@given(
    T=st.integers(1, 5),
    K=st.integers(2, 6),
    tau=st.sampled_from([0.0, 0.5, 1.0]),
    kind=st.sampled_from(sorted(_FORCINGS)),
    gamma=st.sampled_from([1.0, -1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(T=1, K=2, tau=0.0, kind="power", gamma=1.0, seed=0)
@example(T=2, K=2, tau=0.5, kind="constant", gamma=-1.0, seed=1)
@example(T=2, K=5, tau=1.0, kind="bounded", gamma=1.0, seed=2)
def test_direct_step_is_the_fixed_point_step(T, K, tau, kind, gamma, seed):
    # M dx = -d_tau is J dx = -r_tau with d_tau = A r_tau and M = A_r J, so
    # the step matches the dense fixed-point oracle, det A_r = |det A|^2 > 0
    # gives det M the sign of det J, and the sigma ratios differ by at most
    # kappa(A) <= (f + 1) / (f - 1) = 5; d_1 is the lattice equation's
    # residual bit for bit, and each row of a stack keeps its one-row bits,
    # including the merged neighbours of T <= 2 and K = 2
    rng = np.random.default_rng(seed)
    op = _op(T, K, gamma)
    kappa = np.abs(op.inverse_symbol).max() / np.abs(op.inverse_symbol).min()
    assert kappa <= 5.0 * (1.0 + 1e-12)
    g = _FORCINGS[kind](complex(*rng.uniform(-1.0, 1.0, 2)))
    stack = np.stack([random_field(T, K, rng, 2.0).ravel() for _ in range(3)])
    residuals = solver._slice_residual(stack, op, g, tau)
    jacobians = solver._slice_jacobian(stack, op, g, tau)
    steps = solver._newton_step(stack, residuals, op, g, tau)
    for flat, d, m, step in zip(stack, residuals, jacobians, steps):
        assert d.tobytes() == solver._slice_residual(flat, op, g, tau).tobytes()
        assert d.tobytes() == reference_residual(flat, op, g, tau).tobytes()
        assert m.tobytes() == solver._slice_jacobian(flat, op, g, tau).tobytes()
        assert step.tobytes() == solver._newton_step(flat, d, op, g, tau).tobytes()
        assert np.max(np.abs(m - reference_jacobian(flat, op, g, tau))) == 0.0
        jac = slice_jacobian(flat, op, g, tau)
        expected = -np.linalg.solve(jac, solver.realify(slice_residual(flat, op, g, tau)))
        assert np.max(np.abs(solver.realify(step) - expected)) <= 1e-10 * np.max(np.abs(expected))
        assert np.linalg.slogdet(m)[0] == np.linalg.slogdet(jac)[0] != 0.0
        ratio_m, ratio_j = (sv[-1] / sv[0] for sv in np.linalg.svd([m, jac], compute_uv=False))
        assert ratio_m / kappa * (1.0 - 1e-6) <= ratio_j <= ratio_m * kappa * (1.0 + 1e-6)
        if tau == 1.0:
            direct = solver.residual_direct(flat.reshape(T, K), op.params, g)
            assert d.tobytes() == direct.ravel().tobytes()


def test_the_newton_path_applies_no_inverse(monkeypatch):
    # Newton, the zero collection, the homotopy's tracking and the degree
    # estimate work on d_tau and M, so none of them calls A^-1's one apply,
    # here on 272 nodes and on a quotient of 272 nodes
    op, g = _op(16, 17), power_law([0.3], 2.0)
    cert = build_certificate(op, g, samples=20, seed=0)
    h = constant_potential(0.3 + 0.2 * np.exp(2j * np.pi * np.arange(136) / 136))
    quotient = operators._build_shifted(replace(op.params, T=136, K=2), op.shift)
    quotient_cert = build_certificate(quotient, h, samples=20, seed=0)
    starts = _degree_starts(op, g, 4, 1)

    def no_inverse(*args, **kwargs):
        raise AssertionError("A^-1 applied on the Newton path")

    monkeypatch.setattr(operators.ShiftedOperator, "solve", no_inverse)
    assert solver._damped_newton(starts, op, g, 0.5, 1e-11, 3)[3] == ["converged", "max_iter"]
    monkeypatch.setattr(solver, "ENUM_ITER", 3)
    assert len(solver._collect_zeros(starts, op, g, tol=1e-11, radius=cert.radius)) == 1
    assert solver._track(quotient, h, quotient_cert, solver.DEFAULT_TOL)[2] == "converged"
    assert estimate_degree("full", op, g, cert, n_starts=0, seed=4).degree_estimate == 1


def test_a_quotient_newton_step_holds_one_jacobian():
    # on a period-256 quotient (512 nodes) one step holds M, a 1024 x 1024
    # realified matrix, and no dense A^-1 or scratch of its size; LAPACK's
    # own copy of M is not traced
    g = constant_potential(0.3 + 0.2 * np.exp(2j * np.pi * np.arange(256) / 256))
    op = operators._build_shifted(
        LatticeParams(T=256, K=2, beta=1.0, epsilon=1.0, gamma=1.0), 3.0)
    flat = np.repeat(random_field(256, 1, np.random.default_rng(0), 1.0).ravel(), 2)
    res = solver._slice_residual(flat, op, g, 0.5)
    jacobian_bytes = 8 * (2 * op.dim) ** 2
    tracemalloc.start()
    try:
        solver._newton_step(flat, res, op, g, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * jacobian_bytes, peak / jacobian_bytes
