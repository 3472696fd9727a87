"""Damped Newton on a stack of starts against a one-start reference.

``solver._damped_newton`` advances an (m, n) stack of starts together: one
stacked Jacobian and one stacked LAPACK solve per iteration, and a line
search in blocks of trial steps, one stacked residual per block.  The
reference (``oracles.reference_newton``) is the one-start dense-step loop it
replaced, with its own one-vector residual, its Jacobian from the realified
A^-1 and one trial step at a time.  Every row of a stacked run must end with the reference's point,
bit for bit, its iteration count and its status, and with the slice residual
and convergence measure of a fresh evaluation at that point.
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
from dnls import solver
from dnls.solver import _ball_starts
from oracles import reference_newton, reference_residual


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


#: (lattice, gamma, forcing, tau, convergence measure, starts every stack
#: includes).  2x4 bounded [[0.5, 0]] at seed 1001, odd map: start 2 meets
#: an exactly singular Jacobian at iteration 10, starts 1 and 4 take 35 and
#: 39 iterations.  4x4 constant 1e300: every first trial residual overflows.
#: 4x4 bounded [[0.5, 0]], NaN on 0.5 < |z| < 0.52, at seed 1: its line
#: searches stop in every block of trials, stall through all of them, and
#: meet a non-finite trial behind a finite one of the same block
_CASES = {
    "banded-half-tau": ((4, 4), 1.0, _banded(bounded_potential([0.5]), 0.5, 0.52), 0.5,
                        "slice", ("degree", 1, 8)),
    "bounded-odd": ((2, 4), 1.0, bounded_potential([0.5]), 0.0, "slice", ("degree", 1001, 6)),
    "huge-constant": ((4, 4), 1.0, constant_potential([1e300]), 1.0, "slice", ("ball", 0, 2)),
    "power-full-direct": ((4, 8), 1.0, power_law([0.3], 2.0), 1.0, "direct",
                          ("degree", 3001, 3)),
    "power15": ((2, 4), 1.0, power_law([0.3], 1.5), 1.0, "slice", ("degree", 4, 3)),
    "bounded-half-tau": ((2, 3), -1.0, bounded_potential([0.5, 0.2 + 0.1j]), 0.5, "slice",
                         ("degree", 7, 3)),
}


def _case_starts(name, seed, count):
    """The case's operator, forcing, tau and measure, and a stack of
    ``count`` ball starts drawn from ``seed`` with the case's fixed starts
    in the middle."""
    (T, K), gamma, g, tau, converge_on, (kind, fixed_seed, fixed_count) = _CASES[name]
    op = _op(T, K, gamma)
    if kind == "degree":
        fixed = _degree_starts(op, g, fixed_seed, fixed_count - 1)
    else:
        fixed = _ball_starts(op, np.random.default_rng(fixed_seed), 1.0, fixed_count)
    drawn = _ball_starts(op, np.random.default_rng(seed), 3.0, count)
    return op, g, tau, converge_on, np.vstack([drawn[: count // 2], fixed, drawn[count // 2:]])


def _assert_rows_match_reference(op, g, tau, starts, max_iter, converge_on):
    tol = 1e-11
    x, r, measure, iterations, status = solver._damped_newton(
        starts, op, g, tau, tol, max_iter, converge_on
    )
    why: list[str] = []
    stops: list[tuple[int, str]] = []
    outcomes = []
    for row, start in enumerate(starts):
        ref_x, ref_iterations, ref_status = reference_newton(
            start, op, g, tau, tol, max_iter, converge_on, why=why, stops=stops
        )
        assert x[row].tobytes() == ref_x.tobytes(), row
        assert (iterations[row], status[row]) == (ref_iterations, ref_status), row
        fresh = solver._slice_residual(x[row], op, g, tau)
        assert r[row].tobytes() == fresh.tobytes(), row
        if converge_on == "direct":
            fresh = solver.residual_direct(x[row].reshape(op.params.T, op.params.K), op.params, g)
        assert measure[row].tobytes() == np.abs(fresh).max().tobytes(), row
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
@example(name="power-full-direct", seed=1, count=4, max_iter=3)
@example(name="banded-half-tau", seed=0, count=0, max_iter=100)
def test_stacked_newton_matches_one_start_reference(name, seed, count, max_iter):
    op, g, tau, converge_on, starts = _case_starts(name, seed, count)
    _assert_rows_match_reference(op, g, tau, starts, max_iter, converge_on)


def test_reference_stacks_cover_singular_non_finite_and_max_iter_rows():
    # the property's hard rows are really in its stacks: one stack that
    # converges, hits max_iter and meets a singular Jacobian, and one whose
    # trial residuals overflow
    op, g, tau, converge_on, starts = _case_starts("bounded-odd", 0, 0)
    outcomes, why, _ = _assert_rows_match_reference(op, g, tau, starts, 30, converge_on)
    assert outcomes == ["converged", "max_iter", "diverged", "converged", "max_iter", "converged"]
    assert why == ["singular"]
    op, g, tau, converge_on, starts = _case_starts("huge-constant", 0, 2)
    outcomes, why, _ = _assert_rows_match_reference(op, g, tau, starts, 100, converge_on)
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
    op, g, tau, converge_on, starts = _case_starts("banded-half-tau", 0, 0)
    outcomes, why, stops = _assert_rows_match_reference(op, g, tau, starts, 100, converge_on)
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
    op, g, tau, converge_on, starts = _case_starts("banded-half-tau", 0, 0)
    for start in starts:
        events.clear()
        stops: list[tuple[int, str]] = []
        reference_newton(start, op, g, tau, 1e-11, 100, converge_on, stops=stops)
        solver._damped_newton(start[None], op, g, tau, 1e-11, 100, converge_on)
        assert events.count("residual") == 1 + sum(_block(index) + 1 for index, _ in stops)
    events.clear()
    solver._damped_newton(starts, op, g, tau, 1e-11, 100, converge_on)
    # the first residual is the starts', then each step's line search follows
    searches = [len(calls.split()) for calls in " ".join(events).split("step")[1:]]
    assert max(searches) == 5


@pytest.mark.parametrize("T,K", [(4, 8), (16, 16), (12, 24)])
@pytest.mark.parametrize("tau", [0.0, 0.7, 1.0])
def test_stacked_residual_rows_match_one_vector_residual(T, K, tau):
    # up to 256 nodes A^-1 is one matrix-vector product per row (a
    # matrix-matrix product would round differently), above it the FFT
    op = _op(T, K)
    g = power_law([0.3, 0.2j], 2.0)
    rng = np.random.default_rng(T * K)
    stack = 2.0 * (rng.standard_normal((5, op.dim)) + 1j * rng.standard_normal((5, op.dim)))
    rows = solver._slice_residual(stack, op, g, tau)
    for row, flat in zip(rows, stack):
        assert row.tobytes() == solver._slice_residual(flat, op, g, tau).tobytes()
        assert row.tobytes() == reference_residual(flat, op, g, tau).tobytes()


def _collect(starts, op, g):
    return solver._collect_zeros(
        starts, op, g, tol=1e-11, max_iter=100, radius=4.0, converge_on="slice"
    )


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
        assert (a.iterations, a.residual, a.uncertainty, a.sigma_ratio) == (
            b.iterations, b.residual, b.uncertainty, b.sigma_ratio)
        assert a.residual == sup_norm(solver._slice_residual(a.flat, op, g, 1.0))


def test_collect_zeros_memory_is_flat_in_the_start_count():
    # the stacks hold at most JACOBIAN_STACK_BYTES of Jacobians, so 288
    # starts on 4x8 peak like 32; one unbounded stack of 288 Jacobians
    # alone would take 9.4 MB
    op, g = _op(4, 8), power_law([0.3], 2.0)
    assert solver._stack_rows(op.dim) == 32
    peaks = []
    for count in (32, 288):
        starts = _degree_starts(op, g, 4, count - 1)
        tracemalloc.start()
        _collect(starts, op, g)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1_000_000, peaks
