"""Certificate constant chain, closed-form bounds, ball radius, boundary sampling."""

import dataclasses
import hashlib
import math
import os
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dnls import (
    LatticeParams,
    NoThresholdFound,
    bounded_potential,
    build_certificate,
    build_shifted,
    compute_ball_radius,
    compute_forcing_sup,
    compute_threshold_radius,
    constant_potential,
    power_law,
    sphere_samples,
    verify_boundary,
    zero_potential,
)
from dnls import certificate, operators
from oracles import shifted


def _small_op():
    params = LatticeParams(T=1, K=2, beta=1.0, epsilon=1.0, gamma=1.0)
    return build_shifted(params, shift_factor=1.5)


# ---------------------------------------------------------------------------
# threshold radius


def test_threshold_closed_form_power_law():
    # |z|^2 <= coef * |z|^3 from radius 1 / coef onward
    assert compute_threshold_radius(power_law([1.0], 2.0), 0.5) == pytest.approx(2.0)


def test_threshold_zero_potential():
    assert compute_threshold_radius(zero_potential(), 0.3) == pytest.approx(1.0)


def test_threshold_scan_rejects_cubic_growth():
    g = power_law([1.0], 3.0)
    with pytest.raises(NoThresholdFound):
        compute_threshold_radius(g, 0.3)


def test_threshold_rejects_nonpositive_coef():
    with pytest.raises(ValueError):
        compute_threshold_radius(zero_potential(), 0.0)


# ---------------------------------------------------------------------------
# forcing sup


def test_forcing_sup_closed_forms():
    assert compute_forcing_sup(power_law([1.0], 2.0), 2.0) == pytest.approx(4.0)
    assert compute_forcing_sup(zero_potential(), 7.0) == 0.0
    assert compute_forcing_sup(bounded_potential([2.0]), 5.0) == pytest.approx(1.0)
    assert compute_forcing_sup(constant_potential([8.0]), 0.5) == pytest.approx(8.0)


def test_forcing_sup_validates_radius():
    with pytest.raises(ValueError):
        compute_forcing_sup(zero_potential(), -1.0)
    assert compute_forcing_sup(power_law([1.0], 2.0), 0.0) == 0.0


# ---------------------------------------------------------------------------
# certified ball radius


def _excess(radius, const_bound, linear_bound, cubic_bound, slack):
    sigma = 1.0 + slack
    lower = 2.0 * cubic_bound * radius**3 - radius
    upper = const_bound + linear_bound * radius + cubic_bound * radius**3
    return lower - sigma * upper


def test_ball_radius_depressed_cubic_root():
    # B = 1, C = 2, D = 1, no slack: R^3 - 3R - 1 = 0, root 2*cos(pi/9)
    radius = compute_ball_radius(1.0, 2.0, 1.0, slack=0.0)
    assert radius == pytest.approx(2.0 * np.cos(np.pi / 9.0), abs=1e-8)


def test_ball_radius_pure_cubic():
    assert compute_ball_radius(0.0, 0.0, 1.0, slack=0.0) == pytest.approx(1.0, abs=1e-8)


def test_ball_radius_is_tight():
    args = (0.7, 1.3, 0.05)
    radius = compute_ball_radius(*args, slack=0.1)
    assert _excess(radius, *args, 0.1) >= 0.0
    assert _excess(0.99 * radius, *args, 0.1) < 0.0


def test_ball_radius_monotone_in_each_bound():
    base = compute_ball_radius(1.0, 1.0, 0.05, slack=0.1)
    assert compute_ball_radius(2.0, 1.0, 0.05, slack=0.1) > base
    assert compute_ball_radius(1.0, 2.0, 0.05, slack=0.1) > base
    assert compute_ball_radius(1.0, 1.0, 0.10, slack=0.1) < base
    assert compute_ball_radius(1.0, 1.0, 0.05, slack=0.2) > base


@pytest.mark.parametrize("args", [(1e20, 1.0, 0.1), (1e300, 1.0, 1e-3)])
def test_ball_radius_terminates_beyond_float_spacing(args):
    # past 2**23 the float spacing exceeds the bisection tolerance; the
    # bisection must stop at adjacent floats instead of looping forever
    start = time.perf_counter()
    radius = compute_ball_radius(*args, slack=0.1)
    assert time.perf_counter() - start < 1.0
    assert radius > 2.0**23
    assert _excess(radius, *args, 0.1) >= 0.0


def test_ball_radius_validates_inputs():
    with pytest.raises(ValueError):
        compute_ball_radius(1.0, 1.0, 0.0, slack=0.1)
    with pytest.raises(ValueError):
        compute_ball_radius(1.0, 1.0, 1.0, slack=1.0)
    with pytest.raises(ValueError):
        compute_ball_radius(1.0, 1.0, 1.0, slack=-0.1)


# ---------------------------------------------------------------------------
# sphere sampling


def test_sphere_samples_land_on_sphere():
    rng = np.random.default_rng(3)
    batch = sphere_samples(3, 4, 2.5, 200, rng)
    assert batch.shape == (200, 3, 4)
    sups = np.abs(batch).max(axis=(1, 2))
    assert_allclose(sups, 2.5, rtol=1e-12)


def test_sphere_samples_deterministic():
    a = sphere_samples(2, 3, 1.0, 50, np.random.default_rng(9))
    b = sphere_samples(2, 3, 1.0, 50, np.random.default_rng(9))
    assert np.array_equal(a, b)


def _reference_samples(T, K, radius, count, rng):
    """The sampler written out: moduli, phases and indices drawn in turn."""
    moduli = rng.uniform(0.0, radius, size=(count, T, K))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(count, T, K))
    flat_idx = rng.integers(0, T * K, size=count)
    moduli.reshape(count, T * K)[np.arange(count), flat_idx] = radius
    return moduli * np.exp(1j * phases)


def test_sphere_samples_bytes_are_pinned():
    # degree probes and argmin_hash depend on these exact bytes
    count, T, K, radius = 300, 3, 5, 2.7
    expected = _reference_samples(T, K, radius, count, np.random.default_rng(11))
    batch = sphere_samples(T, K, radius, count, np.random.default_rng(11))
    assert batch.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=60)
# one earlier integers() call leaves seed 11 holding a buffered 32-bit half
@example(T=3, K=5, radius=2.7, count=30, seed=11, prior=1, start=7, width=12)
@given(
    T=st.integers(1, 4),
    K=st.integers(1, 5),
    # a subnormal radius can round a product to a zero of the other sign
    # than the reference's, so radii are 0 or normal-sized
    radius=st.just(0.0) | st.floats(1e-3, 10.0),
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    prior=st.integers(0, 3),
    start=st.integers(0, 39),
    width=st.integers(1, 40),
)
def test_sphere_samples_rows_are_slices_of_the_batch(T, K, radius, count, seed, prior, start,
                                                     width):
    # rows=(lo, hi) jumps the stream ahead by one 64-bit draw per double, so
    # it must agree with the batch drawn in one go, and leave rng untouched
    lo = start % count
    hi = min(count, lo + width)

    def generator():
        rng = np.random.default_rng(seed)
        for _ in range(prior):
            rng.integers(0, 7)
        return rng

    reference_rng = generator()
    expected = _reference_samples(T, K, radius, count, reference_rng)

    rng = generator()
    before = rng.bit_generator.state
    rows = sphere_samples(T, K, radius, count, rng, rows=(lo, hi))
    assert rows.tobytes() == expected[lo:hi].tobytes()
    assert rng.bit_generator.state == before

    batch = sphere_samples(T, K, radius, count, rng)
    assert batch.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


# ---------------------------------------------------------------------------
# the full chain


def test_certificate_frozen_constants_smallest_lattice():
    cert = build_certificate(_small_op(), zero_potential(), samples=2000, seed=0)
    assert cert.shift == pytest.approx(6.0)
    assert cert.norm_linear == pytest.approx(4.0)
    assert cert.norm_shifted == pytest.approx(10.0)
    assert cert.norm_shifted_inv == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert cert.threshold_coef == pytest.approx(0.3, rel=1e-12)
    assert cert.threshold_radius == pytest.approx(1.0)
    assert cert.forcing_sup == 0.0
    assert cert.const_bound == 0.0
    assert cert.linear_bound == pytest.approx(1.0, rel=1e-12)
    assert cert.cubic_bound == pytest.approx(0.05, rel=1e-12)
    # 0.045 R^3 = 2.1 R, the positive root of the slack-adjusted inequality
    assert cert.radius == pytest.approx(np.sqrt(2.1 / 0.045), abs=1e-8)
    assert cert.margin == pytest.approx(0.1, abs=1e-6)
    assert cert.rigor == "closed_form"
    assert cert.valid


def test_certificate_gap_respects_analytic_floor():
    cert = build_certificate(_small_op(), zero_potential(), samples=5000, seed=1)
    upper = (
        cert.const_bound
        + cert.linear_bound * cert.radius
        + cert.cubic_bound * cert.radius**3
    )
    assert cert.boundary.min_gap >= cert.margin * upper - 1e-9


def test_certificate_deterministic_evidence():
    op = _small_op()
    g = power_law([0.5], 2.0)
    a = build_certificate(op, g, samples=500, seed=7)
    b = build_certificate(op, g, samples=500, seed=7)
    assert a == b
    c = build_certificate(op, g, samples=500, seed=8)
    assert c.boundary.argmin_hash != a.boundary.argmin_hash


def test_certificate_without_samples_is_invalid():
    cert = build_certificate(_small_op(), zero_potential(), samples=0)
    assert cert.boundary.count == 0
    assert cert.boundary.min_gap is None
    assert not cert.valid


def test_certificate_rejects_cubic_forcing():
    with pytest.raises(NoThresholdFound):
        build_certificate(_small_op(), power_law([1.0], 3.0), samples=10)


def test_cubic_forcing_below_the_coefficient_certifies_like_zero():
    # on 4x4 with beta = epsilon = gamma = 1, coef = 7/30; a cubic forcing
    # with max|f| < coef satisfies the growth bound at every radius, so its
    # threshold and sup are 0 and the ball is the unforced one
    op = build_shifted(LatticeParams(T=4, K=4, beta=1.0, epsilon=1.0, gamma=1.0), 1.5)
    cert = build_certificate(op, power_law([0.2], 3.0), samples=500, seed=4)
    assert cert.threshold_coef == pytest.approx(7.0 / 30.0, rel=1e-12)
    assert (cert.threshold_radius, cert.forcing_sup) == (0.0, 0.0)
    assert cert.rigor == "closed_form" and cert.valid
    assert cert.radius == build_certificate(op, zero_potential(), samples=0).radius
    with pytest.raises(NoThresholdFound):
        build_certificate(op, power_law([0.25], 3.0), samples=500)


def _sample_hash(sample):
    return hashlib.sha256(np.ascontiguousarray(sample).tobytes()).hexdigest()[:16]


def test_verify_boundary_matches_direct_computation():
    # recompute one sample's gap by hand and check it is among the gaps seen
    op = _small_op()
    g = power_law([0.5], 2.0)
    cert = build_certificate(op, g, samples=64, seed=5)
    rng = np.random.default_rng(5)
    batch = sphere_samples(1, 2, cert.radius, 64, rng)
    gaps = []
    for sample in batch:
        flat = sample.reshape(2)
        cubic = -op.params.gamma * np.abs(flat) ** 2 * flat
        forcing = np.asarray(g.evaluate(0, flat), dtype=complex)
        odd = flat - op.solve(cubic)
        rest = op.solve(forcing - op.shift * flat)
        gaps.append(np.abs(odd).max() - np.abs(rest).max())
    evidence = verify_boundary(cert.radius, op, g, samples=64, seed=5)
    assert evidence.min_gap == pytest.approx(min(gaps), rel=1e-12)
    assert evidence.count == 64
    assert evidence.argmin_hash == _sample_hash(batch[int(np.argmin(gaps))])


def _direct_gaps(op, g, batch):
    """Per-sample gaps with the dense inverse, one sample at a time."""
    inv = np.linalg.inv(shifted(op))
    gaps = []
    for sample in batch:
        flat = sample.reshape(op.dim)
        cubic = -op.params.gamma * np.abs(flat) ** 2 * flat
        forcing = np.asarray(g.on_lattice(sample), dtype=complex).reshape(op.dim)
        odd = flat - inv @ cubic
        rest = inv @ (forcing - op.shift * flat)
        gaps.append(np.abs(odd).max() - np.abs(rest).max())
    return np.array(gaps)


def _tied_across_chunks(op, g, bounds):
    """A sphere_samples stand-in whose batch ties for the minimum gap: the
    worst sample goes, negated, to the same offset of the first chunk and,
    as is, of the third (``bounds`` are the chunks' (lo, hi)).  The negated
    copy has the same gap bit for bit (the gap is odd-symmetric and the two
    chunks have the same shape), but different bytes, so the reported hash
    tells the copies apart.  The batch is drawn with rows=(0, count), which
    leaves rng untouched, because verify_boundary draws every chunk from one
    rng; the chunk's indices and buffers are not needed for that."""

    def samples(T, K, radius, count, rng, rows=None, indices=None, out=None):
        batch = sphere_samples(T, K, radius, count, rng, rows=(0, count))
        worst = int(np.argmin(_direct_gaps(op, g, batch)))
        offset = worst % (bounds[0][1] - bounds[0][0])
        phi = batch[worst].copy()
        batch[offset] = -phi
        batch[bounds[2][0] + offset] = phi
        return batch if rows is None else batch[rows[0] : rows[1]]

    return samples


#: (T, K, samples, chunk budget in complex values or None for the default);
#: the chunks are those of 2 workers
_CHUNK_CASES = {
    "partial-last-chunk": (1, 2, 64, 20),     # 10 samples a chunk: 7 chunks, last of 4
    "above-crossover": (12, 24, 300, None),   # 288 nodes: blocks of 113 cut into 56s
    "tie-across-chunks": (2, 3, 48, 6 * 8),   # 8 samples a chunk, tie in chunks 1 and 3
}


@pytest.mark.parametrize("case", list(_CHUNK_CASES))
def test_verify_boundary_chunks_match_direct_computation(case, monkeypatch):
    T, K, samples, budget = _CHUNK_CASES[case]
    if budget is not None:
        monkeypatch.setattr(certificate, "CHUNK_VALUES", budget)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    params = LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=1.0)
    op = build_shifted(params, shift_factor=1.5)
    g = power_law([0.5], 2.0)
    cert = build_certificate(op, g, samples=0)
    bounds = list(certificate._chunks(samples, op.dim, 2))
    step, chunks = bounds[0][1] - bounds[0][0], len(bounds)
    if case == "partial-last-chunk":
        assert chunks >= 3 and samples % step != 0
    if case == "above-crossover":
        assert chunks >= 3
    if case == "tie-across-chunks":
        assert chunks >= 3
        monkeypatch.setattr(certificate, "sphere_samples", _tied_across_chunks(op, g, bounds))

    evidence = verify_boundary(cert.radius, op, g, samples=samples, seed=5)
    batch = certificate.sphere_samples(T, K, cert.radius, samples, np.random.default_rng(5))
    gaps = _direct_gaps(op, g, batch)
    worst = int(np.argmin(gaps))
    if case == "tie-across-chunks":
        assert worst < step and np.count_nonzero(gaps == gaps[worst]) >= 2
    assert evidence.count == samples
    assert evidence.min_gap == pytest.approx(gaps[worst], rel=1e-12)
    assert evidence.argmin_hash == _sample_hash(batch[worst])


def test_verify_boundary_memory_is_flat_in_the_sample_count():
    # the samples are drawn chunk by chunk, so past one chunk's working set
    # only the gaps grow: 8 bytes a sample, against 16 * n for a whole batch.
    # The A^-1 apply allocates no ufunc buffer, so the peak does not depend
    # on whether two workers' applies overlap
    g = power_law([0.5], 2.0)
    for (T, K), cores in (((8, 8), None), ((24, 24), 2)):
        op = build_shifted(LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=1.0), 1.5)
        radius = build_certificate(op, g, samples=0).radius
        peaks = {}
        for samples in (5000, 20000):
            with _cores(cores) if cores else nullcontext():
                tracemalloc.start()
                try:
                    verify_boundary(radius, op, g, samples=samples, seed=3)
                    peaks[samples] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[20000] < 8 * 2**20, (T, K)
        assert peaks[20000] - peaks[5000] <= 8 * 15000 + 2**15, (T, K)


# ---------------------------------------------------------------------------
# the boundary check on several threads


@contextmanager
def _cores(count):
    """Report ``count`` CPUs to the boundary check."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(count))):
        yield


def _reference_solve(op, rhs):
    """A^-1 applied to an (n, m) block as the serial check applied it: fft2,
    the symbol and ifft2 over the (T, K, m) block."""
    T, K = op.params.T, op.params.K
    spectrum = np.fft.fft2(rhs.reshape(T, K, -1), axes=(0, 1))
    spectrum *= op.inverse_symbol[:, :, None]
    return np.fft.ifft2(spectrum, axes=(0, 1)).reshape(rhs.shape)


def _serial_evidence(radius, op, g, samples, seed):
    """(count, min_gap bits, argmin_hash) of the serial boundary check: one
    loop over chunks of CHUNK_VALUES // n samples, each evaluated whole."""
    batch, gaps = _serial_gaps(radius, op, g, samples, seed)
    worst = int(np.argmin(gaps))
    return samples, float(gaps[worst]).hex(), _sample_hash(batch[worst])


def _serial_gaps(radius, op, g, samples, seed):
    """The batch and every gap of the serial boundary check."""
    T, K, n = op.params.T, op.params.K, op.dim
    batch = _reference_samples(T, K, radius, samples, np.random.default_rng(seed))
    flat_batch = batch.reshape(samples, n)
    step = max(1, certificate.CHUNK_VALUES // n)
    gaps = np.empty(samples)
    for lo in range(0, samples, step):
        flat = flat_batch[lo : lo + step]
        cubic = -op.params.gamma * (np.abs(flat) ** 2) * flat
        odd = flat - _reference_solve(op, cubic.T).T
        forcing = g.on_lattice(flat.reshape(-1, T, K)).reshape(flat.shape)
        forced = _reference_solve(op, (forcing - op.shift * flat).T).T
        gaps[lo : lo + step] = np.abs(odd).max(axis=1) - np.abs(forced).max(axis=1)
    return batch, gaps


def _evidence_key(evidence):
    return evidence.count, evidence.min_gap.hex(), evidence.argmin_hash


#: lattices from 2 to 288 nodes, on both sides of 256 nodes
_ORACLE_LATTICES = [(1, 2), (2, 3), (3, 5), (4, 4), (12, 12), (16, 16), (17, 16), (12, 24)]
_ORACLE_FORCINGS = {
    "power_law": power_law([0.5, 0.2j], 2.0),
    "bounded": bounded_potential([0.5]),
    "constant": constant_potential([2.0, 1.0 + 1.0j]),
}


@settings(deadline=None, max_examples=80)
@given(
    lattice=st.sampled_from(_ORACLE_LATTICES),
    forcing=st.sampled_from(sorted(_ORACLE_FORCINGS)),
    gamma=st.sampled_from([1.0, -0.7]),
    block=st.integers(1, 120),
    samples_per_block=st.floats(0.0, 4.0),
    radius=st.floats(0.5, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_verify_boundary_matches_the_serial_check_on_any_core_count(
    lattice, forcing, gamma, block, samples_per_block, radius, seed
):
    # samples from 1 (fewer than the workers) to 4 blocks, rarely a multiple
    # of one; block sizes from 1 to 120 samples
    T, K = lattice
    op = build_shifted(LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=gamma), 1.5)
    g = _ORACLE_FORCINGS[forcing]
    samples = max(1, int(samples_per_block * block))
    with mock.patch.object(certificate, "CHUNK_VALUES", block * op.dim):
        expected = _serial_evidence(radius, op, g, samples, seed)
        for cores in (1, 2, 3):
            with _cores(cores):
                evidence = verify_boundary(radius, op, g, samples=samples, seed=seed)
            assert _evidence_key(evidence) == expected, f"{cores} cores"


# ---------------------------------------------------------------------------
# skipped forcing halves


@contextmanager
def _columns():
    """Count the columns that ShiftedOperator.solve applies A^-1 to."""
    applied = [0]
    solve = operators.ShiftedOperator.solve

    def counted(self, rhs, out=None):
        applied[0] += rhs.shape[1] if rhs.ndim == 2 else 1
        return solve(self, rhs, out)

    with mock.patch.object(operators.ShiftedOperator, "solve", counted):
        yield applied


def _no_sup(radius):
    # a sup that bounds nothing: only each row's own forcing term can bound
    # its half, as in the per-row re-bound of _kept_halves
    return math.inf


#: the forcing that "no_sup_formula" wraps
_NO_SUP_BASE = power_law([0.5, 0.2j], 2.0)


def _certified_radius(op, g):
    """The certificate's ball radius for ``op``'s lattice, computed on a
    torus whose T the forcing period divides (the norms agree on both).  A
    forcing whose sup is ``_no_sup`` takes its base forcing's radius."""
    params = dataclasses.replace(op.params, T=op.params.T * g.period)
    if g.sup_formula is _no_sup:
        g = _NO_SUP_BASE
    return build_certificate(build_shifted(params, 1.5), g, samples=0).radius


#: lattices from 32 to 576 nodes, on both sides of 256 nodes
_SKIP_LATTICES = [(4, 8), (8, 8), (16, 16), (17, 16), (12, 24), (24, 24)]
_SKIP_FORCINGS = {
    **_ORACLE_FORCINGS,
    "no_sup_formula": dataclasses.replace(_NO_SUP_BASE, sup_formula=_no_sup),
}


@settings(deadline=None, max_examples=40)
@given(
    lattice=st.sampled_from(_SKIP_LATTICES),
    forcing=st.sampled_from(sorted(_SKIP_FORCINGS)),
    gamma=st.sampled_from([1.0, -1.0]),
    block=st.integers(6, 40),
    blocks=st.integers(4, 6),
    extra=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_skipped_forcing_halves_keep_the_serial_evidence(lattice, forcing, gamma, block, blocks,
                                                         extra, seed):
    # at the certified radius most forcing halves are provably too small to
    # set the minimum gap: A^-1 is applied to fewer than two columns a
    # sample, and the evidence keeps the serial check's bits
    T, K = lattice
    op = build_shifted(LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=gamma), 1.5)
    g = _SKIP_FORCINGS[forcing]
    radius = _certified_radius(op, g)
    samples = blocks * block + extra
    with mock.patch.object(certificate, "CHUNK_VALUES", block * op.dim):
        expected = _serial_evidence(radius, op, g, samples, seed)
        for cores in (1, 2, 3):
            with _cores(cores), _columns() as applied:
                evidence = verify_boundary(radius, op, g, samples=samples, seed=seed)
            assert _evidence_key(evidence) == expected, f"{cores} cores"
            assert applied[0] < 2 * samples, f"{cores} cores"


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("forcing", sorted(_SKIP_FORCINGS))
def test_a_skipped_sample_is_never_below_the_lagged_minimum(forcing, cores, monkeypatch):
    # the gaps the check computes have the serial bits, and each skipped
    # sample's serial gap is at least the minimum of the chunks `workers`
    # or more before its own, on a lattice on each side of 256 nodes
    g = _SKIP_FORCINGS[forcing]
    samples, seed = 1500, 12
    for T, K in ((8, 8), (24, 24)):
        op = build_shifted(LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=1.0), 1.5)
        radius = _certified_radius(op, g)
        monkeypatch.setattr(certificate, "CHUNK_VALUES", 40 * op.dim)
        _, serial = _serial_gaps(radius, op, g, samples, seed)
        with _cores(cores):
            gaps = certificate._boundary_gaps(radius, op, g, samples, np.random.default_rng(seed))
        skipped = np.isinf(gaps)
        assert skipped.mean() > 0.5
        assert gaps[~skipped].tobytes() == serial[~skipped].tobytes()
        bounds = list(certificate._chunks(samples, op.dim, cores))
        lag = min(cores, len(bounds))
        for chunk, (lo, hi) in enumerate(bounds):
            if chunk < lag:
                assert not skipped[lo:hi].any()
            else:
                low = serial[: bounds[chunk - lag][1]].min()
                assert (serial[lo:hi][skipped[lo:hi]] >= low).all()


def test_skipped_forcing_halves_do_not_depend_on_the_schedule(monkeypatch):
    # each chunk skips against the chunks at least `workers` before it, so
    # the applied columns repeat however the chunks finish: draws delayed at
    # random and a thread switch every microsecond make the workers wait
    op = build_shifted(LatticeParams(T=17, K=16, beta=1.0, epsilon=1.0, gamma=1.0), 1.5)
    g = power_law([0.5, 0.2j], 2.0)
    radius = _certified_radius(op, g)
    samples, seed = 2000, 9
    monkeypatch.setattr(certificate, "CHUNK_VALUES", 20 * op.dim)
    expected = _serial_evidence(radius, op, g, samples, seed)
    delays = np.random.default_rng()
    draw = certificate.sphere_samples

    def delayed(*args, **kwargs):
        time.sleep(delays.uniform(0.0, 1e-3))
        return draw(*args, **kwargs)

    def run(cores):
        with _cores(cores), _columns() as applied:
            evidence = verify_boundary(radius, op, g, samples=samples, seed=seed)
        assert _evidence_key(evidence) == expected
        return applied[0]

    first = run(2)
    assert first < 2 * samples
    monkeypatch.setattr(certificate, "sphere_samples", delayed)
    assert run(2) == first
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = {run(4) for _ in range(2)}
    finally:
        sys.setswitchinterval(interval)
    assert len(counts) == 1


def test_small_lattices_skip_forcing_halves():
    # the check applies A^-1 by FFT at every size, so on lattices of 256
    # nodes and fewer it skips forcing halves too, with the serial evidence
    g = power_law([0.5, 0.2j], 2.0)
    samples, seed = 2000, 5
    for T, K in ((4, 8), (16, 16)):
        op = build_shifted(LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=1.0), 1.5)
        assert op.dim <= 256
        radius = _certified_radius(op, g)
        with _cores(2), _columns() as applied:
            evidence = verify_boundary(radius, op, g, samples=samples, seed=seed)
        assert applied[0] < 2 * samples
        assert _evidence_key(evidence) == _serial_evidence(radius, op, g, samples, seed)


def _l1_extremal(op):
    """The unit-sup field whose A^-1 image reaches ||A^-1|| at node 0: the
    phases of A^-1's kernel, conjugated (row 0 of the circulant is the
    kernel)."""
    kernel = np.fft.ifft2(operators._reversed(op.inverse_symbol)).ravel()
    size = np.abs(kernel)
    return np.where(size > 0.0, np.conj(kernel) / np.where(size > 0.0, size, 1.0), 1.0)


@settings(deadline=None, max_examples=60)
@given(
    lattice=st.sampled_from(_SKIP_LATTICES + [(1, 2), (3, 5), (16, 32), (9, 40)]),
    beta=st.floats(1e-3, 1e3),
    epsilon=st.floats(1e-3, 1e3),
    scale=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
    subset=st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True),
)
def test_fft_apply_is_bounded_by_the_inverse_norm_and_row_independent(lattice, beta, epsilon,
                                                                      scale, seed, subset):
    # the two facts the skip rests on: ||A^-1 v|| <= ||A^-1|| ||v|| (1 +
    # BOUND_SLACK) for the computed apply, including the extremal v, and a
    # row's apply has the same bits whatever rows share the FFT
    T, K = lattice
    op = build_shifted(LatticeParams(T=T, K=K, beta=beta, epsilon=epsilon, gamma=1.0), 1.5)
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(6, op.dim)) + 1j * rng.normal(size=(6, op.dim))
    stack[0] = _l1_extremal(op)
    stack[1] = np.sign(stack[1].real)
    stack *= 10.0**scale
    whole = op.solve(stack.copy().T, np.empty_like(stack).T).T
    sup = np.abs(stack).max(axis=1)
    assert (np.abs(whole).max(axis=1) <= op.norm_shifted_inv * sup
            * (1.0 + certificate.BOUND_SLACK)).all()
    # the extremal field reaches the bound up to rounding
    assert np.abs(whole[0]).max() >= op.norm_shifted_inv * sup[0] * (1.0 - 1e-9)
    rows = stack[subset]
    part = op.solve(rows.T, np.empty_like(rows).T).T
    assert part.tobytes() == np.ascontiguousarray(whole[subset]).tobytes()


def test_nan_forcing_row_gives_the_serial_nan_evidence():
    # a forcing whose sup bounds nothing, and that is NaN on one sample of a
    # late chunk: that sample's bound is NaN, so it is never skipped, and
    # the NaN gap is the evidence, as in the serial check
    op = build_shifted(LatticeParams(T=12, K=24, beta=1.0, epsilon=1.0, gamma=1.0), 1.5)
    base = power_law([0.5, 0.2j], 2.0)
    radius = build_certificate(op, base, samples=0).radius
    samples, seed, target = 1200, 3, 1000
    batch = certificate.sphere_samples(12, 24, radius, samples, np.random.default_rng(seed))
    marker = batch[target, 0, 0]

    def evaluate(t, z):
        value = base.evaluate(t, z)
        if np.ndim(z) == 3:
            value = np.where(z[:, :1, :1] == marker, np.nan, value)
        return value

    g = dataclasses.replace(base, evaluate=evaluate, sup_formula=_no_sup)
    expected = _serial_evidence(radius, op, g, samples, seed)
    assert expected[1] == "nan" and expected[2] == _sample_hash(batch[target])
    for cores in (1, 2, 3):
        with _cores(cores):
            evidence = verify_boundary(radius, op, g, samples=samples, seed=seed)
        assert (evidence.count, evidence.min_gap.hex(), evidence.argmin_hash) == expected


def test_verify_boundary_memory_is_flat_on_the_fft_path():
    # skipping gathers the rows it keeps into the worker's buffers: past one
    # chunk's working set only the gaps and the chunk minima grow.  One
    # worker, after a first check has built the FFT plans
    op = build_shifted(LatticeParams(T=17, K=16, beta=1.0, epsilon=1.0, gamma=1.0), 1.5)
    g = power_law([0.5], 2.0)
    radius = build_certificate(op, g, samples=0).radius
    peaks = {}
    with _cores(1):
        verify_boundary(radius, op, g, samples=500, seed=3)
        for samples in (3000, 12000):
            tracemalloc.start()
            try:
                verify_boundary(radius, op, g, samples=samples, seed=3)
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks[12000] - peaks[3000] <= 8 * 9000 + 2**15


def test_verify_boundary_starts_at_most_four_threads(monkeypatch):
    params = LatticeParams(T=8, K=8, beta=1.0, epsilon=1.0, gamma=1.0)
    op = build_shifted(params, shift_factor=1.5)
    g = power_law([0.5], 2.0)
    with _cores(1):
        serial = verify_boundary(3.0, op, g, samples=5000, seed=2)
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    baseline = threading.active_count()
    with _cores(64):
        evidence = verify_boundary(3.0, op, g, samples=5000, seed=2)
    # the calling thread is the fourth
    assert len(started) <= certificate.MAX_WORKERS - 1 == 3
    assert threading.active_count() == baseline
    assert evidence == serial


def test_verify_boundary_draws_each_chunk_once_under_contention(monkeypatch):
    # 4 workers on fewer CPUs, switching threads every microsecond: every
    # chunk is drawn exactly once, with its slice of the one index stream
    params = LatticeParams(T=4, K=4, beta=1.0, epsilon=1.0, gamma=1.0)
    op = build_shifted(params, shift_factor=1.5)
    g = power_law([0.5], 2.0)
    samples, seed = 3000, 6
    drawn = []
    draw = certificate.sphere_samples

    def recorded(T, K, radius, count, rng, rows=None, indices=None, out=None):
        if indices is not None:
            drawn.append((rows, indices.copy()))
        return draw(T, K, radius, count, rng, rows, indices, out)

    monkeypatch.setattr(certificate, "CHUNK_VALUES", 64 * op.dim)
    monkeypatch.setattr(certificate, "sphere_samples", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _cores(4):
            evidence = verify_boundary(3.0, op, g, samples=samples, seed=seed)
    finally:
        sys.setswitchinterval(interval)
    # the reference draws the moduli and phases first, one 64-bit draw a double
    rng = np.random.default_rng(seed)
    rng.random(2 * samples * op.dim)
    expected = rng.integers(0, op.dim, size=samples)
    assert sorted(rows for rows, _ in drawn) == list(certificate._chunks(samples, op.dim, 4))
    for (lo, hi), indices in drawn:
        assert np.array_equal(indices, expected[lo:hi])
    assert _evidence_key(evidence) == _serial_evidence(3.0, op, g, samples, seed)


class _ThirdCallFails(RuntimeError):
    pass


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_verify_boundary_error_in_a_chunk_is_raised_once_the_helpers_end(cores):
    # 8x8 with 5000 samples makes 10 to 20 chunks, so the third forcing call
    # comes while the other workers still have chunks to take
    _check_third_forcing_call_fails(8, 8, cores)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_verify_boundary_error_in_an_fft_chunk_is_raised_once_the_helpers_end(cores):
    # 17x16 with 5000 samples makes 42 to 126 chunks on the FFT path, where
    # a worker may wait for the chunk whose forcing call fails
    _check_third_forcing_call_fails(17, 16, cores)


def _check_third_forcing_call_fails(T, K, cores):
    params = LatticeParams(T=T, K=K, beta=1.0, epsilon=1.0, gamma=1.0)
    op = build_shifted(params, shift_factor=1.5)
    base = power_law([0.5], 2.0)
    calls = []

    def evaluate(t, z):
        calls.append(threading.get_ident())
        if len(calls) == 3:
            raise _ThirdCallFails("the third forcing call fails")
        return base.evaluate(t, z)

    g = dataclasses.replace(base, evaluate=evaluate)
    baseline = threading.active_count()
    with _cores(cores), pytest.raises(_ThirdCallFails):
        verify_boundary(3.0, op, g, samples=5000, seed=2)
    assert threading.active_count() == baseline
    # a chunk in flight may still finish, but no worker takes a new one
    assert len(calls) <= 3 + (cores - 1)


@pytest.mark.parametrize("cores", [1, 2])
def test_verify_boundary_overflow_raises_under_the_callers_errstate(cores):
    params = LatticeParams(T=4, K=4, beta=1.0, epsilon=1.0, gamma=1.0)
    op = build_shifted(params, shift_factor=1.5)
    base = power_law([0.5], 2.0)
    g = dataclasses.replace(base, evaluate=lambda t, z: base.evaluate(t, z) * 1e308 * 10.0)
    with _cores(cores), np.errstate(over="raise"), pytest.raises(FloatingPointError):
        verify_boundary(3.0, op, g, samples=5000, seed=2)


def test_verify_boundary_helpers_run_in_the_callers_context(monkeypatch):
    # each worker's first draw waits for the other's, so both take a chunk;
    # each records the overflow mode it runs under
    params = LatticeParams(T=4, K=4, beta=1.0, epsilon=1.0, gamma=1.0)
    op = build_shifted(params, shift_factor=1.5)
    barrier = threading.Barrier(2, timeout=30)
    modes = {}
    draw = certificate.sphere_samples

    def sampled(*args, **kwargs):
        if threading.get_ident() not in modes:
            modes[threading.get_ident()] = np.geterr()["over"]
            barrier.wait()
        return draw(*args, **kwargs)

    monkeypatch.setattr(certificate, "sphere_samples", sampled)
    with _cores(2), np.errstate(over="raise"):
        verify_boundary(3.0, op, power_law([0.5], 2.0), samples=5000, seed=2)
    assert list(modes.values()) == ["raise", "raise"]
