"""Existence certificates for periodic solutions of the lattice equation.

The certificate packages the constants of a degree-theoretic existence
argument.  With A the shifted linear matrix, s the shift, and gamma the cubic
coefficient, the pivotal coefficient is

    coef = |gamma| / (2 * ||A|| * ||A^-1||),

and the forcing must eventually be dominated by coef * |z|^3: beyond the
threshold radius, |g(t, z)| <= coef * |z|^3.  With M the sup of |g| inside
the threshold radius, the chain of constants is

    const_bound  = ||A^-1|| * M,
    linear_bound = ||A^-1|| * s,
    cubic_bound  = |gamma| / (2 * ||A||),

which bound the preconditioned forcing from above,

    ||A^-1 (G(phi) - s phi)|| <= const_bound + linear_bound*||phi|| + cubic_bound*||phi||^3,

while the odd part is bounded from below on every sphere,

    ||phi - A^-1 F(phi)|| >= 2*cubic_bound*||phi||^3 - ||phi||.

Any radius R that puts the lower envelope strictly above the upper one
certifies that the boundary of the ball of radius R is free of zeros of the
interpolating family, so the topological degree argument pins a solution
inside.  ``verify_boundary`` backs the inequality with randomized sphere
sampling and records the worst observed gap.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import math
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CertificateInvalid, CertificateOverflow
from .lattice import check_period
from .operators import ShiftedOperator
from .potentials import Potential

__all__ = [
    "BoundaryEvidence",
    "ExistenceCertificate",
    "compute_threshold_radius",
    "compute_forcing_sup",
    "compute_ball_radius",
    "sphere_samples",
    "verify_boundary",
    "build_certificate",
]

#: absolute bisection tolerance of the certified ball radius
RADIUS_TOL = 1e-9
#: complex values in flight in the boundary check, shared by its workers:
#: each has fixed buffers for a chunk of CHUNK_VALUES / workers values, and
#: only the gaps (8 bytes a sample) and the chunks' minima and done flags
#: (9 bytes a chunk) grow with the sample count
CHUNK_VALUES = 2**15
#: most workers of the boundary check, one per CPU, so that a worker's chunk
#: keeps at least a quarter of CHUNK_VALUES (measured on 2 cores only)
MAX_WORKERS = 4
#: relative slack of the bounds ||A^-1 v|| <= ||A^-1|| * ||v|| that let the
#: boundary check skip a sample's forcing half: it covers the rounding of the
#: FFT apply and of the l1 sum of A^-1's kernel (norm_shifted_inv), which
#: drift by about 6e-14
BOUND_SLACK = 1e-6
#: most complex values per forcing call on the rows a sup bound leaves.
#: glibc keeps freed blocks below its trim threshold resident, so forcing
#: temporaries whose size varies from chunk to chunk hold memory: with one
#: call for all those rows certify-24x24 peaked 0.4 MB above a check that
#: evaluates whole chunks, and in calls of this size 0.03 MB (2-core host)
FORCING_VALUES = 2**12


@dataclass(frozen=True)
class BoundaryEvidence:
    """Outcome of randomized boundary sampling: sample count, the smallest
    observed gap lower-envelope minus upper-envelope, and a short hash of the
    sample attaining it (None fields when no samples were drawn)."""

    count: int
    min_gap: float | None
    argmin_hash: str | None


@dataclass(frozen=True)
class ExistenceCertificate:
    """Constants of the existence argument plus the sampled boundary evidence.

    ``rigor`` records how the threshold radius and forcing sup were obtained:
    "closed_form", from the potential's exact formulas, for every forcing.
    ``valid`` requires a strictly positive observed minimum gap over at
    least one boundary sample.
    """

    shift: float
    norm_linear: float
    norm_shifted: float
    norm_shifted_inv: float
    threshold_coef: float
    threshold_radius: float
    forcing_sup: float
    const_bound: float
    linear_bound: float
    cubic_bound: float
    radius: float
    margin: float
    rigor: str
    boundary: BoundaryEvidence
    valid: bool


def compute_threshold_radius(g: Potential, coef: float) -> float:
    """Radius beyond which |g(t, z)| <= coef * |z|^3, from the potential's
    closed form, which raises NoThresholdFound when there is none."""
    if not coef > 0.0:
        raise ValueError(f"threshold coefficient must be positive, got {coef}")
    return float(g.threshold_formula(coef))


def compute_forcing_sup(g: Potential, radius: float) -> float:
    """Sup of |g(t, z)| over t and the disk |z| <= radius, from the
    potential's closed form."""
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    return float(g.sup_formula(radius))


def compute_ball_radius(
    const_bound: float, linear_bound: float, cubic_bound: float, slack: float = 0.1
) -> float:
    """Smallest radius R whose lower envelope clears the upper one with slack.

    Solves  2*cubic_bound*R^3 - R >= (1 + slack) * (const_bound +
    linear_bound*R + cubic_bound*R^3)  for the smallest such R, by doubling a
    bracket from the cubic's stationary point and bisecting to RADIUS_TOL, or
    to the float spacing when that is coarser.  For slack < 1 the cubic terms
    leave a positive net coefficient, so a finite radius always exists.
    """
    if not 0.0 <= slack < 1.0:
        raise ValueError(f"slack must lie in [0, 1), got {slack}")
    if not cubic_bound > 0.0:
        raise ValueError(f"cubic bound must be positive, got {cubic_bound}")
    sigma = 1.0 + slack
    a = (2.0 - sigma) * cubic_bound
    b = 1.0 + sigma * linear_bound
    c = sigma * const_bound

    def excess(r: float) -> float:
        return a * r**3 - b * r - c

    lo = float(np.sqrt(b / (3.0 * a)))  # stationary point; excess(lo) < 0 always
    hi = lo
    while excess(hi) < 0.0:
        hi *= 2.0
    while hi - lo > RADIUS_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # lo and hi are adjacent floats
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi  # upper end of the bracket, so the inequality holds at the result


def _stream_at(rng: np.random.Generator, draws: int) -> np.random.Generator:
    """A copy of ``rng`` moved ``draws`` 64-bit outputs ahead; ``rng`` is left
    as it was.  Needs a bit generator with ``advance``, such as PCG64, and a
    Python int ``draws``: ``PCG64.advance`` overflows on an ``np.int64``."""
    state = rng.bit_generator.state
    bits = type(rng.bit_generator)(0)
    bits.state = state
    bits.advance(draws)
    # advance drops the buffered 32-bit half, which the next integers() reads
    bits.state = {**bits.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    return np.random.Generator(bits)


def sphere_samples(
    T: int,
    K: int,
    radius: float,
    count: int,
    rng: np.random.Generator,
    rows: tuple[int, int] | None = None,
    indices: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """(count, T, K) batch of fields with sup norm exactly ``radius``.

    Entries get moduli uniform in [0, radius] and uniform phases, then one
    uniformly chosen entry per sample is rescaled to modulus exactly
    ``radius`` (keeping its phase), which places the sample on the sphere.
    The batch is the moduli, phases and indices drawn in turn from ``rng``,
    which is left where the last draw ends.

    ``rows=(lo, hi)`` returns samples lo..hi-1 of that same batch, bit for
    bit, and leaves ``rng`` untouched, so a caller can walk the batch chunk
    by chunk without holding it.  Each double costs one 64-bit draw, so the
    moduli and phases of a chunk are reached by jumping ahead; the indices
    use rejection sampling, which cannot be jumped, so their first ``hi``
    are drawn, unless the caller passes the chunk's ``indices``: the next
    hi - lo draws of ``integers(0, T*K)`` from the index stream, which
    starts 2*count*T*K draws in.  ``rng`` must be PCG64-backed, as
    ``default_rng`` gives.

    ``out``, one float and two complex buffers of at least (hi - lo, T*K),
    holds every array of the draw, and the samples are a view of its first
    complex buffer.
    """
    n = T * K
    lo, hi = (0, count) if rows is None else rows
    m = hi - lo
    moduli_rng, phases_rng = _stream_at(rng, lo * n), _stream_at(rng, (count + lo) * n)
    if indices is None:
        index_rng = _stream_at(rng, 2 * count * n)
        indices = index_rng.integers(0, n, size=hi)[lo:]
        if rows is None:
            rng.bit_generator.state = index_rng.bit_generator.state
    if out is None:
        out = (np.empty((m, n)), np.empty((m, n), complex), np.empty((m, n), complex))
    real, z, moduli = (buf[:m] for buf in out)
    # moduli * exp(1j * phases), bit for bit: uniform(0, b) is b times
    # random(), and a float times a complex goes through a complex cast
    phases_rng.random(out=real)
    real *= 2.0 * np.pi
    np.copyto(z, real)
    z *= 1j
    np.exp(z, out=z)
    moduli_rng.random(out=real)
    real *= radius
    real[np.arange(m), indices] = radius
    np.copyto(moduli, real)
    z *= moduli
    return z.reshape(m, T, K)


def _require_valid(cert: ExistenceCertificate) -> None:
    """Raise CertificateInvalid unless ``cert`` passed its boundary check."""
    if not cert.valid:
        raise CertificateInvalid(
            "the certificate failed its boundary check, so no certified ball bounds the search"
        )


def _odd_part(flat: np.ndarray, op: ShiftedOperator, work: tuple) -> np.ndarray:
    """phi - A^-1 F(phi) for an (m, n) stack of flat fields.  ``work``,
    (float, complex, complex) buffers of flat's shape, holds every large
    array, the result is its first complex buffer, and A^-1 goes to the
    stack as one FFT block (``ShiftedOperator.solve``) into the last."""
    real, term, block = work
    # -gamma * |phi|^2 * phi, bit for bit: a float times a complex goes
    # through a complex cast
    np.square(np.abs(flat, out=real), out=real)
    real *= -op.params.gamma
    np.copyto(term, real)
    term *= flat
    applied = op.solve(term.T, out=block.T).T
    return np.subtract(flat, applied, out=term)


def _forcing_term(
    flat: np.ndarray,
    op: ShiftedOperator,
    g: Potential,
    out: np.ndarray,
    lock: threading.Lock | None = None,
) -> np.ndarray:
    """G(phi) - s*phi for one flat field or an (m, n) stack of them, written
    to and returned in the complex ``out`` of flat's shape.  G, the one step
    that allocates, runs holding ``lock``: workers that share it keep one
    forcing evaluation alive at a time and never call a forcing from two
    threads at once."""
    fields = flat.reshape(flat.shape[:-1] + (op.params.T, op.params.K))
    with lock or contextlib.nullcontext():
        np.multiply(flat, op.shift, out=out)
        return np.subtract(g.on_lattice(fields).reshape(flat.shape), out, out=out)


def _inverse_bound(op: ShiftedOperator, sup):
    """Bound on ||A^-1 v|| for the v with ||v|| <= ``sup``: ||A^-1|| * sup,
    raised by BOUND_SLACK for rounding; inf or NaN where that overflows."""
    with np.errstate(all="ignore"):
        return op.norm_shifted_inv * (1.0 + BOUND_SLACK) * sup


def _excluded(odd: np.ndarray, bound, low: float) -> np.ndarray:
    """Mask of the rows whose gap provably exceeds a finite ``low``:
    odd - bound > low with odd and the bound on the forcing half finite."""
    with np.errstate(all="ignore"):
        return np.isfinite(odd) & np.isfinite(bound) & (odd - bound > low)


def _kept_halves(
    flat: np.ndarray,
    odd: np.ndarray,
    low: float,
    bound: float,
    op: ShiftedOperator,
    g: Potential,
    buffers: list[np.ndarray],
    lock: threading.Lock,
    failed: list[BaseException],
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of an (m, n) stack ``flat``, whose odd halves have the sup
    norms ``odd``, that no bound excludes against ``low`` (a NaN ``low``
    excludes none), and the sup norms of their forcing halves.  ``bound``
    covers every row; G is evaluated on the rows it leaves, FORCING_VALUES
    complex values at a time, and their own forcing terms bound them again.
    The rows left are gathered, and every large array is held, in the
    worker's ``buffers`` (float, samples, term, block), of which ``flat`` is
    the samples; ``lock`` is held while G runs.  Once ``failed`` holds
    another worker's error, no further G call starts and no row is kept."""
    real, draw, term, block = buffers
    left = np.flatnonzero(~_excluded(odd, bound, low))
    if left.size:
        # in the default mode "raise", take copies through a buffer
        phi = np.take(flat, left, axis=0, out=term[: left.size], mode="clip")
        rhs = block[: left.size]
        step = max(1, FORCING_VALUES // op.dim)
        for start in range(0, left.size, step):
            if failed:
                return left[:0], np.empty(0)
            _forcing_term(phi[start : start + step], op, g, rhs[start : start + step], lock)
        sup = np.abs(rhs, out=real[: left.size]).max(axis=1)
        keep = np.flatnonzero(~_excluded(odd[left], _inverse_bound(op, sup), low))
        left = left[keep]
        if keep.size:
            kept = np.take(rhs, keep, axis=0, out=draw[: keep.size], mode="clip")
            forced = op.solve(kept.T, out=term[: keep.size].T).T
            return left, np.abs(forced, out=real[: keep.size]).max(axis=1)
    return left, np.empty(0)


def _chunks(samples: int, dim: int, workers: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) bounds of the boundary check's chunks, in sample order, when
    ``workers`` share the CHUNK_VALUES budget: the samples fall into blocks
    of CHUNK_VALUES // dim, the chunks of a serial check, and each block is
    cut every 1/workers of it, so the first chunk is a largest one."""
    block = max(1, CHUNK_VALUES // dim)
    rows = max(1, block // workers)
    for start in range(0, samples, block):
        stop = min(start + block, samples)
        yield from ((lo, min(lo + rows, stop)) for lo in range(start, stop, rows))


def _boundary_gaps(
    radius: float, op: ShiftedOperator, g: Potential, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """The gap of each of ``samples`` sphere samples drawn from ``rng``,
    computed by the workers that ``verify_boundary`` describes; +inf for a
    sample whose bound shows it cannot set the minimum."""
    T, K, n = op.params.T, op.params.K, op.dim
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    share = min(cores, MAX_WORKERS)
    # first, so that a sample count beyond memory fails before the plan's walk
    gaps = np.empty(samples)
    # the plan is walked, not held: its first chunk is a largest one
    rows, count = next(_chunks(samples, n, share))[1], sum(1 for _ in _chunks(samples, n, share))
    # per worker: a float buffer (moduli and phases, |phi|^2, each half's
    # moduli) and three complex ones (the samples, then the kept forcing
    # terms; the cast moduli, then each half's term and result; the A^-1
    # apply's spectrum)
    scratch = [
        [np.empty((rows, n))] + [np.empty((rows, n), complex) for _ in range(3)]
        for _ in range(min(share, count))
    ]
    chunks = enumerate(_chunks(samples, n, share))
    index_rng = _stream_at(rng, 2 * samples * n)
    take, forcing = threading.Lock(), threading.Lock()
    errors: list[BaseException] = []
    bound = math.inf  # on every sample's forcing half, from the forcing's sup
    with np.errstate(all="ignore"):  # a bound that overflows skips nothing
        try:
            bound = _inverse_bound(op, g.sup_formula(radius) + op.shift * radius)
        except OverflowError:  # a power of a Python float
            pass
    # chunk c may skip against the minimum gap of chunks 0..c - lag, which
    # are done before it starts unless one of them is slow: a schedule-free m
    lag = len(scratch)
    minima = np.empty(count)  # the chunks' gap minima, then their running minima
    done = np.zeros(count, dtype=bool)
    settled = 0  # chunks 0..settled-1 are done and hold running minima
    ready = threading.Condition()

    def lagged_min(chunk: int) -> float:
        if chunk < lag:
            return math.nan
        with ready:
            ready.wait_for(lambda: settled > chunk - lag or errors)
            return float(minima[chunk - lag])

    def settle(chunk: int, lo: int, hi: int) -> None:
        nonlocal settled
        with ready:
            minima[chunk], done[chunk] = gaps[lo:hi].min(), True
            while settled < count and done[settled]:
                if settled:  # min propagates NaN
                    minima[settled] = minima[settled - 1 : settled + 1].min()
                settled += 1
            ready.notify_all()

    def work(buffers: list[np.ndarray]) -> None:
        try:
            # once a chunk has failed, no worker takes another
            while not errors:
                # chunks are taken in order, and each takes the next indices
                with take:
                    chunk, bounds = next(chunks, (None, None))
                    if bounds is None:
                        return
                    lo, hi = bounds
                    indices = index_rng.integers(0, n, size=hi - lo)
                chunk_buffers = [buf[: hi - lo] for buf in buffers]
                real, draw, term, block = chunk_buffers
                flat = sphere_samples(
                    T, K, radius, samples, rng, (lo, hi), indices, (real, draw, term)
                ).reshape(-1, n)
                odd = np.abs(_odd_part(flat, op, (real, term, block)), out=real).max(axis=1)
                low = lagged_min(chunk)
                if errors:  # set while this worker waited
                    return
                kept, forced = _kept_halves(
                    flat, odd, low, bound, op, g, chunk_buffers, forcing, errors
                )
                gaps[lo:hi] = math.inf
                gaps[lo + kept] = odd[kept] - forced
                settle(chunk, lo, hi)
        except BaseException as exc:  # raised below, once every helper has ended
            with ready:  # wakes the workers that wait for a chunk this one held
                errors.append(exc)
                ready.notify_all()

    # each helper runs in a copy of the caller's context, so that the
    # caller's np.errstate holds there too
    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(work, buffers))
        for buffers in scratch[1:]
    ]
    for helper in helpers:
        helper.start()
    work(scratch[0])
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return gaps


def verify_boundary(
    radius: float,
    op: ShiftedOperator,
    g: Potential,
    samples: int,
    seed: int,
) -> BoundaryEvidence:
    """Sample the sphere of the given radius and record the worst inequality gap.

    For each sample phi with sup norm ``radius`` the gap is

        ||phi - A^-1 F(phi)||  -  ||A^-1 (G(phi) - s*phi)||,

    which the certificate constants promise to be positive.  Evidence with a
    nonpositive minimum gap (or an empty sample set) marks the certificate
    invalid.  The batch is never held whole: the calling thread and up to
    MAX_WORKERS - 1 helper threads, one per CPU, take chunks (``_chunks``)
    from one iterator, and each draws and evaluates its chunks in buffers
    allocated once.  The evidence has the bits of a serial check whatever
    the schedule, and an error in one chunk stops the others and is raised
    here once every helper has ended.

    Only the minimum gap is reported, so a sample's forcing half is skipped
    when a bound shows that its gap exceeds m, the minimum gap of the chunks
    at least one per worker before its own (a worker waits for them in the
    rare case that one is still running).
    With ||A^-1 v|| <= ||A^-1|| * ||v|| and ||A^-1|| = ``norm_shifted_inv``,
    the half is at most ||A^-1|| * (sup|g| + s*radius) * (1 + BOUND_SLACK),
    with sup|g| from the forcing's ``sup_formula``, and, once G is
    evaluated, ||A^-1|| * ||G(phi) - s*phi|| * (1 + BOUND_SLACK); A^-1 is
    applied to the rows neither bound excludes.  A sample is skipped only
    when its odd half, the bound and m are finite and odd - bound > m, so
    its gap exceeds m >= the final minimum and the minimum and its argmin
    keep their bits, since the FFT gives a row the same bits whatever rows
    share it.  Which samples are skipped depends on the chunks, and so on
    the core count, but not on the schedule; the evidence depends on neither.
    """
    if samples <= 0:
        return BoundaryEvidence(count=0, min_gap=None, argmin_hash=None)
    rng = np.random.default_rng(seed)
    gaps = _boundary_gaps(radius, op, g, samples, rng)
    worst = int(np.argmin(gaps))
    phi = sphere_samples(op.params.T, op.params.K, radius, samples, rng, rows=(worst, worst + 1))
    digest = hashlib.sha256(phi.tobytes()).hexdigest()[:16]
    return BoundaryEvidence(count=samples, min_gap=float(gaps[worst]), argmin_hash=digest)


def build_certificate(
    op: ShiftedOperator,
    g: Potential,
    slack: float = 0.1,
    samples: int = 10000,
    seed: int = 0,
) -> ExistenceCertificate:
    """Run the full constant chain and boundary check for one instance.

    Raises PeriodMismatch up front when the forcing period does not divide T,
    NoThresholdFound (from the forcing's threshold formula) when it is not
    subcubic and CertificateOverflow when a constant leaves the floating-point
    range, or when |gamma| is so small that the cubic constants are 0;
    otherwise always returns a certificate, whose ``valid`` flag reflects the
    sampled boundary evidence.
    """
    check_period(op.params.T, g)
    gamma = abs(op.params.gamma)
    coef = gamma / (2.0 * op.norm_shifted * op.norm_shifted_inv)
    cubic_bound = gamma / (2.0 * op.norm_shifted)
    if not min(coef, cubic_bound) > 0.0:
        raise CertificateOverflow(
            f"certificate constants underflow to 0 for gamma = {op.params.gamma!r}"
        )
    try:
        threshold_radius = compute_threshold_radius(g, coef)
        forcing_sup = compute_forcing_sup(g, threshold_radius)
        const_bound = op.norm_shifted_inv * forcing_sup
        linear_bound = op.norm_shifted_inv * op.shift
        radius = compute_ball_radius(const_bound, linear_bound, cubic_bound, slack)
        upper = const_bound + linear_bound * radius + cubic_bound * radius**3
        margin = (2.0 * cubic_bound * radius**3 - radius) / upper - 1.0
        finite = math.isfinite(upper) and math.isfinite(margin)
    except OverflowError:
        finite = False
    if not finite:
        raise CertificateOverflow(
            "certificate constants overflow the floating-point range; the forcing is too "
            "large for this lattice"
        )
    evidence = verify_boundary(radius, op, g, samples, seed)
    return ExistenceCertificate(
        shift=op.shift,
        norm_linear=op.norm_linear,
        norm_shifted=op.norm_shifted,
        norm_shifted_inv=op.norm_shifted_inv,
        threshold_coef=float(coef),
        threshold_radius=float(threshold_radius),
        forcing_sup=float(forcing_sup),
        const_bound=float(const_bound),
        linear_bound=float(linear_bound),
        cubic_bound=float(cubic_bound),
        radius=float(radius),
        margin=float(margin),
        rigor="closed_form",
        boundary=evidence,
        # min_gap is None exactly when no samples were drawn
        valid=evidence.min_gap is not None and evidence.min_gap > 0.0,
    )
