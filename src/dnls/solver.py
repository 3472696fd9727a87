"""Newton and homotopy solvers for the lattice equation.

The degree argument works on the fixed-point family

    r_tau(phi) = phi - A^-1 F(phi) - tau * A^-1 (G(phi) - s*phi),

with A = L - sI the shifted linear matrix, s the shift, F the cubic term
and G the forcing.  Its tau = 0 slice is the odd map (its only small zero
is the origin, with identity Jacobian) and its tau = 1 slice the full
problem.  Newton solves the same slices in direct form,

    d_tau(phi) = A r_tau(phi) = L phi + gamma |phi|^2 phi - tau G(phi) - (1 - tau) s phi,

a stencil plus nodewise terms, with no A^-1: d_tau and r_tau have the same
zeros, and the Newton step M dx = -d_tau, with M = A_r - blockdiag(B) the
Jacobian of d_tau (A_r the realified A, B the nodewise blocks), is the step
J dx = -r_tau of J = A_r^-1 M.  At tau = 1, d_tau is the lattice equation's
residual.  ``homotopy_solve`` tracks the zero curve from (0, 0) to tau = 1
with a secant predictor and damped Newton corrector.  It tracks on the
symmetry quotient: the curve stays in the fields that are constant in space
and periodic in time like the forcing, a lattice of two nodes per forcing
period.

Complex fields are realified for the linear algebra: a vector in C^n becomes
a vector in R^(2n) with interleaved layout (Re z_0, Im z_0, Re z_1, ...), and
an R-linear map becomes a 2n x 2n real matrix built from 2x2 blocks.  Every
Newton step solves the dense realified M exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certificate import ExistenceCertificate, _require_valid
from .errors import SolveFailed
from .lattice import LatticeParams, _linear, check_period, sup_norm
from .operators import ShiftedOperator, _build_shifted, _stencil
from .potentials import Potential, _blocks

__all__ = [
    "SolveReport",
    "realify",
    "complexify",
    "residual_direct",
    "homotopy_solve",
    "multi_start",
    "steady_state_solve",
]

#: default convergence tolerance on the sup norm of the direct residual: of
#: d_tau on the homotopy's way, of the lattice equation at its end
DEFAULT_TOL = 1e-10
#: maximum step halvings inside the damped Newton line search
MAX_HALVINGS = 30
#: homotopy step floor; shrinking past it is reported as divergence
STEP_FLOOR = 1e-6
#: Newton iteration budget of one homotopy corrector call
CORRECTOR_ITER = 25
#: base deduplication radius for distinct solutions (sup distance)
DEDUP_TOL = 1e-6
#: bytes of realified Jacobians M one stack of Newton starts may hold: 32
#: starts per stack on 4x8, one from 12x12 up, so multi-start memory does
#: not grow with the start count
JACOBIAN_STACK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one solver run.

    ``solution`` is a read-only (T, K) complex array.  ``residual_direct``
    is the sup norm of the lattice equation residual at the reported field;
    ``residual_precond`` is the sup norm of the fixed-point residual, the
    direct residual pushed through A^-1 (``ShiftedOperator.solve``).
    ``path`` holds (tau, sup norm) pairs for homotopy runs, None otherwise.
    ``status`` is one of "converged", "diverged", "left_ball", "max_iter".
    """

    solution: np.ndarray
    residual_direct: float
    residual_precond: float
    newton_iterations: int
    homotopy_steps: int
    path: tuple[tuple[float, float], ...] | None
    status: str
    method: str


# ---------------------------------------------------------------------------
# realification helpers


def realify(z: np.ndarray) -> np.ndarray:
    """C^n vector -> R^(2n) vector, interleaved (Re, Im) per entry; an
    (m, n) stack row by row."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def complexify(x: np.ndarray) -> np.ndarray:
    """Inverse of ``realify``."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


# ---------------------------------------------------------------------------
# residuals


def residual_direct(values, params: LatticeParams, g: Potential) -> np.ndarray:
    """Residual of the lattice equation itself, nodewise, on a (T, K) field
    or a (..., T, K) stack of them: the linear part minus the cubic term
    -gamma |phi|^2 phi minus the forcing g(t, phi).  Each field of a stack
    has the bits of a call on it alone.  Raises ValueError for a trailing
    shape other than (T, K) and PeriodMismatch (``check_period``) for a
    forcing period that does not divide T."""
    v = np.asarray(values, dtype=complex)
    if v.shape[-2:] != (params.T, params.K):
        raise ValueError(f"field shape {v.shape} does not match lattice ({params.T}, {params.K})")
    check_period(params.T, g)
    return _residual(v, params, g, 1.0, 0.0)


def _residual(v: np.ndarray, params: LatticeParams, g: Potential, tau: float,
              shift: float) -> np.ndarray:
    """d_tau = L phi + gamma |phi|^2 phi - tau G(phi) - (1 - tau) s phi on a
    (..., T, K) stack of fields, each with the bits of a call on it alone.
    A term whose factor is 0 is skipped and a factor 1 is not multiplied,
    so at tau = 1 these are the bits of the lattice equation's residual."""
    cubic = -params.gamma * (v.real * v.real + v.imag * v.imag) * v
    res = _linear(v, params) - cubic
    if tau != 0.0:
        forcing = g.on_lattice(v)
        res = res - (forcing if tau == 1.0 else tau * forcing)
    if tau != 1.0:
        res = res - (1.0 - tau) * shift * v
    return res


def _field(flat: np.ndarray, params: LatticeParams) -> np.ndarray:
    """Read-only (T, K) copy of a flat field, as reports and records hold it."""
    field = flat.reshape(params.T, params.K).copy()
    field.flags.writeable = False
    return field


def _slice_residual(flat: np.ndarray, op: ShiftedOperator, g: Potential, tau: float) -> np.ndarray:
    """d_tau, the direct residual of the tau-slice, on a flat vector or on
    each row of an (m, n) stack with the bits of a one-vector call."""
    T, K = op.params.T, op.params.K
    fields = flat.reshape(flat.shape[:-1] + (T, K))
    return _residual(fields, op.params, g, tau, op.shift).reshape(flat.shape)


# ---------------------------------------------------------------------------
# Jacobians


def _slice_blocks(flat: np.ndarray, op: ShiftedOperator, g: Potential, tau: float) -> np.ndarray:
    """(..., n, 2, 2) realified Jacobian blocks B of the nodewise part of the
    tau-slice, the cubic term -gamma |z|^2 z plus tau * (forcing - s*phi),
    at a flat vector or an (m, n) stack: the Jacobian of d_tau is
    A_r - blockdiag(B)."""
    x, y = flat.real, flat.imag
    blocks = -op.params.gamma * _blocks(
        3.0 * x * x + y * y, 2.0 * x * y, 2.0 * x * y, x * x + 3.0 * y * y
    )
    if tau != 0.0:
        T, K = op.params.T, op.params.K
        forcing = g.derivative(np.arange(T)[:, None], flat.reshape(flat.shape[:-1] + (T, K)))
        blocks = blocks + tau * np.asarray(forcing, dtype=float).reshape(flat.shape + (2, 2))
        blocks[..., 0, 0] -= tau * op.shift
        blocks[..., 1, 1] -= tau * op.shift
    return blocks


def _slice_jacobian(flat: np.ndarray, op: ShiftedOperator, g: Potential, tau: float) -> np.ndarray:
    """M = A_r - blockdiag(B), the dense realified Jacobian of d_tau at a
    flat vector, (2n, 2n), or at each row of an (m, n) stack, (m, 2n, 2n),
    with the blocks B of ``_slice_blocks``.

    M is assembled in one fresh array: node p's row of blocks holds, at
    each neighbour p + (dt, dk), the realified weight [[a, -b], [b, a]] of
    A's kernel entry a + ib there (offsets that wrap onto one another are
    merged in the kernel), and B_p is subtracted on the diagonal.  Its
    determinant has the sign of J's, since det A_r = |det A|^2 > 0."""
    T, K, n = op.params.T, op.params.K, op.dim
    kernel = _stencil(op.params)
    kernel[0, 0] -= op.shift
    dt, dk = np.nonzero(kernel)
    w = kernel[dt, dk]
    t, k = np.divmod(np.arange(n), K)
    neighbour = (t + dt[:, None]) % T * K + (k + dk[:, None]) % K
    # flat index of entry (2p + a, 2j + c) of a 2n x 2n matrix
    corner = np.array([[0, 1], [2 * n, 2 * n + 1]])
    row = 4 * n * np.arange(n)
    lead = flat.shape[:-1]
    jacobian = np.zeros(lead + (4 * n * n,))
    jacobian[..., (row + 2 * neighbour)[..., None, None] + corner] = np.stack(
        [w.real, -w.imag, w.imag, w.real], axis=-1).reshape(-1, 1, 2, 2)
    diagonal = (row + 2 * np.arange(n))[:, None, None] + corner
    jacobian[..., diagonal] -= _slice_blocks(flat, op, g, tau)
    return jacobian.reshape(lead + (2 * n, 2 * n))


# ---------------------------------------------------------------------------
# damped Newton core


def _newton_step(
    flat: np.ndarray, res: np.ndarray, op: ShiftedOperator, g: Potential, tau: float
) -> np.ndarray:
    """Newton step of the tau-slice at ``flat``, whose direct residual d_tau
    is ``res``: the solution dx of M dx = -res, with the 2n x 2n M assembled
    and solved exactly.  ``flat`` and ``res`` are flat vectors or (m, n)
    stacks, one step per row; a stack takes one stacked LAPACK call whose
    rows carry the bits of one call each.  A singular M in any row raises
    LinAlgError.
    """
    jacobian = _slice_jacobian(flat, op, g, tau)
    return complexify(np.linalg.solve(jacobian, -realify(res)[..., None])[..., 0])


@np.errstate(over="ignore", invalid="ignore")
def _damped_newton(
    starts: np.ndarray,
    op: ShiftedOperator,
    g: Potential,
    tau: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, list[int], list[str]]:
    """Damped Newton on the (realified) tau-slice from each row of an (m, n)
    stack of ``starts``, all rows advanced together.

    A row converges once the sup norm of its direct residual d_tau is at
    most ``tol``.  Full steps first, halving up to MAX_HALVINGS times until
    that sup norm strictly decreases; a singular Jacobian, a stalled line
    search, or a non-finite trial residual (from a non-finite step or an
    overflow) counts as divergence.

    Each iteration takes one stacked exact Newton step (``_newton_step``,
    one 2n x 2n M per row) over the rows still running, then tries
    the steps lambda = 2^-i in blocks that double, i = 0 | 1-2 | 3-6 | 7-14
    | 15-30, so the MAX_HALVINGS + 1 trials take at most five residual
    calls.  A block evaluates every trial of every row still searching in
    one stacked ``_slice_residual``, and each row stops at its first trial
    that is non-finite or decreases, the trial a one-at-a-time search stops
    at; the block's later trials are dropped.  A stacked residual gives each
    row the bits of a one-vector call, so the trials and what they decide
    are those of that search.  Homotopy passes one row on its quotient
    lattice, the enumeration stacks of ``_stack_rows`` rows.  A step that
    fails for the stack is retried one row at a time, so that only the rows
    that fail on their own diverge.  Each row ends with the point, iteration
    count and status of a run from that start alone, bit for bit.  Returns
    the final (m, n) points and their (m, n) direct residuals, and the
    iteration count and status of each row.
    """
    x = np.array(starts, dtype=complex)
    r = _slice_residual(x, op, g, tau)
    measure = np.empty(len(x))
    iterations = [max_iter] * len(x)
    status = ["max_iter"] * len(x)
    running = np.ones(len(x), dtype=bool)

    def finish(rows, how: str) -> None:
        running[rows] = False
        for row in rows:
            iterations[row], status[row] = iteration, how

    for iteration in range(max_iter + 1):
        live = np.flatnonzero(running)
        measure[live] = np.abs(r[live]).max(axis=1)
        finish(live[measure[live] <= tol], "converged")
        live = np.flatnonzero(running)
        if iteration == max_iter or not live.size:
            break  # the rows still running end at max_iter
        try:
            steps = _newton_step(x[live], r[live], op, g, tau)
        except np.linalg.LinAlgError:
            # one failing row fails a stacked step, so retry row by row; a
            # lone row has failed on its own already
            ok = np.zeros(live.size, dtype=bool)
            steps = np.empty((live.size, x.shape[1]), dtype=complex)
            for k, row in enumerate(live if live.size > 1 else ()):
                try:
                    steps[k] = _newton_step(x[row:row + 1], r[row:row + 1], op, g, tau)[0]
                    ok[k] = True
                except np.linalg.LinAlgError:
                    pass
            finish(live[~ok], "diverged")
            steps, live = steps[ok], live[ok]
        base = measure[live]
        searching = np.arange(live.size)  # positions in live still halving
        lo = 0
        while searching.size and lo <= MAX_HALVINGS:
            # the block of trials lambda = 2^-i, i = lo, ..., 2 lo
            lam = np.ldexp(1.0, -np.arange(lo, min(2 * lo, MAX_HALVINGS) + 1))
            rows = live[searching]
            candidate = x[rows] + lam[:, None, None] * steps[searching]
            r_candidate = _slice_residual(
                candidate.reshape(-1, x.shape[1]), op, g, tau
            ).reshape(candidate.shape)
            finite = np.isfinite(r_candidate).all(axis=2)
            better = finite & (np.abs(r_candidate).max(axis=2) < base[searching])
            # each row stops at its first trial that diverges or decreases
            stop = better | ~finite
            first = (stop.argmax(axis=0), np.arange(rows.size))
            stops, accept = stop[first], better[first]
            x[rows[accept]] = candidate[first][accept]
            r[rows[accept]] = r_candidate[first][accept]
            finish(rows[stops & ~accept], "diverged")
            searching = searching[~stops]
            lo = 2 * lo + 1
        finish(live[searching], "diverged")
    return x, r, iterations, status


def _report_at(
    flat: np.ndarray,
    op: ShiftedOperator,
    g: Potential,
    iterations: int,
    status: str,
    method: str,
    homotopy_steps: int = 0,
    path: tuple[tuple[float, float], ...] | None = None,
) -> SolveReport:
    field = _field(flat, op.params)
    direct = residual_direct(field, op.params, g)
    return SolveReport(
        solution=field,
        residual_direct=sup_norm(direct),
        residual_precond=sup_norm(op.solve(direct.ravel())),
        newton_iterations=iterations,
        homotopy_steps=homotopy_steps,
        path=path,
        status=status,
        method=method,
    )


# ---------------------------------------------------------------------------
# homotopy continuation


def homotopy_solve(
    op: ShiftedOperator,
    g: Potential,
    cert: ExistenceCertificate,
    tol: float = DEFAULT_TOL,
) -> SolveReport:
    """Track the slice family from the origin at tau = 0 to the full problem,
    on the symmetry quotient of the lattice.

    The forcing acts on each node alone and repeats with its period q in t,
    so the equation commutes with every space shift and with time shifts by
    q, and the zero branch from the origin stays in the fields that are
    constant in space and q-periodic in time.  On those fields A acts as the
    operator of the q x 2 lattice with the same shift.  So ``_track`` runs
    there, on 2q nodes with exact Newton steps, and its endpoint is tiled to
    the T x K lattice.  The linear part is a stencil and the cubic term and
    forcing act node by node, so the direct residual of the tiled field is
    the tiled quotient residual bit for bit: a quotient run that converges
    has converged on the full lattice.  The report's residuals are those of
    ``op``.  The run is deterministic.  Raises CertificateInvalid for a
    certificate that failed its boundary check.
    """
    check_period(op.params.T, g)
    _require_valid(cert)
    q = g.period
    quotient = _build_shifted(replace(op.params, T=q, K=2), op.shift)
    x, iterations, status, path = _track(quotient, g, cert, tol)
    field = np.tile(x.reshape(q, 2)[:, :1], (op.params.T // q, op.params.K))
    return _report_at(field.ravel(), op, g, iterations, status, "homotopy", len(path) - 1, path)


def _track(
    op: ShiftedOperator, g: Potential, cert: ExistenceCertificate, tol: float
) -> tuple[np.ndarray, int, str, tuple[tuple[float, float], ...]]:
    """The tracking loop of ``homotopy_solve`` on the lattice of ``op``.

    Secant predictor, damped Newton corrector to ``tol`` on the sup norm of
    d_tau, adaptive steps from 1: halve on corrector failure (divergence
    when the step falls below STEP_FLOOR), grow by 1.5x after two
    consecutive successes.  Tracking aborts with status "left_ball" when an
    accepted iterate has sup norm at least the certified radius, since the
    certificate only controls the zero set strictly inside the ball.  At
    tau = 1, d_tau is the lattice equation's residual, so the corrector's
    last zero needs no polish.  Returns the flat endpoint, the Newton
    iterations of the run, its status and its path of (tau, sup norm)
    pairs.
    """
    step = 1.0

    x = np.zeros(op.dim, dtype=complex)
    x_prev: np.ndarray | None = None
    tau, tau_prev = 0.0, 0.0
    path: list[tuple[float, float]] = [(0.0, 0.0)]
    total_iters = 0
    successes = 0
    attempts = 0

    while tau < 1.0:
        attempts += 1
        if attempts > 2000:
            status = "diverged"
            break
        tau_try = min(1.0, tau + step)
        if x_prev is None:
            predicted = x
        else:
            predicted = x + (x - x_prev) * ((tau_try - tau) / (tau - tau_prev))
        (corrected,), _, (iters,), (status,) = _damped_newton(
            predicted[None], op, g, tau_try, tol=tol, max_iter=CORRECTOR_ITER,
        )
        total_iters += iters
        if status == "converged":
            x_prev, tau_prev = x, tau
            x, tau = corrected, tau_try
            norm = sup_norm(x)
            path.append((tau, norm))
            if norm >= cert.radius:
                status = "left_ball"
                break
            successes += 1
            if successes >= 2:
                step = min(step * 1.5, 1.0)
                successes = 0
        else:
            successes = 0
            step *= 0.5
            if step < STEP_FLOOR:
                # step underflow is reported as divergence
                status = "diverged"
                break
    return x, total_iters, status, tuple(path)


# ---------------------------------------------------------------------------
# multi-start enumeration


def _ball_starts(
    op: ShiftedOperator, rng: np.random.Generator, radius: float, count: int
) -> np.ndarray:
    """(count, n) flat fields with entries independently uniform on the disk
    of the given radius.  Each field draws its n moduli, then its n phases."""
    draws = rng.uniform(0.0, 1.0, size=(count, 2, op.dim))
    moduli = radius * np.sqrt(draws[:, 0])
    # the same doubles as rng.uniform(0, 2 pi): 0 + 2 pi * u
    return moduli * np.exp(1j * (2.0 * np.pi * draws[:, 1]))


@dataclass(frozen=True)
class _Zero:
    """A converged Newton candidate: the point, the iterations it took, the
    sup norm of its direct residual there, its location uncertainty, and
    the ratio of the smallest to the largest singular value of M there."""

    flat: np.ndarray
    iterations: int
    residual: float
    uncertainty: float
    sigma_ratio: float


def _cluster_representatives(found: list[_Zero], base_tol: float, cap: float) -> list[_Zero]:
    """Greedy clustering of candidate solutions.

    Two candidates merge when their sup distance is below the base radius or
    below ten times either one's location uncertainty (capped), whichever is
    larger.  Each cluster keeps its smallest-residual member, ties going to
    the earlier candidate; cluster order is first-found order.
    """
    reps: list[_Zero] = []
    for cand in found:
        for slot, rep in enumerate(reps):
            unc = 10.0 * max(cand.uncertainty, rep.uncertainty)
            if sup_norm(cand.flat - rep.flat) <= max(base_tol, min(cap, unc)):
                if cand.residual < rep.residual:
                    reps[slot] = cand
                break
        else:
            reps.append(cand)
    return reps


def _stack_rows(dim: int) -> int:
    """Starts per Newton stack on n = ``dim`` nodes: as many as have their
    realified Jacobians within JACOBIAN_STACK_BYTES, at least one."""
    return max(1, JACOBIAN_STACK_BYTES // (8 * (2 * dim) ** 2))


def _collect_zeros(
    starts: np.ndarray,
    op: ShiftedOperator,
    g: Potential,
    *,
    tol: float,
    max_iter: int,
    radius: float,
) -> list[_Zero]:
    """Zeros of the full map (the tau = 1 slice) found by damped Newton from
    each row of the (m, n) ``starts``.

    A converged run is kept when it ends strictly inside the ball of
    ``radius``, and its record keeps what Newton measured there: the sup
    norm of the final direct residual, at most ``tol``, is the record's
    ``residual``, and the location uncertainty is that sup norm over the
    smallest singular value of M, which bounds the Newton correction,
    infinite at a singular M; near-degenerate zeros get large values, which
    the clustering uses to merge their halo of pseudo-solutions.  Returns the
    cluster representatives in first-found order, merged within DEDUP_TOL
    and an uncertainty radius capped at 0.01 * max(1, ``radius``).

    The starts run through one ``_damped_newton`` in stacks of
    ``_stack_rows`` rows, so that a stack of Jacobians stays within
    JACOBIAN_STACK_BYTES, and the kept points of a stack take one stacked
    SVD of the same matrices M that Newton's steps solve.  Each
    record has the bits of a run from its start alone.
    """
    found: list[_Zero] = []
    size = _stack_rows(op.dim)
    for lo in range(0, len(starts), size):
        x, r, iterations, status = _damped_newton(starts[lo:lo + size], op, g, 1.0, tol, max_iter)
        kept = [i for i, how in enumerate(status) if how == "converged" and sup_norm(x[i]) < radius]
        if not kept:
            continue
        svals = np.linalg.svd(_slice_jacobian(x[kept], op, g, 1.0), compute_uv=False)
        for row, sv in zip(kept, svals):
            # sv[0] > 0: M = A_r - B = 0 would need A_r = B, but B is block
            # diagonal and A_r couples neighbours (epsilon > 0)
            smallest, residual = float(sv[-1]), sup_norm(r[row])
            uncertainty = residual / smallest if smallest > 0.0 else np.inf
            found.append(_Zero(x[row], iterations[row], residual, uncertainty,
                               smallest / float(sv[0])))
    return _cluster_representatives(found, DEDUP_TOL, 0.01 * max(1.0, radius))


def multi_start(
    op: ShiftedOperator,
    g: Potential,
    cert: ExistenceCertificate,
    n_starts: int = 32,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = 100,
) -> list[SolveReport]:
    """Converged Newton zeros strictly inside the certified ball.

    Runs Newton on the full system from the homotopy endpoint (when that run
    converges) and from ``n_starts`` fields sampled uniformly in the ball,
    keeps the converged results strictly inside the ball (Newton is free to
    wander out to zeros the certificate says nothing about), then merges
    those within a sup distance of one another (``_cluster_representatives``).
    The merge is not modulo phase rotation or lattice shifts, so one orbit
    of solutions can come back as many reports, and nothing claims that
    every zero in the ball is found.  Deterministic for a fixed seed.
    Raises CertificateInvalid (from ``homotopy_solve``) for a certificate
    that failed its boundary check.
    """
    endpoint = homotopy_solve(op, g, cert, tol=tol)
    return _multi_start_from(endpoint, op, g, cert, n_starts, seed, tol, max_iter)


def _multi_start_from(
    endpoint: SolveReport,
    op: ShiftedOperator,
    g: Potential,
    cert: ExistenceCertificate,
    n_starts: int,
    seed: int,
    tol: float,
    max_iter: int,
) -> list[SolveReport]:
    """``multi_start`` after its homotopy run, whose report is ``endpoint``."""
    starts = _ball_starts(op, np.random.default_rng(seed), cert.radius, n_starts)
    if endpoint.status == "converged":
        starts = np.vstack([endpoint.solution.ravel(), starts])

    zeros = _collect_zeros(starts, op, g, tol=tol, max_iter=max_iter, radius=cert.radius)
    return [_report_at(z.flat, op, g, z.iterations, "converged", "multi_start") for z in zeros]


# ---------------------------------------------------------------------------
# steady states


def steady_state_solve(
    op: ShiftedOperator,
    g: Potential,
    cert: ExistenceCertificate,
    n_starts: int = 16,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = 100,
) -> SolveReport:
    """Solve the time-independent lattice equation: the T = 1 problem, where
    the time-difference part of the operator vanishes identically, so the
    solution's one row is the spatial profile.

    Tries homotopy continuation first and falls back to multi-start Newton
    when the tracked branch fails to reach tau = 1 (a real possibility for
    forcings with nonzero mean, whose constant-mode branch folds), keeping
    the candidate with the smallest direct residual.  Raises ValueError for
    an operator with T != 1, SolveFailed when no route converges,
    PeriodMismatch for a forcing whose period is not 1, and
    CertificateInvalid (from ``homotopy_solve``) when the certificate fails
    its boundary check.
    """
    if op.params.T != 1:
        raise ValueError(f"steady states need an operator with T = 1, got T = {op.params.T}")
    report = homotopy_solve(op, g, cert, tol=tol)
    if report.status != "converged":
        # multi_start would first rerun the same deterministic homotopy
        candidates = _multi_start_from(report, op, g, cert, n_starts, seed, tol, max_iter)
        if not candidates:
            raise SolveFailed(
                f"neither homotopy (status {report.status!r}) nor {n_starts} Newton starts "
                "produced a converged steady state"
            )
        report = min(candidates, key=lambda r: r.residual_direct)
    return report
