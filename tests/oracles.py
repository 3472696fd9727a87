"""Dense reference versions of what the package computes without dense
matrices, for the tests only: nothing under ``src/`` imports this module.

The package applies the shifted operator A = L - sI through its stencil
kernel and FFT, so the n x n matrices of L, A and A^-1, the sup-induced
matrix norm and the realified 2n x 2n form of a complex matrix live here,
where the tests check the package's kernels, norms and Jacobians against
them.  The exact plane-wave solutions of ``plane_waves`` are ground truth
for the residual at any lattice size.

Newton comes in the package's direct form and in the fixed-point form of
the degree argument.  ``reference_newton`` is damped Newton on the direct
residual d_tau from one start, one trial step at a time, with the dense M =
A_r - blockdiag(B).  ``slice_newton`` is the same loop on the fixed-point
slice r_tau = A^-1 d_tau with its dense J = I - A_r^-1 blockdiag(B).  With
it ``odd_map_zeros`` enumerates the odd map's zeros and
``perturbed_origin_index`` counts the origin's local Brouwer index by
perturbation, the two checks of the S^1 theorem from which the package
takes the odd map's degree and the full map's origin index.
"""

import numpy as np

from dnls import LatticeParams, Potential, ShiftedOperator, complexify, realify, sup_norm
from dnls import solver
from dnls.certificate import sphere_samples
from dnls.degree import ENUM_TOL, SIGMA_RATIO_DEGENERATE
from dnls.lattice import _linear
from dnls.operators import _stencil


def _circulant(kernel: np.ndarray) -> np.ndarray:
    """Dense matrix of the circulant with a (T, K) kernel, on row-major
    flattened fields: entry (t*K + k, t'*K + k') is kernel[t' - t, k' - k]."""
    T, K = kernel.shape
    t, k = np.divmod(np.arange(T * K), K)
    return kernel[(t - t[:, None]) % T, (k - k[:, None]) % K]


def linear_matrix(params: LatticeParams) -> np.ndarray:
    """Dense matrix of the linear operator on row-major flattened fields."""
    return _circulant(_stencil(params))


def shifted(op: ShiftedOperator) -> np.ndarray:
    """Dense A = L - sI of a shifted operator."""
    kernel = _stencil(op.params)
    kernel[0, 0] -= op.shift
    return _circulant(kernel)


def operator_norm_sup(matrix: np.ndarray) -> float:
    """Operator norm induced by the entrywise sup norm: max row sum of moduli.

    For the sup norm on complex vectors the induced norm of a matrix is the
    maximum over rows of the sum of entry moduli (the max-row-sum formula,
    attained by aligning the input phases against one row).
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return float(np.abs(mat).sum(axis=1).max())


def realified_matrix(mat: np.ndarray) -> np.ndarray:
    """Complex n x n matrix -> real 2n x 2n matrix in the interleaved layout
    (Re z_0, Im z_0, Re z_1, ...) of ``dnls.realify``."""
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = mat.real
    out[0::2, 1::2] = -mat.imag
    out[1::2, 0::2] = mat.imag
    out[1::2, 1::2] = mat.real
    return out


def random_field(T: int, K: int, rng: np.random.Generator, radius: float = 1.0) -> np.ndarray:
    """(T, K) field with independent entries of modulus uniform in [0, radius]
    and uniform phase."""
    moduli = rng.uniform(0.0, radius, size=(T, K))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(T, K))
    return moduli * np.exp(1j * phases)


def tile_steady(u: np.ndarray, T: int) -> np.ndarray:
    """Lift a K-entry spatial profile to a time-constant (T, K) field."""
    return np.tile(np.asarray(u, dtype=complex), (T, 1))


def circle_moduli(g: Potential, radii, phases: int = 64) -> np.ndarray:
    """|g(t, rho e^{i theta})| over the times of one period, the radii and
    ``phases`` equally spaced phases from 0: shape (period, radii, phases)."""
    circle = np.exp(2j * np.pi * np.arange(phases) / phases)
    grid = np.asarray(radii)[:, None] * circle[None, :]
    return np.abs(np.asarray(g.evaluate(np.arange(g.period)[:, None, None], grid)))


def _real_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a x^2 + b x + c = 0 (a != 0), in the form that does not
    cancel: q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2, roots q/a and c/q."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def plane_waves(
    params: LatticeParams, g: Potential, radius: float
) -> list[tuple[int, int, float]]:
    """Every plane wave rho e^{i(omega t + theta k)} with 0 < rho < radius
    that solves the lattice equation exactly, as (j, m, rho) with
    omega = 2 pi j / T and theta = 2 pi m / K.

    For a forcing g(t, z) = f h(|z|) z with one real coefficient f the
    stencil multiplies the wave by -c, c = 2 beta sin(omega) +
    2 epsilon (1 - cos(theta)), so the wave solves the equation when
    gamma rho^2 - f h(rho) = c.  That is a quadratic in closed form for
    ``power_law`` with r = 2 (gamma rho^2 - f rho = c) and for ``bounded``
    ((gamma rho^2 - c)(1 + rho^2) = f, a quadratic in rho^2); other
    forcings raise ValueError.
    """
    if len(g.coefficients) != 1 or g.coefficients[0].imag != 0.0:
        raise ValueError(f"plane waves need one real coefficient, got {g.coefficients}")
    f, gamma = g.coefficients[0].real, params.gamma
    # sup_formula is max|f| rho^r, so r = 2 exactly when doubling rho quadruples it
    if g.kind == "power_law" and g.sup_formula(2.0) == 4.0 * g.sup_formula(1.0):
        def moduli(c):
            return _real_roots(gamma, -f, -c)
    elif g.kind == "bounded":
        def moduli(c):
            squares = _real_roots(gamma, gamma - c, -(c + f))
            return [np.sqrt(u) for u in squares if u > 0.0]
    else:
        raise ValueError(f"no closed form for plane waves of a {g.kind!r} forcing")
    waves = []
    for j in range(params.T):
        for m in range(params.K):
            omega, theta = 2.0 * np.pi * j / params.T, 2.0 * np.pi * m / params.K
            c = 2.0 * params.beta * np.sin(omega) + 2.0 * params.epsilon * (1.0 - np.cos(theta))
            waves += [(j, m, float(rho)) for rho in moduli(c) if 0.0 < rho < radius]
    return waves


def plane_wave(params: LatticeParams, j: int, m: int, rho: float) -> np.ndarray:
    """The (T, K) field rho e^{i(2 pi j t / T + 2 pi m k / K)}."""
    t, k = np.arange(params.T)[:, None], np.arange(params.K)[None, :]
    return rho * np.exp(2j * np.pi * (j * t / params.T + m * k / params.K))


def _nodewise(flat, op, g, tau):
    """F(phi) + tau (G(phi) - s phi) of one flat vector, F the cubic term."""
    res = -op.params.gamma * (np.abs(flat) ** 2) * flat
    if tau != 0.0:
        forcing = g.on_lattice(flat.reshape(op.params.T, op.params.K)).reshape(flat.shape)
        res = res + tau * (forcing - op.shift * flat)
    return res


def _block_diagonal(flat, op, g, tau):
    """blockdiag(B), the realified Jacobian of ``_nodewise``, dense."""
    blocks = solver._slice_blocks(flat, op, g, tau)
    n = flat.size
    out = np.zeros((n, 2, n, 2))
    out[np.arange(n), :, np.arange(n), :] = blocks
    return out.reshape(2 * n, 2 * n)


def reference_residual(flat, op, g, tau):
    """d_tau = L phi + gamma |phi|^2 phi - tau G(phi) - (1 - tau) s phi of
    one flat vector, evaluated on it alone by the stencil, term by term in
    the package's order."""
    field = flat.reshape(op.params.T, op.params.K)
    cubic = -op.params.gamma * (field.real * field.real + field.imag * field.imag) * field
    res = _linear(field, op.params) - cubic
    if tau != 0.0:
        forcing = g.on_lattice(field)
        res = res - (forcing if tau == 1.0 else tau * forcing)
    if tau != 1.0:
        res = res - (1.0 - tau) * op.shift * field
    return res.reshape(flat.shape)


def reference_jacobian(flat, op, g, tau):
    """M = A_r - blockdiag(B), A_r the realified dense A of ``shifted``."""
    return realified_matrix(shifted(op)) - _block_diagonal(flat, op, g, tau)


def slice_residual(flat, op, g, tau, shift=None):
    """The fixed-point residual r_tau = phi - A^-1 (F(phi) + tau (G(phi) -
    s phi)) of one flat vector, with the dense A^-1 of ``shifted``; minus
    ``shift`` when one is given (the map r_tau - w)."""
    res = flat - np.linalg.inv(shifted(op)) @ _nodewise(flat, op, g, tau)
    return res if shift is None else res - shift


def slice_jacobian(flat, op, g, tau):
    """J = I - A_r^-1 blockdiag(B), A_r^-1 the realified dense A^-1."""
    inverse = realified_matrix(np.linalg.inv(shifted(op)))
    return np.eye(2 * flat.size) - inverse @ _block_diagonal(flat, op, g, tau)


@np.errstate(over="ignore", invalid="ignore")
def _newton(residual, jacobian, flat0, tol, max_iter, why, stops):
    """One-start damped Newton on ``residual`` with exact dense steps of
    ``jacobian``, halving the step up to MAX_HALVINGS times, one trial at a
    time, until the residual's sup norm strictly decreases; converged once
    that sup norm is at most ``tol``.  Returns the point, the iteration
    count and the status, and appends to ``why`` and ``stops`` as
    ``reference_newton`` says."""
    why = [] if why is None else why
    stops = [] if stops is None else stops
    x = np.array(flat0, dtype=complex)
    r = residual(x)
    for iteration in range(max_iter + 1):
        base = float(np.abs(r).max())
        if base <= tol:
            return x, iteration, "converged"
        if iteration == max_iter:
            return x, iteration, "max_iter"
        try:
            step = complexify(np.linalg.solve(jacobian(x), -realify(r)))
        except np.linalg.LinAlgError:
            why.append("singular")
            return x, iteration, "diverged"
        lam = 1.0
        for index in range(solver.MAX_HALVINGS + 1):
            candidate = x + lam * step
            r_candidate = residual(candidate)
            if not np.isfinite(r_candidate).all():
                why.append("non-finite")
                stops.append((index, "non-finite"))
                return x, iteration, "diverged"
            if float(np.abs(r_candidate).max()) < base:
                x, r = candidate, r_candidate
                stops.append((index, "decrease"))
                break
            lam *= 0.5
        else:
            why.append("stalled")
            stops.append((index, "stalled"))
            return x, iteration, "diverged"
    raise AssertionError("unreachable")


def reference_newton(flat0, op, g, tau, tol, max_iter, why=None, stops=None):
    """One-start damped Newton on d_tau with exact dense steps of M; returns
    the point, the iteration count and the status.  Appends to ``why`` what
    ended a diverged run, and to ``stops`` the trial index (lambda =
    2^-index) at which each line search stopped and how: "decrease",
    "non-finite", or "stalled" after the last trial."""
    return _newton(lambda x: reference_residual(x, op, g, tau),
                   lambda x: reference_jacobian(x, op, g, tau), flat0, tol, max_iter, why, stops)


def slice_newton(flat0, op, g, tau, tol, max_iter, shift=None):
    """``reference_newton`` on the fixed-point slice r_tau - ``shift``, with
    dense steps of J."""
    return _newton(lambda x: slice_residual(x, op, g, tau, shift),
                   lambda x: slice_jacobian(x, op, g, tau), flat0, tol, max_iter, None, None)


def _zero(x, iterations, residual, jacobian):
    """``solver._Zero`` record of a converged point x from the Jacobian J
    there: the location uncertainty is the residual over J's smallest
    singular value, and the sign is that of det J."""
    svals = np.linalg.svd(jacobian, compute_uv=False)
    uncertainty = residual / svals[-1] if svals[-1] > 0.0 else np.inf
    return solver._Zero(x, iterations, residual, uncertainty, svals[-1] / svals[0],
                        int(np.linalg.slogdet(jacobian)[0]))


def odd_map_zeros(op, radius, n_starts, seed):
    """Zeros of the odd map r_0 strictly inside the ball of ``radius``, as
    ``solver._Zero`` records in first-found order.

    Newton (``slice_newton``, to ENUM_TOL) runs from the origin and
    from the ``n_starts`` draws of ``solver._ball_starts`` that the full
    map's enumeration makes at ``seed``, one start at a time.  Each
    converged point's residual is the sup norm of r_0 there (``_zero``
    gives the rest of its record); the points are clustered as the package
    clusters zeros.
    This is the enumeration that the theorem spares ``estimate_degree``.
    """
    starts = np.vstack([
        np.zeros(op.dim, dtype=complex),
        solver._ball_starts(op, np.random.default_rng(seed), radius, n_starts),
    ])
    found = []
    for start in starts:
        x, iterations, status = slice_newton(start, op, None, 0.0, ENUM_TOL, 100)
        if status != "converged" or sup_norm(x) >= radius:
            continue
        residual = sup_norm(slice_residual(x, op, None, 0.0))
        found.append(_zero(x, iterations, residual, slice_jacobian(x, op, None, 0.0)))
    return solver._cluster_representatives(found, solver.DEDUP_TOL, 0.01 * max(1.0, radius))


def perturbed_origin_index(op, g, tau, radius, seed):
    """The local Brouwer index of the tau-slice at a zero at the origin, by
    perturbation, or None when the count is inconclusive.

    Solves r_tau = w for a small random target w, well below the map's
    minimum on a probe sphere of radius rho (so the preimages inside the
    probe ball count the index), then sums the determinant signs of the
    deduplicated preimages.  The sphere minimum is attained along the
    Jacobian's null directions, where the map is only cubically small, so
    those directions are probed densely on top of ``sphere_samples``, and
    Newton (``slice_newton``) starts along them as well as at 96 points
    of the probe ball.  The preimages are clustered as the package clusters
    zeros.  None means a zero sphere minimum, no preimage, or a degenerate
    one.  The count is a heuristic: random starts can miss preimages.
    """
    rng = np.random.default_rng(seed + 0x5EED)
    rho = 0.02 * min(1.0, radius)
    svals_0, rows_0 = np.linalg.svd(slice_jacobian(np.zeros(op.dim, complex), op, g, tau))[1:]
    null_dirs = [complexify(row) / sup_norm(complexify(row))
                 for sval, row in zip(svals_0, rows_0) if sval <= 1e-6 * svals_0[0]]
    phases = np.exp(2j * np.pi * np.arange(16) / 16)
    probes = [sphere_samples(op.params.T, op.params.K, rho, 256, rng).reshape(256, op.dim)]
    probes += [[rho * phase * vec for phase in phases] for vec in null_dirs]
    sphere_min = min(float(np.abs(slice_residual(probe, op, g, tau)).max())
                     for probe in np.vstack(probes))
    if sphere_min <= 0.0:
        return None

    direction = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    w = (sphere_min / 30.0) * direction / sup_norm(direction)
    tol = max(1e-14, sup_norm(w) * 1e-3)
    starts = [[frac * rho * phase * vec for frac in (0.3, 0.6, 0.9) for phase in phases[::2]]
              for vec in null_dirs]
    starts.append(solver._ball_starts(op, rng, rho, 96))
    found = []
    for start in np.vstack(starts):
        x, iterations, status = slice_newton(start, op, g, tau, tol, 60, shift=w)
        if status != "converged" or sup_norm(x) >= rho:
            continue
        residual = sup_norm(slice_residual(x, op, g, tau, w))
        found.append(_zero(x, iterations, residual, slice_jacobian(x, op, g, tau)))
    preimages = solver._cluster_representatives(found, 1e-9, rho / 4.0)
    if not preimages or any(z.sigma_ratio <= SIGMA_RATIO_DEGENERATE for z in preimages):
        return None
    return sum(z.sign for z in preimages)
