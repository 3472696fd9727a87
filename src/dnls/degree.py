"""Brouwer degree estimates for the fixed-point maps on the certified ball.

The degree of a map on a ball (with no zeros on the boundary) equals the sum
of Jacobian determinant signs over its zeros inside, provided every zero is
regular.  This module estimates that sum by multi-start enumeration: Newton
from the origin and from random starts in the ball, deduplication of the
converged points, then sign evaluation at each representative.

Two wrinkles make the naive sum wrong and are handled explicitly:

* Phase equivariance.  Both maps commute with a global phase rotation, so
  any zero with a nonzero phase orbit sits on a whole circle of zeros; the
  Jacobian there is singular along the orbit direction and such circles
  contribute nothing countable.  They are reported in ``degenerate`` and
  excluded from the sum.

* A degenerate origin.  When the forcing has zero derivative at 0 the full
  map's Jacobian at the origin is singular (constants span its kernel), yet
  the origin is still an isolated zero with a well-defined local index.  That
  index is recovered by perturbation: solve map = w for a tiny generic w,
  enumerate the preimages in a small ball around the origin, and sum their
  regular signs.

The estimate is heuristic (random starts cannot certify completeness), which
``DegreeReport.completeness`` states outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import ExistenceCertificate, _require_valid, sphere_samples
from .lattice import check_period, sup_norm
from .operators import ShiftedOperator
from .potentials import Potential
from .solver import (
    DEDUP_TOL,
    _Zero,
    _ball_starts,
    _collect_zeros,
    _field,
    _slice_jacobian,
    _slice_residual,
    complexify,
)

__all__ = [
    "ZeroRecord",
    "DegenerateRecord",
    "DegreeReport",
    "estimate_degree",
]

#: a zero counts as degenerate when sigma_min / sigma_max drops to this level
SIGMA_RATIO_DEGENERATE = 1e-8
#: Newton tolerance on the fixed-point residual during enumeration, which
#: bounds every record's residual
ENUM_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class ZeroRecord:
    """A regular zero: location (a read-only (T, K) array), residual,
    Jacobian sign, singular value ratio."""

    field: np.ndarray
    residual: float
    sign: int
    sigma_ratio: float


@dataclass(frozen=True, eq=False)
class DegenerateRecord:
    """A zero whose Jacobian is numerically singular, located at the
    read-only (T, K) array ``field``.

    ``local_index`` is the perturbation-recovered Brouwer index when one was
    computed (only attempted at the origin), None when the zero was excluded
    from the degree sum.
    """

    field: np.ndarray
    residual: float
    sigma_ratio: float
    local_index: int | None


@dataclass(frozen=True)
class DegreeReport:
    """Degree estimate over the certified ball.

    ``target`` is "odd" (the map without forcing) or "full".  ``parity_ok``
    checks the odd-map constraint (degree of an odd map on a symmetric ball
    is odd); it is None for the full map, where no parity is forced.
    ``completeness`` is always "heuristic".
    """

    target: str
    radius: float
    zeros: tuple[ZeroRecord, ...]
    degenerate: tuple[DegenerateRecord, ...]
    degree_estimate: int
    parity_ok: bool | None
    completeness: str
    origin_perturbed: bool


def _signs(zeros: list[_Zero], op: ShiftedOperator, g: Potential, tau: float) -> list[int]:
    """Determinant sign of the tau-slice Jacobian at each of the regular
    ``zeros``, as +1 or -1.

    The Jacobians are stacked and their signs read from one ``slogdet``;
    each stacked matrix has the bits of a one-zero ``_slice_jacobian`` and
    takes its own LU.  A sigma ratio above SIGMA_RATIO_DEGENERATE keeps
    every determinant away from zero.
    """
    if not zeros:
        return []
    flats = np.stack([z.flat for z in zeros])
    return [int(sign) for sign in np.linalg.slogdet(_slice_jacobian(flats, op, g, tau))[0]]


def _origin_local_index(
    op: ShiftedOperator,
    g: Potential,
    tau: float,
    radius: float,
    seed: int,
) -> int | None:
    """Local Brouwer index at an isolated degenerate zero at the origin.

    Solves map = w for a small random target w, well below the map's minimum
    on a probe sphere (so the preimage count inside the probe ball is exactly
    the local index count), then sums regular signs over the deduplicated
    preimages.  The sphere minimum is attained along the Jacobian's null
    directions, where the map is only cubically small, so those directions
    are probed densely on top of random samples, and Newton runs start along
    them as well.  Returns None when the probe is inconclusive (zero sphere
    minimum, no preimages found, or a degenerate preimage).
    """
    params = op.params
    rng = np.random.default_rng(seed + 0x5EED)
    rho = 0.02 * min(1.0, radius)

    origin = np.zeros(op.dim, dtype=complex)
    svals_0, rows_0 = np.linalg.svd(_slice_jacobian(origin, op, g, tau))[1:]
    # the rows are unit vectors, so their sup norms are positive
    null_dirs = [
        complexify(row) / sup_norm(complexify(row))
        for sval, row in zip(svals_0, rows_0)
        if sval <= 1e-6 * svals_0[0]
    ]
    phases = np.exp(2j * np.pi * np.arange(16) / 16)

    probes = [sphere_samples(params.T, params.K, rho, 256, rng).reshape(256, op.dim)]
    probes += [[rho * phase * vec for phase in phases] for vec in null_dirs]
    # Python's min over the sup norms, as before: np.min would return any NaN
    sphere_min = min(np.abs(_slice_residual(np.vstack(probes), op, g, tau)).max(axis=1).tolist())
    if sphere_min <= 0.0:
        return None

    direction = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    direction /= sup_norm(direction)
    w = (sphere_min / 30.0) * direction
    tol = max(1e-14, sup_norm(w) * 1e-3)

    starts = [
        [frac * rho * phase * vec for frac in (0.3, 0.6, 0.9) for phase in phases[::2]]
        for vec in null_dirs
    ]
    starts.append(_ball_starts(op, rng, rho, 96))

    preimages = _collect_zeros(
        np.vstack(starts), op, g, tau, tol=tol, max_iter=60, radius=rho, converge_on="slice",
        shift_vec=w, base_tol=1e-9, cap=rho / 4.0,
    )
    if not preimages or any(z.sigma_ratio <= SIGMA_RATIO_DEGENERATE for z in preimages):
        return None
    return sum(_signs(preimages, op, g, tau))


def estimate_degree(
    target: str,
    op: ShiftedOperator,
    g: Potential,
    cert: ExistenceCertificate,
    n_starts: int = 32,
    seed: int = 0,
) -> DegreeReport:
    """Estimate the Brouwer degree of a fixed-point map on the certified ball.

    ``target`` chooses the map: "odd" drops the forcing (the comparison map of
    the existence argument, odd by construction), "full" keeps it.  Candidate
    zeros come from Newton started at the origin and at ``n_starts`` random
    fields in the ball; candidates that converge to ENUM_TOL strictly inside
    the ball are kept, then deduplicated.  Regular zeros contribute their
    Jacobian sign; a degenerate origin contributes its perturbation-recovered
    local index; other degenerate zeros (phase circles) are reported but not
    counted.
    """
    check_period(op.params.T, g)
    if target not in ("odd", "full"):
        raise ValueError(f"target must be 'odd' or 'full', got {target!r}")
    _require_valid(cert)
    tau = 0.0 if target == "odd" else 1.0
    params = op.params
    starts = np.vstack([
        np.zeros(op.dim, dtype=complex),
        _ball_starts(op, np.random.default_rng(seed), cert.radius, n_starts),
    ])
    found = _collect_zeros(
        starts, op, g, tau, tol=ENUM_TOL, max_iter=100, radius=cert.radius, converge_on="slice",
        base_tol=DEDUP_TOL, cap=0.01 * max(1.0, cert.radius),
    )

    regular = [z for z in found if z.sigma_ratio > SIGMA_RATIO_DEGENERATE]
    zeros = [
        ZeroRecord(_field(z.flat, params), z.residual, sign, z.sigma_ratio)
        for z, sign in zip(regular, _signs(regular, op, g, tau))
    ]
    # a degenerate zero at the origin gets its perturbation-recovered index
    origin_tol = 1e-6 * max(1.0, cert.radius)
    degenerate = [
        DegenerateRecord(
            _field(z.flat, params), z.residual, z.sigma_ratio,
            _origin_local_index(op, g, tau, cert.radius, seed)
            if sup_norm(z.flat) <= origin_tol else None,
        )
        for z in found if z.sigma_ratio <= SIGMA_RATIO_DEGENERATE
    ]
    indices = [d.local_index for d in degenerate if d.local_index is not None]
    degree = sum(z.sign for z in zeros) + sum(indices)
    return DegreeReport(
        target=target,
        radius=cert.radius,
        zeros=tuple(zeros),
        degenerate=tuple(degenerate),
        degree_estimate=degree,
        parity_ok=degree % 2 == 1 if target == "odd" else None,
        completeness="heuristic",
        origin_perturbed=bool(indices),
    )
