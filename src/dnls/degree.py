"""Brouwer degree estimates for the fixed-point maps on the certified ball.

The degree of a map on a ball (with no zeros on the boundary) equals the sum
of Jacobian determinant signs over its zeros inside, provided every zero is
regular.  The odd map's degree comes from the theorem below; the full map's
sum is estimated by multi-start enumeration (``solver._collect_zeros``):
Newton from the origin and from random starts in the ball, then
deduplication of the converged points, each signed from the Jacobian stack
that also gives its sigma ratio.

Newton works in direct form (``solver``): on d_1 = A r_1, the lattice
equation's residual, with Jacobian M = A_r J.  A record's ``residual`` is
the sup norm of d_1 and its ``sigma_ratio`` that of M.  The sign is J's,
since sign det M = sign det A_r * sign det J and det A_r = |det A|^2 > 0.
Each singular value of J = A_r^-1 M is M's divided by a factor between
A's smallest and largest singular values (the extreme moduli of its
symbol), whose ratio kappa(A) is at most (f + 1) / (f - 1), f the shift
factor (5 at the default 1.5); so a sigma ratio moves by at most kappa(A)
either way and SIGMA_RATIO_DEGENERATE keeps its meaning.

Degenerate zeros, whose Jacobian is numerically singular, have no sign.
Where they come from, and what they count for, rests on one theorem.

* Phase equivariance.  When the forcing is phase-equivariant,
  g(t, e^{ia} z) = e^{ia} g(t, z) (``Potential.phase_equivariant``), every
  tau-slice commutes with the global rotation phi -> e^{ia} phi (the odd
  map does for every forcing).  The rotation moves every nonzero
  field, so S^1 acts freely away from the origin: a zero there sits on a
  whole circle of zeros, its Jacobian is singular along the circle, and the
  zeros off the origin add up to degree 0 (Ize and Vignoli, *Equivariant
  Degree Theory*, 2003).  Such circles are reported in ``degenerate`` and
  excluded from the sum.

* The origin's index.  The odd map vanishes at the origin with the
  identity as Jacobian, so with its circles adding up to 0 its degree on
  the ball is +1; ``estimate_degree`` reports that without enumerating.
  When no slice has a zero on the sphere (given the certificate's sampled
  boundary check) the degree does not change with tau, so the full map's
  degree is 1 as well.  When the forcing has zero derivative at 0 the full
  map's Jacobian at the origin is singular (constants span its kernel).
  For a phase-equivariant forcing whose origin is an isolated zero the
  origin then carries the whole degree: its local index is 1.  Isolation
  is probed on a small sphere, densest along the null directions.

For a phase-equivariant forcing the full map's enumeration is therefore an
audit whose outcome the theorem fixes.  It is heuristic (random starts
cannot certify completeness), which ``DegreeReport.completeness`` states
outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import ExistenceCertificate, _require_valid, sphere_samples
from .lattice import check_period, sup_norm
from .operators import ShiftedOperator
from .potentials import Potential
from .solver import (
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
#: Newton tolerance on the sup norm of the direct residual d_1 during
#: enumeration, which bounds every record's residual
ENUM_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class ZeroRecord:
    """A regular zero: location (a read-only (T, K) array), the sup norm of
    its direct residual, Jacobian sign, and the singular value ratio of M
    (module docstring)."""

    field: np.ndarray
    residual: float
    sign: int
    sigma_ratio: float


@dataclass(frozen=True, eq=False)
class DegenerateRecord:
    """A zero whose Jacobian is numerically singular, located at the
    read-only (T, K) array ``field``.

    ``local_index`` is 1 at a degenerate origin under the theorem's
    hypotheses (module docstring: a phase-equivariant forcing, the sampled
    boundary check, an origin isolated on its probe sphere) and None at
    every other degenerate zero, which the degree sum excludes.
    """

    field: np.ndarray
    residual: float
    sigma_ratio: float
    local_index: int | None


@dataclass(frozen=True)
class DegreeReport:
    """Degree estimate over the certified ball.

    ``target`` is "odd" (the map without forcing) or "full".  The odd map's
    report is the theorem's (module docstring): the origin as its one
    regular zero, sign +1, no degenerate records, degree 1, ``parity_ok``
    True and ``completeness`` "theorem".  The full map's report comes from
    enumeration, ``completeness`` "heuristic" and ``parity_ok`` None (no
    parity is forced); given the sampled boundary check its degree is 1
    when the forcing is phase-equivariant, so an estimate other than 1
    there means missed or degenerate zeros.
    """

    target: str
    radius: float
    zeros: tuple[ZeroRecord, ...]
    degenerate: tuple[DegenerateRecord, ...]
    degree_estimate: int
    parity_ok: bool | None
    completeness: str


def _origin_local_index(
    op: ShiftedOperator,
    g: Potential,
    radius: float,
    seed: int,
) -> int | None:
    """Local Brouwer index of the full map at a degenerate zero at the
    origin: 1 by the theorem of the module docstring, when the forcing is
    phase-equivariant and the origin is an isolated zero.

    Isolation is probed on a small sphere around the origin, on d_1, which
    vanishes where the full map does.  The map is only cubically small
    along the Jacobian's null directions, those of M, so those directions
    are probed densely on top of random samples.  Returns None for a
    forcing that is not phase-equivariant, or when the map vanishes at a
    probe (the origin is not isolated there).
    """
    if not g.phase_equivariant:
        return None
    rng = np.random.default_rng(seed + 0x5EED)
    rho = 0.02 * min(1.0, radius)

    origin = np.zeros(op.dim, dtype=complex)
    svals_0, rows_0 = np.linalg.svd(_slice_jacobian(origin, op, g, 1.0))[1:]
    # the rows are unit vectors, so their sup norms are positive
    null_dirs = [
        complexify(row) / sup_norm(complexify(row))
        for sval, row in zip(svals_0, rows_0)
        if sval <= 1e-6 * svals_0[0]
    ]
    phases = np.exp(2j * np.pi * np.arange(16) / 16)

    probes = [sphere_samples(op.params.T, op.params.K, rho, 256, rng).reshape(256, op.dim)]
    probes += [[rho * phase * vec for phase in phases] for vec in null_dirs]
    # Python's min over the sup norms, as before: np.min would return any NaN
    sphere_min = min(np.abs(_slice_residual(np.vstack(probes), op, g, 1.0)).max(axis=1).tolist())
    return None if sphere_min <= 0.0 else 1


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
    the existence argument, odd by construction), "full" keeps it.  The odd
    map's report is the theorem's and runs no Newton.  For the full map
    candidate zeros come from Newton started at the origin and at
    ``n_starts`` random fields in the ball; candidates whose direct residual
    converges to ENUM_TOL strictly inside the ball are kept, then
    deduplicated.  Regular zeros contribute their Jacobian sign; a
    degenerate origin contributes the local index the theorem gives it
    (``_origin_local_index``); other degenerate zeros (phase circles) are
    reported but not counted.
    """
    check_period(op.params.T, g)
    if target not in ("odd", "full"):
        raise ValueError(f"target must be 'odd' or 'full', got {target!r}")
    _require_valid(cert)
    params = op.params
    origin = np.zeros(op.dim, dtype=complex)
    if target == "odd":
        # r_0(0) = 0 and J_0(0) = I exactly, and the other zeros lie on circles
        zero = ZeroRecord(_field(origin, params), 0.0, 1, 1.0)
        return DegreeReport("odd", cert.radius, (zero,), (), 1, True, "theorem")
    rng = np.random.default_rng(seed)
    starts = np.vstack([origin, _ball_starts(op, rng, cert.radius, n_starts)])
    found = _collect_zeros(starts, op, g, tol=ENUM_TOL, radius=cert.radius)

    # a sigma ratio above SIGMA_RATIO_DEGENERATE keeps det M away from zero
    zeros = [
        ZeroRecord(_field(z.flat, params), z.residual, z.sign, z.sigma_ratio)
        for z in found if z.sigma_ratio > SIGMA_RATIO_DEGENERATE
    ]
    # a degenerate zero at the origin gets the theorem's index
    origin_tol = 1e-6 * max(1.0, cert.radius)
    degenerate = [
        DegenerateRecord(
            _field(z.flat, params), z.residual, z.sigma_ratio,
            _origin_local_index(op, g, cert.radius, seed)
            if sup_norm(z.flat) <= origin_tol else None,
        )
        for z in found if z.sigma_ratio <= SIGMA_RATIO_DEGENERATE
    ]
    degree = sum(z.sign for z in zeros)
    degree += sum(d.local_index for d in degenerate if d.local_index is not None)
    return DegreeReport("full", cert.radius, tuple(zeros), tuple(degenerate), degree, None,
                        "heuristic")
